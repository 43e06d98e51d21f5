import math
import re

import numpy as np
import pytest

from ctxscope.contexts import CONTEXTS, INTERIOR_LABELS, canonical_paths
from ctxscope.core import real_grid_blocks
from ctxscope.interferometer import (
    Modifier,
    Network,
    Stage,
    build_network,
    attenuate,
    block,
    evaluate_states,
    fringe_coefficients,
    phase_shift,
    propagate,
    run,
    witness_from_outputs,
)
from ctxscope.reference import FRINGE_MODELS, MEASURED, NAMED_STATES
from ctxscope.selfcheck import check_reflectivities, check_telescoping

from conftest import haar_states

NF = NAMED_STATES["Nf"]
BF = NAMED_STATES["Bf"]
V0 = NAMED_STATES["V0"]


def path_probability(psi: np.ndarray, label: str) -> float:
    return abs(np.vdot(canonical_paths()[label], psi)) ** 2


def run_many(network, states: np.ndarray, modifiers=()) -> np.ndarray:
    """(n, 3) port probabilities of a batch of states under one modifier set."""
    return propagate(network, states, [m.target for m in modifiers], [[m.factor for m in modifiers]])[0]


def scan(network, psi: np.ndarray, target: str, factors) -> np.ndarray:
    """(n_settings, 3) port probabilities of one state over a factor column."""
    return propagate(network, psi[None, :], [target], np.asarray(factors)[:, None])[:, 0]


def blocked_oracle(psi: np.ndarray, label: str) -> np.ndarray:
    """Independent prediction: project out the blocked path, then take
    output magnitudes squared (the unmodified network is the identity)."""
    vec = canonical_paths()[label]
    projected = psi - np.vdot(vec, psi) * vec
    return np.abs(projected) ** 2


def modifier_factors(modifiers) -> dict[str, complex]:
    return {mod.target: {"block": 0.0, "phase": np.exp(1j * mod.value), "attenuate": mod.value}[mod.action]
            for mod in modifiers}


def stage_product_oracle(network, states: np.ndarray, factors: dict[str, complex]) -> np.ndarray:
    """Independent prediction: multiply through the stage matrices one by one,
    scaling a modified path's slot at the first stage whose basis holds it."""
    factors = dict(factors)
    amps = np.array(states, dtype=complex)
    for stage in network.stages:
        amps = amps @ stage.transfer.T
        for slot, label in enumerate(stage.basis):
            if label in factors:
                amps[:, slot] *= factors.pop(label)
    return np.abs(amps) ** 2


def rotated_network(k: int, eps: float) -> Network:
    """The design network with stage k's changed pair rotated by eps rad, in
    the previous context's coordinates."""
    stages = list(build_network().stages)
    previous, stage = CONTEXTS[k - 1], stages[k - 1]
    a, b = (j for j, label in enumerate(previous) if label not in stage.basis)
    rotation = np.eye(3, dtype=complex)
    rotation[[a, a, b, b], [a, b, a, b]] = math.cos(eps), -math.sin(eps), math.sin(eps), math.cos(eps)
    stages[k - 1] = Stage(stage.basis, stage.transfer @ rotation)
    return Network(tuple(stages))


def random_modifiers(rng: np.random.Generator, labels) -> list:
    mods = []
    for label in labels:
        action = rng.integers(3)
        if action == 0:
            mods.append(block(label))
        elif action == 1:
            mods.append(phase_shift(label, rng.uniform(-math.pi, math.pi)))
        else:
            mods.append(attenuate(label, rng.uniform(0.0, 1.0)))
    return mods


class TestBuildNetwork:
    def test_five_stages_with_expected_bases(self, network):
        assert [(k, s.basis) for k, s in enumerate(network.stages, 1)] == [(k, CONTEXTS[k % 5]) for k in range(1, 6)]
        assert network.stages[0].basis == ("1", "D1", "S1")
        assert network.stages[4].basis == ("1", "2", "3")

    def test_telescoping_product_is_identity(self, network):
        product = np.eye(3, dtype=complex)
        for stage in network.stages:
            product = stage.transfer @ product
        assert np.max(np.abs(product - np.eye(3))) < 1e-12

    def test_reflectivity_sequence(self, network):
        assert network.reflectivities == pytest.approx(
            (1 / 2, 1 / 3, 1 / 4, 1 / 3, 1 / 2), abs=1e-12
        )

    def test_each_stage_leaves_shared_label_untouched(self, network):
        for k, stage in enumerate(network.stages, 1):
            prev = CONTEXTS[k - 1]
            shared = (set(prev) & set(stage.basis)).pop()
            i, j = stage.basis.index(shared), prev.index(shared)
            col = np.abs(stage.transfer[:, j])
            row = np.abs(stage.transfer[i, :])
            assert col[i] == pytest.approx(1.0, abs=1e-12)
            assert row[j] == pytest.approx(1.0, abs=1e-12)
            assert np.sum(col) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(row) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rail", range(3))
    def test_input_rails_route_to_matching_output(self, network, rail):
        psi = np.zeros(3, dtype=complex)
        psi[rail] = 1.0
        dist = run(network, psi)
        expected = [0.0, 0.0, 0.0]
        expected[rail] = 1.0
        assert list(dist) == pytest.approx(expected, abs=1e-12)


class TestStageList:
    """A network derives its paths, product and couplings from its own stages."""

    DESIGN = (1 / 2, 1 / 3, 1 / 4, 1 / 3, 1 / 2)

    def test_rebuilt_from_its_stages_bit_for_bit(self, network):
        rebuilt = Network(build_network().stages)
        assert list(rebuilt.paths) == list(network.paths)
        for label, vec in network.paths.items():
            assert rebuilt.paths[label].tobytes() == vec.tobytes()
        assert rebuilt.product.tobytes() == network.product.tobytes()
        assert rebuilt.reflectivities == network.reflectivities

    def test_product_and_paths_are_read_only(self, network):
        with pytest.raises(ValueError):
            network.product[0, 0] = 2.0
        with pytest.raises(ValueError):
            network.paths["f"][0] = 2.0

    @pytest.mark.parametrize("k", range(1, 6))
    def test_a_rotated_stage_reports_its_own_coupling_and_product(self, k):
        eps = 1e-3
        perturbed = rotated_network(k, eps)
        for j, (coupling, design) in enumerate(zip(perturbed.reflectivities, self.DESIGN), 1):
            if j == k:
                assert abs(coupling - design) > eps / 10
            else:
                assert abs(coupling - design) <= 1e-12
        assert float(np.max(np.abs(perturbed.product - np.eye(3)))) >= eps / 10
        assert not check_telescoping(perturbed)[0]
        assert not check_reflectivities(perturbed)[0]

    def test_values_compare_and_hash_without_raising(self):
        # a network and its stages compare by identity, never by their arrays
        first, second = build_network(), build_network()
        assert (first == second) is False and first == first
        assert (first.stages[0] == second.stages[0]) is False and first.stages[0] == first.stages[0]
        for value in (first, *first.stages):
            hash(value)
        assert block("f") == block("f") and MEASURED["Nf"] == MEASURED["Nf"]

    def test_contexts_that_do_not_share_one_label_are_refused(self, network):
        first, second, *rest = network.stages
        with pytest.raises(ValueError, match="must share exactly one label"):
            Network((second, first, *rest))


class TestRun:
    def test_balanced_state_free(self, network):
        assert list(run(network, NF)) == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_balanced_state_blocked(self, network):
        dist = run(network, NF, [block("f")])
        assert list(dist) == pytest.approx([4 / 27, 4 / 27, 16 / 27], abs=1e-12)
        assert list(dist) == pytest.approx(blocked_oracle(NF, "f"), abs=1e-12)

    def test_boundary_state_blocked(self, network):
        dist = run(network, BF, [block("f")])
        assert list(dist) == pytest.approx([25 / 153, 25 / 153, 100 / 153], abs=1e-12)
        assert list(dist) == pytest.approx(blocked_oracle(BF, "f"), abs=1e-12)

    def test_near_maximal_state_blocked(self, network):
        dist = run(network, V0, [block("f")])
        assert list(dist) == pytest.approx([1 / 9, 1 / 9, 4 / 9], abs=1e-12)
        assert list(dist) == pytest.approx(blocked_oracle(V0, "f"), abs=1e-12)

    def test_zero_phase_is_identity(self, network):
        assert list(run(network, NF, [phase_shift("f", 0.0)])) == pytest.approx(
            list(run(network, NF)), abs=1e-15
        )

    def test_phase_only_runs_preserve_survival(self, network):
        for psi in haar_states(20, 42):
            for mods in ([phase_shift("f", 1.3)],
                         [phase_shift("S1", 0.4), phase_shift("P2", 2.0)]):
                assert run(network, psi, mods).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label", INTERIOR_LABELS)
    def test_blocking_removes_exactly_the_path_probability(self, network, label):
        for psi in haar_states(10, 77):
            dist = run(network, psi, [block(label)])
            assert dist.sum() == pytest.approx(1.0 - path_probability(psi, label), abs=1e-12)
            assert list(dist) == pytest.approx(blocked_oracle(psi, label), abs=1e-12)

    def test_attenuator_interpolates_block_and_identity(self, network):
        full = run(network, NF, [attenuate("f", 1.0)])
        none = run(network, NF, [attenuate("f", 0.0)])
        assert list(full) == pytest.approx(list(run(network, NF)), abs=1e-12)
        assert list(none) == pytest.approx(list(run(network, NF, [block("f")])), abs=1e-12)

    def test_rejects_input_rail_target(self):
        with pytest.raises(ValueError, match="modifier target must be an interior path, got '1'"):
            block("1")

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="modifier target must be an interior path, got 'X9'"):
            phase_shift("X9", 1.0)

    def test_rejects_duplicate_modifiers_on_one_path(self, network):
        with pytest.raises(ValueError, match="multiple modifiers on path 'f'"):
            run(network, NF, [block("f"), phase_shift("f", 1.0)])

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown modifier action: 'squeeze'"):
            Modifier("f", "squeeze")

    def test_rejects_out_of_range_attenuation(self):
        with pytest.raises(ValueError):
            attenuate("f", 1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_modifier_value(self, value):
        with pytest.raises(ValueError, match="finite"):
            phase_shift("f", value)
        with pytest.raises(ValueError, match="finite"):
            attenuate("D2", value)

    def test_rejects_unnormalized_state(self, network):
        with pytest.raises(ValueError, match="normalized"):
            run(network, [1.0, 1.0, 0.0])

    def test_run_many_matches_run(self, network):
        states = haar_states(25, 3)
        batch = run_many(network, states, [block("S2")])
        for i, psi in enumerate(states):
            assert list(run(network, psi, [block("S2")])) == pytest.approx(batch[i], abs=1e-14)


class TestKernelAgainstStageProduct:
    def test_random_mixed_modifier_sets(self, network):
        rng = np.random.default_rng(8128)
        states = haar_states(500, 4)
        worst = 0.0
        for _ in range(200):
            labels = rng.permutation(INTERIOR_LABELS)[: rng.integers(1, 8)]
            mods = random_modifiers(rng, labels)
            expected = stage_product_oracle(network, states, modifier_factors(mods))
            worst = max(worst, float(np.max(np.abs(run_many(network, states, mods) - expected))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("extra", [(), ("S1",), ("P1", "P2", "S2"), tuple(INTERIOR_LABELS[3:])])
    def test_f_and_d2_together(self, network, extra):
        # f (stage 2) and D2 (stage 4) overlap, so the order of their updates matters.
        rng = np.random.default_rng(len(extra))
        states = haar_states(500, 5)
        for _ in range(20):
            labels = rng.permutation(("D2", "f") + extra)
            mods = random_modifiers(rng, labels)
            expected = stage_product_oracle(network, states, modifier_factors(mods))
            assert float(np.max(np.abs(run_many(network, states, mods) - expected))) <= 1e-12

    @pytest.mark.parametrize("targets", [("D2", "f"), ("f", "D2", "S1"), ("P2", "D2", "S2", "f")])
    def test_factor_grid_row_by_row(self, network, targets):
        # one kernel call over many factor rows, each row checked on its own;
        # D2 (stage 4) is listed before f (stage 2) in two of the target lists
        rng = np.random.default_rng(len(targets))
        states = haar_states(200, 6)
        rows = np.exp(1j * rng.uniform(-math.pi, math.pi, (40, len(targets)))) * rng.uniform(0.0, 1.0, (40, 1))
        rows[:4] = [[0.0] * len(targets), [1.0] * len(targets), [-1.0] * len(targets), [1j] * len(targets)]
        got = propagate(network, states, list(targets), rows)
        assert got.shape == (len(rows), len(states), 3)
        for row, probs in zip(rows, got):
            expected = stage_product_oracle(network, states, dict(zip(targets, row)))
            assert float(np.max(np.abs(probs - expected))) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 0.03])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_a_rotated_stage_propagates_through_its_own_product(self, k, eps):
        # rows: free, f blocked, a phase on P1; the product is not the identity
        perturbed = rotated_network(k, eps)
        states = haar_states(1_000, 30 + k)
        rows = [[1.0, 1.0], [0.0, 1.0], [1.0, np.exp(0.7j)]]
        got = propagate(perturbed, states, ["f", "P1"], rows)
        for row, probs in zip(rows, got):
            expected = stage_product_oracle(perturbed, states, dict(zip(["f", "P1"], row)))
            assert float(np.max(np.abs(probs - expected))) <= 1e-12, row

    def test_kernel_paths_are_the_canonical_paths_up_to_phase(self, network):
        for label, vec in network.paths.items():
            assert abs(np.vdot(vec, canonical_paths()[label])) == pytest.approx(1.0, abs=1e-12)


def repeated_update(network, states: np.ndarray, targets, factors: np.ndarray) -> np.ndarray:
    """The kernel written the plain way: a (settings, n, 3) array repeated from
    the states, amps += (m - 1) <v|amps> v per target in earliest-stage order."""
    amps = np.repeat(np.asarray(states, dtype=complex)[None], len(factors), axis=0)
    order = list(network.paths)
    for j in sorted(range(len(targets)), key=lambda j: order.index(targets[j])):
        v = network.paths[targets[j]]
        amps += ((factors[:, j] - 1.0)[:, None] * (amps @ v.conj()))[..., None] * v
    return np.abs(amps) ** 2


class TestKernelMatchesRepeatedUpdate:
    def test_bit_for_bit_over_random_grids(self, network):
        rng = np.random.default_rng(1313)
        for trial in range(240):
            targets = [str(t) for t in rng.permutation(INTERIOR_LABELS)[: rng.integers(1, 4)]]
            settings = int(rng.integers(1, 6))
            columns = []
            for _ in targets:
                action = rng.integers(3)
                if action == 0:
                    columns.append(np.zeros(settings))
                elif action == 1:
                    columns.append(np.exp(1j * rng.uniform(-math.pi, math.pi, settings)))
                else:
                    columns.append(rng.uniform(0.0, 1.0, settings))
            factors = np.column_stack(columns).astype(complex)
            if trial % 2:
                states = haar_states(int(rng.integers(1, 400)), trial)
            else:
                states = next(real_grid_blocks(int(rng.integers(2, 20)), 10 ** 6))[2]
            got = propagate(network, states, targets, factors)
            assert np.array_equal(got, repeated_update(network, states, targets, factors)), (trial, targets)


    def test_ten_thousand_haar_states_agree_with_matrix_products(self, network):
        # the kernel's overlaps are explicit products, not BLAS calls; over a
        # BLAS-sized batch they stay within 1e-15 of the plain `@` form
        rng = np.random.default_rng(2718)
        states = haar_states(10_000, 21)
        for count in (1, 2, 3):
            targets = [str(t) for t in rng.permutation(INTERIOR_LABELS)[:count]]
            factors = np.exp(1j * rng.uniform(-math.pi, math.pi, (4, count))) * rng.uniform(0.0, 1.0, (4, 1))
            factors[0] = 0.0
            got = propagate(network, states, targets, factors)
            assert float(np.max(np.abs(got - repeated_update(network, states, targets, factors)))) <= 1e-15
        metrics = evaluate_states(network, states)
        free, blocked = repeated_update(network, states, ["f"], np.array([[1.0], [0.0]]))
        expected = {"free": free, "blocked": blocked, "gain": blocked[:, 2] - free[:, 2]}
        for key, label in (("pf", "f"), ("pd1", "D1"), ("pd2", "D2")):
            expected[key] = np.abs(states @ canonical_paths()[label].conj()) ** 2
        for key, values in expected.items():
            assert float(np.max(np.abs(metrics[key] - values))) <= 1e-15, key


class TestKernelInputs:
    @pytest.mark.parametrize("states", [NF, np.zeros((2, 2)), NF[None, None, :]], ids=["1-D", "two columns", "3-D"])
    def test_states_of_the_wrong_shape_are_refused(self, network, states):
        with pytest.raises(ValueError, match=r"states must have shape \(n, 3\), got " + re.escape(str(states.shape))):
            propagate(network, states, ["f"], [[0.0]])

    def test_nan_state_is_refused(self, network):
        with pytest.raises(ValueError, match="input states must be normalized"):
            propagate(network, np.array([NF, [math.nan, 0.0, 0.0]]), ["f"], [[0.0]])

    def test_no_states_give_an_empty_result(self, network):
        probs = propagate(network, np.empty((0, 3)), ["f"], [[1.0], [0.0]])
        assert probs.shape == (2, 0, 3) and probs.dtype == float
        metrics = evaluate_states(network, haar_states(0, 1))
        assert all(len(values) == 0 for values in metrics.values())

    @pytest.mark.parametrize("factors", [[0.0], [[0.0, 1.0]], [[]], np.zeros((2, 1, 1))],
                             ids=["1-D", "two columns", "no column", "3-D"])
    def test_factor_grid_of_the_wrong_shape_is_refused(self, network, factors):
        with pytest.raises(ValueError, match=r"factors must have shape \(n_settings, 1\)"):
            propagate(network, NF[None, :], ["f"], factors)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_factor_is_refused(self, network, value):
        with pytest.raises(ValueError, match="modifier factors must be finite"):
            propagate(network, NF[None, :], ["f", "D2"], [[1.0, 0.5], [value, 1.0]])


    def test_a_path_the_network_does_not_hold_is_named(self):
        partial = Network(build_network().stages[:1])
        with pytest.raises(ValueError, match="^the network has no path 'f'; its paths are D1, S1$"):
            propagate(partial, NF[None, :], ["f"], [[0.0]])


class TestCounterfactualGain:
    def test_frozen_values(self, network):
        gain = evaluate_states(network, np.array([NF, BF, V0]))["gain"]
        assert gain == pytest.approx([7 / 27, 19 / 153, 1 / 3], abs=1e-12)

    def test_gain_can_be_negative(self, network):
        metrics = evaluate_states(network, NF[None, :])
        port1 = metrics["blocked"][0, 0] - metrics["free"][0, 0]
        assert port1 == pytest.approx(4 / 27 - 1 / 3, abs=1e-12)


class TestWitnessFromOutputs:
    @pytest.mark.parametrize(
        ("psi", "expected"),
        [(NF, 1 / 9), (BF, -2 / 51), (V0, 2 / 9)],
        ids=["Nf", "Bf", "V0"],
    )
    def test_frozen_values(self, network, psi, expected):
        free = run(network, psi)
        blocked = run(network, psi, [block("f")])
        assert witness_from_outputs(free, blocked) == pytest.approx(expected, abs=1e-12)

    def test_identity_with_interior_witness_over_random_states(self, network, witness_matrix):
        states = haar_states(10_000, 2718)
        free = run_many(network, states)
        blocked = run_many(network, states, [block("f")])
        from_outputs = (blocked[:, 2] - free[:, 2]) - 0.5 * (blocked[:, 0] + blocked[:, 1])
        direct = np.array([path_probability(psi, "f") - path_probability(psi, "D1") - path_probability(psi, "D2")
                           for psi in states[:200]])
        assert from_outputs[:200] == pytest.approx(direct, abs=1e-12)
        all_direct = np.real(np.einsum("ni,ij,nj->n", states.conj(), witness_matrix, states))
        assert float(np.max(np.abs(all_direct - from_outputs))) < 1e-12

    def test_gain_dominates_witness(self, network):
        states = haar_states(2_000, 99)
        free = run_many(network, states)
        blocked = run_many(network, states, [block("f")])
        gain = blocked[:, 2] - free[:, 2]
        residual = 0.5 * (blocked[:, 0] + blocked[:, 1])
        witness = gain - residual
        assert np.all(residual >= -1e-15)
        assert np.all(gain >= witness - 1e-12)

    def test_witness_reads_the_design_paths_and_outputs_the_stages(self, network):
        # on a perturbed network the witness is still the design paths' and
        # does not move; the outputs, and the witness read from them, do
        states = haar_states(200, 17)
        design, perturbed = evaluate_states(network, states), evaluate_states(rotated_network(2, 0.03), states)
        for key in ("pf", "pd1", "pd2", "witness"):
            assert perturbed[key].tobytes() == design[key].tobytes(), key
        for key in ("free", "blocked", "gain", "witness_outputs"):
            assert float(np.max(np.abs(perturbed[key] - design[key]))) > 1e-3, key

    def test_gain_without_violation_exists(self, network):
        metrics = evaluate_states(network, BF[None, :])
        assert metrics["witness"][0] < 0
        assert metrics["gain"][0] > 0


class TestScans:
    def test_phase_fringe_follows_closed_form(self, network):
        grid = np.linspace(0.0, 2.0 * math.pi, 13)
        values = scan(network, NF, "f", np.exp(1j * grid))
        expected_p3 = (17.0 - 8.0 * np.cos(grid)) / 27.0
        expected_p1 = (5.0 + 4.0 * np.cos(grid)) / 27.0
        assert values[:, 2] == pytest.approx(expected_p3, abs=1e-12)
        assert values[:, 0] == pytest.approx(expected_p1, abs=1e-12)
        assert values.sum(axis=1) == pytest.approx(np.ones(13), abs=1e-12)

    def test_phase_fringe_spot_values(self, network):
        values = scan(network, NF, "f", np.exp(1j * np.array([math.pi, math.pi / 2.0])))
        assert values[0, 2] == pytest.approx(25 / 27, abs=1e-12)
        assert values[1, 0] == pytest.approx(5 / 27, abs=1e-12)

    def test_near_maximal_state_fringe(self, network):
        values = scan(network, V0, "f", [1.0])
        assert values[0, 2] == pytest.approx(1 / 9, abs=1e-12)

    def test_transmittance_endpoints(self, network):
        values = scan(network, NF, "f", np.sin(np.array([0.0, math.pi]) / 2.0))
        assert values[0] == pytest.approx([4 / 27, 4 / 27, 16 / 27], abs=1e-12)
        assert values[1] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)

    def test_transmittance_survival_formula(self, network):
        thetas = np.linspace(0.0, math.pi, 9)
        values = scan(network, NF, "f", np.sin(thetas / 2.0))
        power = np.sin(thetas / 2.0) ** 2
        expected = 1.0 - (1.0 - power) * path_probability(NF, "f")
        assert values.sum(axis=1) == pytest.approx(expected, abs=1e-12)
        assert values.sum(axis=1)[4] == pytest.approx(17 / 18, abs=1e-12)

    @pytest.mark.parametrize("factor", [np.exp(0.5j), np.sin(0.25)], ids=["phase_scan", "transmittance_scan"])
    def test_rejects_input_rail_target(self, network, factor):
        with pytest.raises(ValueError, match="modifier target must be an interior path, got '1'"):
            scan(network, NF, "1", [factor])


class TestFringeCoefficients:
    @pytest.mark.parametrize(
        ("name", "offsets", "amplitudes"),
        [
            ("Nf", (5 / 27, 5 / 27, 17 / 27), (4 / 27, 4 / 27, -8 / 27)),
            ("Bf", (26 / 153, 26 / 153, 101 / 153), (10 / 153, 10 / 153, -20 / 153)),
            ("V0", (2 / 9, 2 / 9, 5 / 9), (2 / 9, 2 / 9, -4 / 9)),
        ],
    )
    def test_exact_model_coefficients(self, network, name, offsets, amplitudes):
        offs, amps, sines = fringe_coefficients(network, NAMED_STATES[name])
        assert offs == pytest.approx(offsets, abs=1e-12)
        assert amps == pytest.approx(amplitudes, abs=1e-12)
        assert float(np.max(np.abs(sines))) <= 1e-15
        assert float(np.max(np.abs(offs - FRINGE_MODELS[name][0]))) <= 1e-15
        assert float(np.max(np.abs(amps - FRINGE_MODELS[name][1]))) <= 1e-15

    def test_real_states_have_an_exactly_zero_sine_term(self, network):
        # a rounding residue in c would move the means of noisy scans of real states
        for psi in [*NAMED_STATES.values(), *np.random.default_rng(8).normal(size=(20, 3))]:
            for target in INTERIOR_LABELS:
                assert not np.any(fringe_coefficients(network, psi / np.linalg.norm(psi), target)[2])

    def test_three_terms_reproduce_the_phase_scan(self, network):
        grid = np.concatenate([np.linspace(0.2, 6.0, 11), [-3.0, 77.0]])  # neither 0 nor pi
        for psi in haar_states(200, 12):
            for target in INTERIOR_LABELS:
                a, b, c = fringe_coefficients(network, psi, target)
                curve = a + b * np.cos(grid)[:, None] + c * np.sin(grid)[:, None]
                assert float(np.max(np.abs(curve - scan(network, psi, target, np.exp(1j * grid))))) <= 1e-12
