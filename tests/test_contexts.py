import itertools
import math

import numpy as np
import pytest

from ctxscope.contexts import (
    CONTEXTS,
    INPUT_LABELS,
    INTERIOR_LABELS,
    canonical_paths,
)
from ctxscope.interferometer import evaluate_states
from ctxscope.reference import NAMED_STATES

from conftest import haar_states

NF = NAMED_STATES["Nf"]
BF = NAMED_STATES["Bf"]
V0 = NAMED_STATES["V0"]

# The witness observable commutes with the swap of input rails 1 and 2, so its
# top eigenvector has the form (1, 1, t). Substituting into the eigenvalue
# problem reduces it to 6 w^2 + 3 w - 1 = 0, whose larger root is
# (sqrt(33) - 3) / 12, attained at t = (sqrt(33) - 5) / 2.
MAX_WITNESS_CLOSED_FORM = (math.sqrt(33.0) - 3.0) / 12.0
MAX_WITNESS_STATE = np.array([1.0, 1.0, (math.sqrt(33.0) - 5.0) / 2.0])
MAX_WITNESS_STATE /= np.linalg.norm(MAX_WITNESS_STATE)


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def witness(network, states) -> np.ndarray:
    return evaluate_states(network, np.array(states, dtype=complex))["witness"]


def sign_fixed(v: np.ndarray) -> np.ndarray:
    """Normalize and flip so the first nonzero component is positive."""
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp.real > 0 else -v
    raise AssertionError("zero vector")


def oracle_paths() -> dict[str, np.ndarray]:
    """Rebuild every path vector from the orthogonality constraints alone.

    Independent construction: D1 and D2 are the unit vectors orthogonal to
    one input rail and to the balanced input state, their context partners
    follow as cross products, f must be orthogonal to both bright paths, and
    P1/P2 complete their contexts.
    """
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    balanced = np.ones(3) / math.sqrt(3.0)
    d1 = sign_fixed(np.cross(e1, balanced))
    s1 = sign_fixed(np.cross(e1, d1))
    d2 = sign_fixed(np.cross(e2, balanced))
    s2 = sign_fixed(np.cross(e2, d2))
    f = sign_fixed(np.cross(s1, s2))
    p1 = sign_fixed(np.cross(f, s1))
    p2 = sign_fixed(np.cross(f, s2))
    paths = {"1": e1, "2": e2, "3": np.eye(3)[2],
             "D1": d1, "S1": s1, "D2": d2, "S2": s2, "f": f, "P1": p1, "P2": p2}
    return {k: v.astype(complex) for k, v in paths.items()}


class TestCanonicalPaths:
    def test_matches_independent_construction(self):
        paths = canonical_paths()
        oracle = oracle_paths()
        for label in paths:
            assert paths[label] == pytest.approx(oracle[label], abs=1e-14), label

    def test_every_context_is_orthonormal(self):
        paths = canonical_paths()
        for ctx in CONTEXTS:
            vs = np.array([paths[label] for label in ctx])
            gram = vs.conj() @ vs.T
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12, ctx

    def test_all_orthogonality_edges(self):
        paths = canonical_paths()
        edges = [("f", "P1"), ("f", "P2"), ("f", "S1"), ("f", "S2"),
                 ("D1", "1"), ("D1", "S1"), ("D2", "2"), ("D2", "S2")]
        for a, b in edges:
            assert abs(inner(paths[a], paths[b])) < 1e-12, (a, b)

    def test_balanced_state_overlaps(self):
        paths = canonical_paths()
        assert abs(inner(paths["f"], NF)) ** 2 == pytest.approx(1 / 9, abs=1e-15)
        assert abs(inner(paths["D1"], NF)) < 1e-15
        assert abs(inner(paths["D2"], NF)) < 1e-15

    def test_consecutive_contexts_share_exactly_one_label(self):
        for k in range(5):
            shared = set(CONTEXTS[k]) & set(CONTEXTS[(k + 1) % 5])
            assert len(shared) == 1, k
        assert CONTEXTS[0] == ("1", "2", "3")

    def test_changed_pair_overlap_sequence(self):
        paths = canonical_paths()
        expected = (1 / 2, 1 / 3, 1 / 4, 1 / 3, 1 / 2)
        for k, want in enumerate(expected, start=1):
            prev_ctx, ctx = CONTEXTS[k - 1], CONTEXTS[k % 5]
            shared = (set(prev_ctx) & set(ctx)).pop()
            old = [paths[l] for l in prev_ctx if l != shared]
            new = [paths[l] for l in ctx if l != shared]
            overlaps = [abs(inner(n, o)) ** 2 for n in new for o in old]
            assert min(overlaps) == pytest.approx(want, abs=1e-12), k

    def test_spot_overlaps_between_changing_pairs(self):
        paths = canonical_paths()
        assert abs(inner(paths["1"], paths["f"])) ** 2 == pytest.approx(1 / 3, abs=1e-15)
        assert abs(inner(paths["P1"], paths["P2"])) ** 2 == pytest.approx(1 / 4, abs=1e-15)

    def test_label_partition(self):
        assert set(INPUT_LABELS) | set(INTERIOR_LABELS) == {
            "1", "2", "3", "f", "D1", "D2", "S1", "S2", "P1", "P2"
        }
        assert not set(INPUT_LABELS) & set(INTERIOR_LABELS)

    def test_vectors_are_read_only(self):
        with pytest.raises(ValueError):
            canonical_paths()["f"][0] = 0.0


class TestNoncontextualBound:
    """The 0/1 assignments to the ten labels with exactly one 1 in every
    context, and the witness f - D1 - D2 on each of them."""

    @staticmethod
    def assignments() -> list[dict[str, int]]:
        labels = INPUT_LABELS + INTERIOR_LABELS
        every = (dict(zip(labels, bits)) for bits in itertools.product((0, 1), repeat=len(labels)))
        return [a for a in every if all(sum(a[label] for label in ctx) == 1 for ctx in CONTEXTS)]

    def test_eleven_assignments_keep_the_bound(self):
        assignments = self.assignments()
        assert len(assignments) == 11
        assert all(a["f"] - a["D1"] - a["D2"] <= 0 for a in assignments)

    def test_where_f_is_1_and_where_the_bound_is_tight(self):
        ones = [frozenset(label for label, v in a.items() if v) for a in self.assignments()]
        assert {a for a in ones if "f" in a} == {
            frozenset({"1", "f", "D2"}), frozenset({"2", "f", "D1"}), frozenset({"3", "f", "D1", "D2"})}
        # f = 1 with one of D1, D2, or none of f, D1, D2; {3, f, D1, D2} gives -1
        assert {a for a in ones if ("f" in a) - ("D1" in a) - ("D2" in a) == 0} == {
            frozenset({"1", "f", "D2"}), frozenset({"2", "f", "D1"}),
            frozenset({"1", "P1", "S2"}), frozenset({"2", "P2", "S1"}), frozenset({"3", "S1", "S2"})}


class TestPathProbability:
    def test_examples(self, network):
        nf, v0 = (evaluate_states(network, psi[None, :]) for psi in (NF, V0))
        assert nf["pf"][0] == pytest.approx(1 / 9, abs=1e-15)
        assert nf["pd1"][0] == pytest.approx(0.0, abs=1e-15)
        assert v0["pf"][0] == pytest.approx(1 / 3, abs=1e-15)


class TestWitness:
    def test_frozen_values(self, network):
        assert witness(network, [NF, BF, V0]) == pytest.approx([1 / 9, -2 / 51, 2 / 9], abs=1e-12)

    def test_single_rail_value(self, network):
        # P(f) = 1/3, P(D1) = 0, P(D2) = 1/2 for rail 1
        assert witness(network, [NAMED_STATES["basis1"]])[0] == pytest.approx(-1 / 6, abs=1e-12)

    def test_global_phase_invariance(self, network):
        states = haar_states(50, 902)
        for theta in (0.3, 1.2, 2.8):
            rotated = witness(network, np.exp(1j * theta) * states)
            assert rotated == pytest.approx(witness(network, states), abs=1e-12)

    def test_matrix_form_agrees(self, network, witness_matrix):
        states = haar_states(200, 13)
        quad = np.real(np.einsum("ni,ij,nj->n", states.conj(), witness_matrix, states))
        assert quad == pytest.approx(witness(network, states), abs=1e-12)


class TestMaxWitness:
    def test_closed_form_value(self, witness_matrix):
        w = MAX_WITNESS_CLOSED_FORM
        assert 6.0 * w ** 2 + 3.0 * w - 1.0 == pytest.approx(0.0, abs=1e-12)
        assert witness_matrix @ MAX_WITNESS_STATE == pytest.approx(w * MAX_WITNESS_STATE, abs=1e-12)

    def test_against_eigen_oracle(self, witness_matrix):
        vals, vecs = np.linalg.eigh(witness_matrix)
        assert MAX_WITNESS_CLOSED_FORM == pytest.approx(float(vals[-1]), abs=1e-9)
        top = vecs[:, -1]
        overlap = abs(np.vdot(top, MAX_WITNESS_STATE))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_against_dense_grid_search(self, witness_matrix):
        n = 601
        alphas = np.linspace(0.0, math.pi / 2.0, n)
        betas = np.linspace(0.0, math.pi / 2.0, n)
        ga, gb = np.meshgrid(alphas, betas, indexing="ij")
        states = np.stack([
            np.sin(ga) * np.cos(gb), np.sin(ga) * np.sin(gb), np.cos(ga)
        ], axis=-1).reshape(-1, 3)
        values = np.einsum("ni,ij,nj->n", states, witness_matrix, states)
        grid_max = float(values.max())
        assert grid_max <= MAX_WITNESS_CLOSED_FORM + 1e-9
        assert MAX_WITNESS_CLOSED_FORM - grid_max <= 1e-3

    def test_self_consistency(self, network):
        assert witness(network, [MAX_WITNESS_STATE])[0] == pytest.approx(MAX_WITNESS_CLOSED_FORM, abs=1e-12)

    def test_named_states_stay_below_maximum(self, network):
        assert np.all(witness(network, [V0, NF]) < MAX_WITNESS_CLOSED_FORM)

    def test_haar_states_never_exceed_maximum(self, network):
        states = haar_states(10_000, 31415)
        assert float(witness(network, states).max()) <= MAX_WITNESS_CLOSED_FORM + 1e-9
