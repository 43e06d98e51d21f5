import math

import numpy as np
import pytest

from ctxscope import stats
from ctxscope.contexts import INTERIOR_LABELS
from ctxscope.core import normalize
from ctxscope.interferometer import fringe_coefficients, propagate
from ctxscope.reference import NAMED_STATES
from ctxscope.stats import DegenerateDesignError, draw_counts, fit_fringe, fringe

from conftest import haar_states

NF = NAMED_STATES["Nf"]


def phase_scan(network, psi, target, grid) -> np.ndarray:
    """An ideal phase scan: the (n, 3) port probabilities over grid, usable as real-valued counts."""
    grid = np.asarray(grid, dtype=float)
    return propagate(network, psi[None, :], [target], np.exp(1j * grid)[:, None])[:, 0]


def fit_one(settings, counts, coefficients):
    """The three PortFits of fit_fringe on one (settings, counts) block."""
    return fit_fringe([(settings, counts)], coefficients)[1]


def sampled_fringe(settings, coefficients, visibility, rate, duration, seed) -> np.ndarray:
    """Counts of a phase fringe degraded to visibility, drawn as a noisy phase-scan draws them."""
    return draw_counts(fringe(settings, coefficients, visibility), rate, duration, seed)


@pytest.fixture(scope="module")
def nf_fringe(network):
    """(settings, ideal port probabilities) of a 13-step phase scan of Nf."""
    grid = np.linspace(0.0, 2.0 * math.pi, 13)
    return grid, phase_scan(network, NF, "f", grid)


@pytest.fixture(scope="module")
def nf_coefficients(network):
    return fringe_coefficients(network, NF)


class TestSampleCounts:
    def test_deterministic_per_seed(self):
        a = draw_counts(np.array([0.2, 0.3, 0.5]), 1000.0, 100.0, 123)
        b = draw_counts(np.array([0.2, 0.3, 0.5]), 1000.0, 100.0, 123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = draw_counts(np.array([0.2, 0.3, 0.5]), 1000.0, 100.0, 123)
        b = draw_counts(np.array([0.2, 0.3, 0.5]), 1000.0, 100.0, 124)
        assert not np.array_equal(a, b)

    def test_zero_dimensional_probability_counts_in_its_shape(self):
        counts = draw_counts(0.5, 10.0, 1.0, 0)
        assert counts.shape == () and counts.dtype == np.int64
        assert counts == draw_counts(np.array([0.5]), 10.0, 1.0, 0)[0]

    def test_generator_drawn_in_blocks_gives_the_counts_of_one_call(self):
        probs = np.random.default_rng(5).uniform(0.0, 1.0, (1000, 3))
        rng = np.random.default_rng(8)
        blocks = [draw_counts(probs[start:start + 300], 1e4, 1.0, rng) for start in range(0, 1000, 300)]
        assert np.array_equal(np.concatenate(blocks), draw_counts(probs, 1e4, 1.0, 8))

    def test_zero_probability_ports_count_zero(self):
        counts = draw_counts(np.array([1.0, 0.0, 0.0]), 100.0, 1.0, 9)
        assert counts[1] == 0
        assert counts[2] == 0

    def test_counts_near_expected_means(self):
        counts = draw_counts(np.full(3, 1 / 3), 1000.0, 100.0, 7)
        mu = 1000.0 * 100.0 / 3.0
        for count in counts:
            assert abs(count - mu) < 5.0 * math.sqrt(mu)

    @pytest.mark.parametrize("mu,seed", [(5.0, 9000), (29.9, 9001), (30.0, 9002), (100.0, 5000)])
    def test_sampler_moments(self, mu, seed):
        n = 100_000
        draws = draw_counts(np.tile([1.0, 0.0, 0.0], (n, 1)), mu, 1.0, seed)[:, 0]
        assert abs(draws.mean() - mu) < 5.0 * math.sqrt(mu / n)
        assert abs(draws.var(ddof=1) - mu) < 0.1 * mu
        # chi-square against the exact pmf; both tails fold into the end bins
        # so that every bin expects at least 5 draws
        k = np.arange(int(mu + 12.0 * math.sqrt(mu) + 20.0))
        pmf = np.exp(k * math.log(mu) - mu - np.array([math.lgamma(i + 1.0) for i in k]))
        lo, hi = np.flatnonzero(n * pmf >= 5.0)[[0, -1]]
        expected = n * pmf[lo:hi + 1]
        expected[0] = n * pmf[:lo + 1].sum()
        expected[-1] = n * (1.0 - pmf[:hi].sum())
        observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        dof = expected.size - 1
        assert chi2 < dof + 5.0 * math.sqrt(2.0 * dof), (chi2, dof)

    def test_invalid_rate_and_duration(self):
        with pytest.raises(ValueError, match=r"rate must be positive, got 0\.0"):
            draw_counts(np.array([1.0, 0.0, 0.0]), 0.0, 1.0, 1)
        with pytest.raises(ValueError, match=r"duration must be positive, got -2\.0"):
            draw_counts(np.array([1.0, 0.0, 0.0]), 1.0, -2.0, 1)

    @pytest.mark.parametrize("rate, duration", [(math.inf, 1.0), (1.0, math.inf), (1e308, 10.0)])
    def test_infinite_photon_budget(self, rate, duration):
        with pytest.raises(ValueError, match=r"rate \* duration must be finite"):
            draw_counts(np.array([1.0, 0.0, 0.0]), rate, duration, 1)


class TestSampleDataset:
    def test_deterministic_and_integer(self, nf_fringe):
        _, ideal = nf_fringe
        a = draw_counts(ideal, 1000.0, 100.0, 55)
        b = draw_counts(ideal, 1000.0, 100.0, 55)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.shape == ideal.shape


class TestNoisyFringe:
    def test_full_visibility_tracks_ideal_curve(self, nf_fringe, nf_coefficients):
        settings, ideal = nf_fringe
        rate, duration = 10_000.0, 100.0
        noisy = sampled_fringe(settings, nf_coefficients, 1.0, rate, duration, 11)
        assert noisy.dtype == np.int64 and noisy.shape == (settings.size, 3)
        scale = rate * duration
        sigma = np.sqrt(np.maximum(ideal * scale, 1.0)) / scale
        dev = np.abs(noisy / scale - ideal)
        assert float(np.max(dev / sigma)) < 5.0

    def test_zero_visibility_is_flat(self, nf_fringe, nf_coefficients):
        noisy = sampled_fringe(nf_fringe[0], nf_coefficients, 0.0, 1000.0, 100.0, 3)
        means = np.array([5 / 27, 5 / 27, 17 / 27]) * 1e5
        for port in range(3):
            column = noisy[:, port].astype(float)
            sigma = math.sqrt(means[port])
            assert np.all(np.abs(column - means[port]) < 5.0 * sigma)

    def test_port3_means_follow_fringe_model(self, nf_coefficients):
        grid = np.linspace(0.0, 2.0 * math.pi, 9)
        noisy = sampled_fringe(grid, nf_coefficients, 1.0, 1000.0, 100.0, 21)
        expected = (17.0 - 8.0 * np.cos(grid)) / 27.0 * 1e5
        assert np.all(np.abs(noisy[:, 2] - expected) < 5.0 * np.sqrt(expected))

    def test_visibility_out_of_range(self, nf_fringe, nf_coefficients):
        with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\], got 1\.2"):
            fringe(nf_fringe[0], nf_coefficients, 1.2)

    def test_adjacent_seeds_do_not_overlap(self, nf_fringe, nf_coefficients):
        seven = sampled_fringe(nf_fringe[0], nf_coefficients, 0.0, 1000.0, 100.0, 7)
        eight = sampled_fringe(nf_fringe[0], nf_coefficients, 0.0, 1000.0, 100.0, 8)
        assert not np.array_equal(seven[1:], eight[:-1])

    def test_rejects_empty_and_non_finite_grids(self, nf_coefficients):
        for grid, message in (([], "nonempty"), (0.5, "one-dimensional"), ([[0.5], [1.0]], "one-dimensional"),
                              ([0.5, math.nan], "finite"), ([math.inf], "finite")):
            with pytest.raises(ValueError, match=message):
                fringe(grid, nf_coefficients, 1.0)

    def test_probabilities_are_floats_and_nothing_is_drawn(self, monkeypatch, nf_fringe, nf_coefficients):
        monkeypatch.setattr(stats, "draw_counts", lambda *args: pytest.fail("drew counts"))
        probs = fringe(nf_fringe[0], nf_coefficients, 0.5)
        assert probs.dtype == np.float64 and probs.shape == (nf_fringe[0].size, 3)

    def test_full_visibility_means_equal_the_ideal_scan(self, network):
        # any grid (no 0 or pi here), complex states and every interior target
        grid = np.concatenate([np.linspace(0.3, 5.9, 17), [-40.0, 1e3]])
        for psi in haar_states(25, 31):
            for target in INTERIOR_LABELS:
                probs = fringe(grid, fringe_coefficients(network, psi, target), 1.0)
                ideal = phase_scan(network, psi, target, grid)
                assert float(np.max(np.abs(probs - ideal))) <= 1e-12


class TestFitFringe:
    def test_exact_counts_recover_unit_visibility(self, nf_fringe, nf_coefficients):
        settings, ideal = nf_fringe
        fit = fit_one(settings, ideal * 1e6, nf_coefficients)
        for port in fit:
            assert port.visibility == pytest.approx(1.0, abs=1e-9)
            assert port.c == pytest.approx(0.0, abs=1e-9)

    def test_exact_degraded_curve_recovers_true_visibility(self, nf_fringe, nf_coefficients):
        settings, _ = nf_fringe
        offs, amps, _ = nf_coefficients
        curve = offs[None, :] + 0.7 * amps[None, :] * np.cos(settings)[:, None]
        fit = fit_one(settings, curve * 1e6, nf_coefficients)
        for port in fit:
            assert port.visibility == pytest.approx(0.7, abs=1e-9)

    def test_scale_invariance(self, nf_fringe, nf_coefficients):
        settings, _ = nf_fringe
        noisy = sampled_fringe(settings, nf_coefficients, 1.0, 1000.0, 100.0, 4)
        base = fit_one(settings, noisy, nf_coefficients)
        rescaled = fit_one(settings, noisy.astype(float) * 137.0, nf_coefficients)
        for a, b in zip(base, rescaled):
            assert b.visibility == pytest.approx(a.visibility, abs=1e-9)

    def test_noisy_recovery_within_three_percent(self, nf_fringe, nf_coefficients):
        settings, _ = nf_fringe
        for seed in (1, 2, 3, 4, 5):
            counts = sampled_fringe(settings, nf_coefficients, 1.0, 1000.0, 100.0, seed)
            fit = fit_one(settings, counts, nf_coefficients)
            for port in fit:
                assert 0.97 <= port.visibility <= 1.03

    def test_sine_term_absorbs_no_signal(self, nf_fringe, nf_coefficients):
        # the models carry no phase offset, so c must stay at noise level
        settings, _ = nf_fringe
        counts = sampled_fringe(settings, nf_coefficients, 1.0, 1000.0, 100.0, 8)
        fit = fit_one(settings, counts, nf_coefficients)
        for port in fit:
            assert abs(port.c) < 5.0 * port.stderr + 1e-6

    def test_visibility_above_one_is_not_clamped(self, nf_fringe, nf_coefficients):
        settings, _ = nf_fringe
        counts = sampled_fringe(settings, nf_coefficients, 1.0, 1000.0, 100.0, 1)
        fit = fit_one(settings, counts, nf_coefficients)
        assert any(port.visibility > 1.0 for port in fit)

    def test_complex_state_recovers_injected_visibility(self, network):
        # psi ~ (1, i, 0.5) has a sine term; its fringe amplitude is |b + i c|
        psi = normalize(np.array([1.0, 1.0j, 0.5]))
        coefficients = fringe_coefficients(network, psi)
        grid = np.linspace(0.0, 2.0 * math.pi, 25)
        for seed in (1, 2, 3, 4, 5):
            fit = fit_one(grid, sampled_fringe(grid, coefficients, 0.8, 1000.0, 100.0, seed), coefficients)
            for port in fit:
                assert abs(port.visibility - 0.8) < 5.0 * port.stderr

    def test_three_settings_fit_exactly_with_zero_stderr(self, network, nf_coefficients):
        grid = [0.0, math.pi / 2.0, math.pi]
        fit = fit_one(grid, phase_scan(network, NF, "f", grid) * 1e6, nf_coefficients)
        for port in fit:
            assert port.visibility == pytest.approx(1.0, abs=1e-9)
            assert port.stderr == 0.0

    def test_too_few_distinct_settings(self, nf_coefficients):
        with pytest.raises(DegenerateDesignError):
            fit_one(np.array([0.0, 0.0, math.pi]), np.array([[10, 10, 10]] * 3, dtype=np.int64), nf_coefficients)

    def test_aliased_settings_are_degenerate(self, nf_coefficients):
        # distinct floats that collapse onto the same (cos, sin) pairs
        with pytest.raises(DegenerateDesignError):
            fit_one(np.array([0.0, math.pi, 2.0 * math.pi]), np.array([[10, 10, 10]] * 3, dtype=np.int64),
                       nf_coefficients)

    def test_zero_total_counts_rejected(self, nf_coefficients):
        with pytest.raises(DegenerateDesignError):
            fit_one(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros((4, 3), dtype=np.int64), nf_coefficients)

    def test_overflowing_totals_are_degenerate(self, nf_coefficients):
        with pytest.raises(DegenerateDesignError, match="finite total"):
            fit_one(np.arange(4.0), np.full((4, 3), 1e308), nf_coefficients)


class TestFringeDataset:
    """The settings and counts that fit_fringe accepts, and the probabilities draw_counts accepts."""

    def test_counts_must_be_non_negative(self, nf_coefficients):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            fit_one(np.array([0.0]), np.array([[1, -2, 3]]), nf_coefficients)

    @pytest.mark.parametrize("settings, values", [
        ([0.0], [[math.nan, 0.0, 0.0]]),
        ([math.nan], [[0.2, 0.3, 0.4]]),
        ([0.0], [[1.0, math.inf, 3.0]]),
        ([-math.inf], [[1, 2, 3]]),
    ])
    def test_non_finite_settings_and_values_are_rejected(self, settings, values, nf_coefficients):
        with pytest.raises(ValueError, match="must be finite") as excinfo:
            fit_one(np.array(settings), values, nf_coefficients)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("settings, values", [
        (np.arange(4.0), np.ones((4, 2))),
        (np.arange(4.0), np.ones((3, 3))),
        (np.arange(4.0), np.ones(12)),
        (np.arange(4.0).reshape(4, 1), np.ones((4, 3))),
        (0.0, np.ones((1, 3))),
    ], ids=["two ports", "too few rows", "flat counts", "2-D settings", "scalar setting"])
    def test_wrong_shapes_are_rejected(self, settings, values, nf_coefficients):
        with pytest.raises(ValueError, match=r"need counts of shape \(n, 3\)") as excinfo:
            fit_one(settings, values, nf_coefficients)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("ports", [2, 4])
    def test_model_needs_a_fringe_for_each_of_three_ports(self, ports):
        coefficients = (np.full(ports, 0.3), np.full(ports, 0.2), np.zeros(ports))
        with pytest.raises(ValueError, match="model must give a fringe amplitude for each of the three ports"):
            fit_one(np.arange(4.0), np.full((4, 3), 10), coefficients)

    @pytest.mark.parametrize("port", [0, 1, 2])
    @pytest.mark.parametrize("amplitude", [0.0, 5e-17, math.nan])
    def test_model_port_without_a_fringe_is_refused(self, nf_coefficients, port, amplitude):
        offsets, cosines, sines = (np.array(v) for v in nf_coefficients)
        cosines[port], sines[port] = amplitude, 0.0
        with pytest.raises(ValueError, match=f"model fringe amplitude for port {port + 1} must be positive"):
            fit_one(np.arange(4.0), np.full((4, 3), 10), (offsets, cosines, sines))

    @pytest.mark.parametrize("flat_port", [None, 0, 2])
    def test_an_ill_shaped_or_flat_model_is_refused_before_any_block_is_read(self, nf_coefficients, flat_port):
        def unread():
            raise AssertionError("a block was read")
            yield

        coefficients = tuple(np.array(v) for v in nf_coefficients)
        if flat_port is None:
            coefficients = tuple(v[:2] for v in coefficients)
            message = "model must give a fringe amplitude for each of the three ports"
        else:
            coefficients[1][flat_port] = coefficients[2][flat_port] = 0.0
            message = f"model fringe amplitude for port {flat_port + 1} must be positive"
        with pytest.raises(ValueError, match=message):
            fit_fringe(unread(), coefficients)

    def test_flat_counts_fit_zero_visibility(self, nf_coefficients):
        # constant counts fit a cosine and sine term of exactly zero
        for port in fit_one(np.arange(4.0), np.full((4, 3), 10), nf_coefficients):
            assert (port.b, port.c, port.visibility, port.stderr) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_dataset_is_degenerate(self, nf_coefficients):
        with pytest.raises(DegenerateDesignError, match="settings do not span offset, cosine, and sine terms"):
            fit_one(np.zeros(0), np.zeros((0, 3)), nf_coefficients)

    def test_nan_probability_is_not_reported_as_a_rate_error(self):
        with pytest.raises(ValueError, match="must be finite") as excinfo:
            draw_counts(np.array([[math.nan, 0.0, 0.0]]), 1.0, 1.0, 0)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("kind, values", [
        ("counts", np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [3, 2, 1]])),
        ("ideal", np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.2, 0.2], [0.1, 0.3, 0.2]])),
    ])
    def test_caller_arrays_stay_writeable_and_apart(self, kind, values, nf_coefficients):
        # fitting reads its inputs: it neither freezes nor rescales the caller's arrays
        settings = np.array([0.0, 1.0, 2.0, 3.0])
        kept_settings, kept_values = settings.copy(), values.copy()
        fit_one(settings, values, nf_coefficients)
        assert settings.flags.writeable and values.flags.writeable
        assert np.array_equal(settings, kept_settings)
        assert np.array_equal(values, kept_values)


def lstsq_fit(settings, counts, coefficients):
    """The fit by a plain least-squares solve per port: (a, b, c, visibility, stderr) rows."""
    y = counts / counts.sum(axis=1, keepdims=True)
    design = np.column_stack([np.ones(len(settings)), np.cos(settings), np.sin(settings)])
    cov = np.linalg.inv(design.T @ design)
    rows = []
    for i, amplitude in enumerate(np.hypot(coefficients[1], coefficients[2])):
        coef, *_ = np.linalg.lstsq(design, y[:, i], rcond=None)
        resid = y[:, i] - design @ coef
        sigma_sq = resid @ resid / (len(settings) - 3) if len(settings) > 3 else 0.0
        grad = coef[1:] / math.hypot(*coef[1:])
        rows.append([*coef, math.hypot(*coef[1:]) / amplitude,
                     math.sqrt(sigma_sq * grad @ cov[1:, 1:] @ grad) / amplitude])
    return np.array(rows)


class TestFitFolding:
    """fit_fringe folds its blocks into one R factor; the answers are those of a plain solve."""

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_a_plain_least_squares_solve(self, network, trial):
        rng = np.random.default_rng(trial)
        psi = haar_states(1, trial)[0]  # complex states: every port has a sine term
        coefficients = fringe_coefficients(network, psi)
        n = [3, 4, 7, 50, 2500][trial % 5]
        settings = rng.uniform(-10.0, 10.0, n)
        counts = sampled_fringe(settings, coefficients, rng.uniform(0.2, 1.0), 1e4, 1.0, trial) + 1.0
        fitted = np.array([list(port) for port in fit_one(settings, counts, coefficients)])
        expected = lstsq_fit(settings, counts.astype(float), coefficients)
        scale = np.maximum(np.abs(expected), 1e-300)
        if n == 3:  # an exact fit: no residual, so the stderr column is exactly zero on both sides
            assert np.all(fitted[:, 4] == 0.0)
        assert np.all(np.abs(fitted - expected) <= 1e-12 * scale + 1e-15), (fitted, expected)

    @pytest.mark.parametrize("sizes", [[1] * 9, [2, 5, 1, 1], [4000, 1, 3000, 2999], [1023, 1, 1025, 2048]])
    def test_one_block_or_many_give_the_same_fit(self, network, sizes):
        psi = normalize(np.array([1.0, 0.5j, -0.3 + 0.2j]))
        coefficients = fringe_coefficients(network, psi)
        settings = np.random.default_rng(len(sizes)).uniform(0.0, 2.0 * math.pi, sum(sizes))
        counts = sampled_fringe(settings, coefficients, 0.9, 1e3, 1.0, 7)
        bounds = np.cumsum([0, *sizes])
        blocks = [(settings[lo:hi], counts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        n, ports = fit_fringe(iter(blocks), coefficients)
        assert n == len(settings)
        whole = fit_one(settings, counts, coefficients)
        assert np.allclose(np.array(ports), np.array(whole), rtol=1e-13, atol=1e-15)

    def test_a_block_with_no_rows_changes_nothing(self, nf_fringe, nf_coefficients):
        settings, ideal = nf_fringe
        empty = (np.zeros(0), np.zeros((0, 3)))
        assert fit_fringe([empty, (settings, ideal), empty], nf_coefficients) == (
            len(settings), fit_one(settings, ideal, nf_coefficients))

    def test_a_degenerate_total_is_reported_after_every_block_is_read(self, nf_coefficients):
        # a zero total in the first block must not hide a malformed later block
        def blocks():
            yield np.arange(4.0), np.zeros((4, 3))
            yield np.arange(2.0), np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])

        with pytest.raises(ValueError, match="counts must be non-negative") as excinfo:
            fit_fringe(blocks(), nf_coefficients)
        assert excinfo.type is ValueError
