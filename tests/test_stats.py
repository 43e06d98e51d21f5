import math

import numpy as np
import pytest

from ctxscope.interferometer import fringe_coefficients, phase_scan
from ctxscope.reference import NAMED_STATES
from ctxscope.stats import (
    DegenerateDesignError,
    FringeDataset,
    InvalidDurationError,
    InvalidRateError,
    VisibilityOutOfRangeError,
    fit_fringe,
    noisy_fringe,
    sample_counts,
    sample_dataset,
)

NF = NAMED_STATES["Nf"]


@pytest.fixture(scope="module")
def nf_fringe(network):
    grid = np.linspace(0.0, 2.0 * math.pi, 13)
    return phase_scan(network, NF, "f", grid)


@pytest.fixture(scope="module")
def nf_model(network):
    offs, amps = fringe_coefficients(network, NF)
    return list(zip(offs, amps))


class TestSampleCounts:
    def test_deterministic_per_seed(self):
        a = sample_counts((0.2, 0.3, 0.5), 1000.0, 100.0, 123)
        b = sample_counts((0.2, 0.3, 0.5), 1000.0, 100.0, 123)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_counts((0.2, 0.3, 0.5), 1000.0, 100.0, 123)
        b = sample_counts((0.2, 0.3, 0.5), 1000.0, 100.0, 124)
        assert a.counts != b.counts

    def test_zero_probability_ports_count_zero(self):
        rec = sample_counts((1.0, 0.0, 0.0), 100.0, 1.0, 9)
        assert rec.counts[1] == 0
        assert rec.counts[2] == 0

    def test_counts_near_expected_means(self):
        rec = sample_counts((1 / 3, 1 / 3, 1 / 3), 1000.0, 100.0, 7)
        mu = 1000.0 * 100.0 / 3.0
        for count in rec.counts:
            assert abs(count - mu) < 5.0 * math.sqrt(mu)

    @pytest.mark.parametrize("mu,seed", [(100.0, 5000), (5.0, 9000)])
    def test_sampler_moments(self, mu, seed):
        # one draw per seed mirrors how scan points derive their seeds
        draws = np.array([
            sample_counts((1.0, 0.0, 0.0), mu, 1.0, seed + i).counts[0]
            for i in range(10_000)
        ], dtype=float)
        assert abs(draws.mean() - mu) < 5.0 * math.sqrt(mu / 10_000)
        assert abs(draws.var(ddof=1) - mu) < 0.1 * mu

    def test_invalid_rate_and_duration(self):
        with pytest.raises(InvalidRateError):
            sample_counts((1.0, 0.0, 0.0), 0.0, 1.0, 1)
        with pytest.raises(InvalidDurationError):
            sample_counts((1.0, 0.0, 0.0), 1.0, -2.0, 1)

    @pytest.mark.parametrize("rate, duration", [(math.inf, 1.0), (1.0, math.inf), (1e308, 10.0)])
    def test_infinite_photon_budget(self, rate, duration):
        with pytest.raises(InvalidRateError, match="must be finite"):
            sample_counts((1.0, 0.0, 0.0), rate, duration, 1)


class TestSampleDataset:
    def test_deterministic_and_integer(self, nf_fringe):
        a = sample_dataset(nf_fringe, 1000.0, 100.0, 55)
        b = sample_dataset(nf_fringe, 1000.0, 100.0, 55)
        assert np.array_equal(a.values, b.values)
        assert a.values.dtype == np.int64

    def test_requires_ideal_mode(self, nf_fringe):
        counts = sample_dataset(nf_fringe, 1000.0, 100.0, 55)
        with pytest.raises(ValueError):
            sample_dataset(counts, 1000.0, 100.0, 55)


class TestNoisyFringe:
    def test_full_visibility_tracks_ideal_curve(self, nf_fringe):
        rate, duration = 10_000.0, 100.0
        noisy = noisy_fringe(nf_fringe, 1.0, rate, duration, 11)
        scale = rate * duration
        sigma = np.sqrt(np.maximum(nf_fringe.values * scale, 1.0)) / scale
        dev = np.abs(noisy.values / scale - nf_fringe.values)
        assert float(np.max(dev / sigma)) < 5.0

    def test_zero_visibility_is_flat(self, nf_fringe):
        noisy = noisy_fringe(nf_fringe, 0.0, 1000.0, 100.0, 3)
        means = np.array([5 / 27, 5 / 27, 17 / 27]) * 1e5
        for port in range(3):
            column = noisy.values[:, port].astype(float)
            sigma = math.sqrt(means[port])
            assert np.all(np.abs(column - means[port]) < 5.0 * sigma)

    def test_port3_means_follow_fringe_model(self, network):
        grid = np.linspace(0.0, 2.0 * math.pi, 9)
        ideal = phase_scan(network, NF, "f", grid)
        noisy = noisy_fringe(ideal, 1.0, 1000.0, 100.0, 21)
        expected = (17.0 - 8.0 * np.cos(grid)) / 27.0 * 1e5
        assert np.all(np.abs(noisy.values[:, 2] - expected) < 5.0 * np.sqrt(expected))

    def test_visibility_out_of_range(self, nf_fringe):
        with pytest.raises(VisibilityOutOfRangeError):
            noisy_fringe(nf_fringe, 1.2, 1000.0, 100.0, 1)

    def test_requires_zero_and_pi_settings(self, network):
        partial = phase_scan(network, NF, "f", np.linspace(0.4, 2.0, 7))
        with pytest.raises(ValueError, match="0 and pi"):
            noisy_fringe(partial, 1.0, 1000.0, 100.0, 1)

    def test_requires_ideal_mode(self, nf_fringe):
        counts = noisy_fringe(nf_fringe, 1.0, 1000.0, 100.0, 1)
        with pytest.raises(ValueError):
            noisy_fringe(counts, 1.0, 1000.0, 100.0, 1)


class TestFitFringe:
    def test_exact_counts_recover_unit_visibility(self, nf_fringe, nf_model):
        exact = FringeDataset(nf_fringe.settings, nf_fringe.values * 1e6, "counts")
        fit = fit_fringe(exact, nf_model)
        for port in fit.ports:
            assert port.visibility == pytest.approx(1.0, abs=1e-9)
            assert port.c == pytest.approx(0.0, abs=1e-9)

    def test_exact_degraded_curve_recovers_true_visibility(self, nf_fringe, nf_model):
        offs = np.array([m[0] for m in nf_model])
        amps = np.array([m[1] for m in nf_model])
        curve = offs[None, :] + 0.7 * amps[None, :] * np.cos(nf_fringe.settings)[:, None]
        exact = FringeDataset(nf_fringe.settings, curve * 1e6, "counts")
        fit = fit_fringe(exact, nf_model)
        for port in fit.ports:
            assert port.visibility == pytest.approx(0.7, abs=1e-9)

    def test_scale_invariance(self, nf_fringe, nf_model):
        noisy = noisy_fringe(nf_fringe, 1.0, 1000.0, 100.0, 4)
        base = fit_fringe(noisy, nf_model)
        scaled = FringeDataset(noisy.settings, noisy.values.astype(float) * 137.0, "counts")
        rescaled = fit_fringe(scaled, nf_model)
        for a, b in zip(base.ports, rescaled.ports):
            assert b.visibility == pytest.approx(a.visibility, abs=1e-9)

    def test_noisy_recovery_within_three_percent(self, nf_fringe, nf_model):
        for seed in (1, 2, 3, 4, 5):
            data = noisy_fringe(nf_fringe, 1.0, 1000.0, 100.0, seed)
            fit = fit_fringe(data, nf_model)
            for port in fit.ports:
                assert 0.97 <= port.visibility <= 1.03

    def test_sine_term_absorbs_no_signal(self, nf_fringe, nf_model):
        # the models carry no phase offset, so c must stay at noise level
        data = noisy_fringe(nf_fringe, 1.0, 1000.0, 100.0, 8)
        fit = fit_fringe(data, nf_model)
        for port in fit.ports:
            assert abs(port.c) < 5.0 * port.stderr + 1e-6

    def test_visibility_above_one_is_not_clamped(self, nf_fringe, nf_model):
        data = noisy_fringe(nf_fringe, 1.0, 1000.0, 100.0, 1)
        fit = fit_fringe(data, nf_model)
        assert any(port.visibility > 1.0 for port in fit.ports)

    def test_three_settings_fit_exactly_with_zero_stderr(self, network, nf_model):
        grid = [0.0, math.pi / 2.0, math.pi]
        ideal = phase_scan(network, NF, "f", grid)
        exact = FringeDataset(ideal.settings, ideal.values * 1e6, "counts")
        fit = fit_fringe(exact, nf_model)
        for port in fit.ports:
            assert port.visibility == pytest.approx(1.0, abs=1e-9)
            assert port.stderr == 0.0

    def test_too_few_distinct_settings(self, nf_model):
        data = FringeDataset(
            np.array([0.0, 0.0, math.pi]),
            np.array([[10, 10, 10]] * 3, dtype=np.int64),
            "counts",
        )
        with pytest.raises(DegenerateDesignError):
            fit_fringe(data, nf_model)

    def test_aliased_settings_are_degenerate(self, nf_model):
        # distinct floats that collapse onto the same (cos, sin) pairs
        data = FringeDataset(
            np.array([0.0, math.pi, 2.0 * math.pi]),
            np.array([[10, 10, 10]] * 3, dtype=np.int64),
            "counts",
        )
        with pytest.raises(DegenerateDesignError):
            fit_fringe(data, nf_model)

    def test_zero_total_counts_rejected(self, nf_model):
        data = FringeDataset(
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.zeros((4, 3), dtype=np.int64),
            "counts",
        )
        with pytest.raises(DegenerateDesignError):
            fit_fringe(data, nf_model)

    def test_requires_counts_mode(self, nf_fringe, nf_model):
        with pytest.raises(ValueError):
            fit_fringe(nf_fringe, nf_model)


class TestFringeDataset:
    def test_ideal_values_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FringeDataset(np.array([0.0]), np.array([[0.2, 0.3, 1.4]]), "ideal")

    def test_counts_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FringeDataset(np.array([0.0]), np.array([[1, -2, 3]]), "counts")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FringeDataset(np.array([0.0]), np.array([[0.1, 0.2, 0.3]]), "weird")
