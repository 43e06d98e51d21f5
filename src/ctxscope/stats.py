"""Poisson photon-counting simulation and cosine-fringe visibility fitting."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

#: Counts are Poisson-sampled by CDF inversion below this mean and by a
#: normal approximation with continuity correction above it.
_INVERSION_MEAN_LIMIT = 30.0


class InvalidRateError(ValueError):
    pass


class InvalidDurationError(ValueError):
    pass


class VisibilityOutOfRangeError(ValueError):
    pass


class DegenerateDesignError(ValueError):
    """Too few usable settings to fit offset, cosine, and sine terms."""


@dataclass(frozen=True)
class FringeDataset:
    """Per-setting port values from a scan.

    mode "ideal" holds probabilities in [0, 1]; mode "counts" holds detected
    photon counts (integers when produced by the samplers; the fitter also
    accepts real-valued counts, e.g. exactly scaled probabilities).
    """

    settings: np.ndarray  # (n,) control parameter, radians
    values: np.ndarray    # (n, 3) per-port probabilities or counts
    mode: str             # "ideal" | "counts"
    rate: float | None = None
    duration: float | None = None

    def __post_init__(self) -> None:
        settings = np.asarray(self.settings, dtype=float).reshape(-1)
        values = np.asarray(self.values)
        if self.mode == "ideal":
            values = values.astype(float)
        if values.shape != (settings.size, 3):
            raise ValueError(f"values must have shape ({settings.size}, 3), got {values.shape}")
        if settings.size == 0:
            raise ValueError("dataset needs at least one setting")
        if self.mode == "ideal":
            if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
                raise ValueError("ideal-mode values must be probabilities in [0, 1]")
        elif self.mode == "counts":
            if np.any(np.asarray(values, dtype=float) < 0):
                raise ValueError("counts must be non-negative")
        else:
            raise ValueError(f"unknown dataset mode: {self.mode!r}")
        settings.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.settings.size)


class CountRecord(NamedTuple):
    counts: tuple[int, int, int]
    setting: float
    seed: int


class PortFit(NamedTuple):
    a: float           # fitted offset
    b: float           # fitted cosine coefficient
    c: float           # fitted sine coefficient (zero up to noise for these models)
    visibility: float  # sqrt(b^2 + c^2) / |model cosine coefficient|
    stderr: float      # standard error of the visibility estimate


@dataclass(frozen=True)
class FitResult:
    ports: tuple[PortFit, PortFit, PortFit]

    @property
    def visibilities(self) -> tuple[float, float, float]:
        return tuple(p.visibility for p in self.ports)


def _poisson_count(mean: float, u: float) -> int:
    """One Poisson draw from a uniform variate u in [0, 1)."""
    if mean <= 0.0:
        return 0
    if mean < _INVERSION_MEAN_LIMIT:
        term = math.exp(-mean)
        cdf = term
        k = 0
        # mean < 30 so the tail is exhausted long before the cap
        cap = int(mean + 40.0 * math.sqrt(mean) + 60.0)
        while u > cdf and k < cap:
            k += 1
            term *= mean / k
            cdf += term
        return k
    x = mean + math.sqrt(mean) * float(ndtri(u)) + 0.5
    if x <= 0.0:
        return 0
    return int(x)


def sample_counts(
    dist: Sequence[float],
    rate: float,
    duration: float,
    seed: int,
    setting: float = 0.0,
) -> CountRecord:
    """Poisson counts for one detection run at the given port probabilities.

    Each port's count is drawn with mean rate * duration * p. Identical
    (dist, rate, duration, seed) always reproduce identical counts.
    """
    if not rate > 0.0:
        raise InvalidRateError(f"rate must be positive, got {rate}")
    if not duration > 0.0:
        raise InvalidDurationError(f"duration must be positive, got {duration}")
    if not math.isfinite(rate * duration):
        raise InvalidRateError(f"rate * duration must be finite, got {rate} * {duration}")
    probs = np.clip(np.asarray(tuple(dist), dtype=float).reshape(-1), 0.0, 1.0)
    if probs.size != 3:
        raise ValueError("distribution must have three port probabilities")
    rng = np.random.default_rng(seed)
    counts = tuple(_poisson_count(rate * duration * p, float(rng.random())) for p in probs)
    return CountRecord(counts, float(setting), int(seed))


def sample_dataset(ideal: FringeDataset, rate: float, duration: float, seed: int) -> FringeDataset:
    """Poisson-sample every point of an ideal scan, one derived seed per setting."""
    if ideal.mode != "ideal":
        raise ValueError("sample_dataset needs an ideal-mode dataset")
    rows = [
        sample_counts(ideal.values[j], rate, duration, seed + j, setting=ideal.settings[j]).counts
        for j in range(len(ideal))
    ]
    return FringeDataset(ideal.settings, np.asarray(rows, dtype=np.int64), "counts", rate, duration)


def _endpoint_coefficients(dataset: FringeDataset) -> tuple[np.ndarray, np.ndarray]:
    """Offset and cosine amplitude per port, read off the 0 and pi settings."""
    settings = dataset.settings
    at_zero = np.flatnonzero(np.abs(settings) <= 1e-9)
    at_pi = np.flatnonzero(np.abs(settings - math.pi) <= 1e-9)
    if at_zero.size == 0 or at_pi.size == 0:
        raise ValueError("dataset must contain settings 0 and pi to extract fringe coefficients")
    p0 = dataset.values[at_zero[0]].astype(float)
    ppi = dataset.values[at_pi[0]].astype(float)
    return (p0 + ppi) / 2.0, (p0 - ppi) / 2.0


def noisy_fringe(
    ideal: FringeDataset,
    visibility: float,
    rate: float,
    duration: float,
    seed: int,
) -> FringeDataset:
    """Degrade an ideal phase fringe to visibility V and Poisson-sample it.

    Per port the ideal curve a + b cos(phi), with a and b taken exactly from
    the dataset's 0 and pi settings, is replaced by a + V b cos(phi) before
    sampling. Setting j uses seed + j so points can be drawn independently.
    """
    if ideal.mode != "ideal":
        raise ValueError("noisy_fringe needs an ideal-mode dataset")
    if not 0.0 <= visibility <= 1.0:
        raise VisibilityOutOfRangeError(f"visibility must lie in [0, 1], got {visibility}")
    offs, amps = _endpoint_coefficients(ideal)
    means = offs[None, :] + visibility * amps[None, :] * np.cos(ideal.settings)[:, None]
    means = np.clip(means, 0.0, 1.0)
    rows = [
        sample_counts(means[j], rate, duration, seed + j, setting=ideal.settings[j]).counts
        for j in range(len(ideal))
    ]
    return FringeDataset(ideal.settings, np.asarray(rows, dtype=np.int64), "counts", rate, duration)


def fit_fringe(data: FringeDataset, model: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fringe fit of normalized counts on {1, cos, sin}.

    Counts are normalized per setting by the total across the three ports,
    which removes rate drift and any overall scale. The visibility for port i
    is sqrt(b^2 + c^2) / |b_model_i| with its standard error propagated from
    the residual variance; values above 1 are reported as-is.
    """
    if data.mode != "counts":
        raise ValueError("fit_fringe needs a counts-mode dataset")
    if len(model) != 3:
        raise ValueError("model must give (offset, cosine) coefficients for all three ports")
    phi = data.settings
    n = phi.size
    if np.unique(phi).size < 3:
        raise DegenerateDesignError("need at least 3 distinct settings")
    counts = np.asarray(data.values, dtype=float)
    totals = counts.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateDesignError("every setting needs a positive total count")
    y = counts / totals[:, None]
    design = np.column_stack([np.ones(n), np.cos(phi), np.sin(phi)])
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < 3:
        raise DegenerateDesignError("settings do not span offset, cosine, and sine terms")
    gram_inv = np.linalg.inv(gram)
    ports = []
    for i in range(3):
        b_model = float(model[i][1])
        if b_model == 0.0:
            raise ValueError(f"model cosine coefficient for port {i + 1} must be nonzero")
        coef, *_ = np.linalg.lstsq(design, y[:, i], rcond=None)
        a, b, c = (float(v) for v in coef)
        resid = y[:, i] - design @ coef
        dof = n - 3
        sigma_sq = float(resid @ resid) / dof if dof > 0 else 0.0
        cov = sigma_sq * gram_inv
        amp = math.hypot(b, c)
        if amp > 0.0:
            grad = np.array([b, c]) / amp
            amp_var = float(grad @ cov[1:, 1:] @ grad)
        else:
            amp_var = float(cov[1, 1])
        ports.append(PortFit(a, b, c, amp / abs(b_model), math.sqrt(max(amp_var, 0.0)) / abs(b_model)))
    return FitResult(tuple(ports))
