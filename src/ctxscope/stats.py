"""Phase fringes, Poisson photon counting and cosine-fringe visibility
fitting, on plain arrays: fringe gives float probabilities, draw_counts int64
counts, and fit_fringe checks the settings and (n, 3) counts it is given."""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class DegenerateDesignError(ValueError):
    """Too few usable settings to fit offset, cosine, and sine terms."""


class PortFit(NamedTuple):
    a: float           # fitted offset
    b: float           # fitted cosine coefficient
    c: float           # fitted sine coefficient
    visibility: float  # sqrt(b^2 + c^2) / model fringe amplitude
    stderr: float      # standard error of the visibility estimate


def _check_visibility(visibility: float) -> None:
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")


def _photon_budget(rate: float, duration: float) -> float:
    """rate * duration, refused unless both are positive and the product is
    finite and nonzero."""
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not duration > 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    budget = rate * duration
    if not math.isfinite(budget):
        raise ValueError(f"rate * duration must be finite, got {rate} * {duration}")
    if budget == 0.0:
        raise ValueError(f"rate * duration underflows to 0, got {rate} * {duration}")
    return budget


def draw_counts(probs: np.ndarray, rate: float, duration: float, seed: int | np.random.Generator) -> np.ndarray:
    """Exact Poisson counts with means rate * duration * probs, as int64 in the
    shape of probs, from one stream.

    The whole array comes from np.random.default_rng(seed) (PTRS, Hoermann
    1993), so different seeds give unrelated streams. default_rng returns a
    Generator seed itself: blocks drawn in turn from one give one call's counts.
    """
    probs = np.asarray(probs, dtype=float)
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    budget = _photon_budget(rate, duration)
    try:
        counts = np.random.default_rng(seed).poisson(budget * np.clip(probs, 0.0, 1.0))
    except ValueError as exc:  # NumPy refuses means whose counts would not fit in int64
        raise ValueError(f"rate * duration = {budget:g} is too large to count in int64") from exc
    # a 0-d probability gives a Python int
    return np.asarray(counts, dtype=np.int64)


def fringe(
    settings: Sequence[float] | np.ndarray,
    coefficients: tuple[np.ndarray, np.ndarray, np.ndarray],
    visibility: float,
) -> np.ndarray:
    """Port probabilities, float of shape (n, 3), of a phase fringe degraded to
    visibility V at the n settings.

    coefficients holds each port's (a, b, c) of the ideal curve
    a + b cos(phi) + c sin(phi), as interferometer.fringe_coefficients gives
    them. The probability at each setting is a + V (b cos(phi) + c sin(phi));
    V = 1 gives the ideal scan, and draw_counts turns either into counts.
    """
    settings = np.asarray(settings, dtype=float)
    if settings.ndim != 1:
        raise ValueError(f"phase grid must be one-dimensional, got shape {settings.shape}")
    if settings.size == 0:
        raise ValueError("phase grid must be nonempty")
    if not np.all(np.isfinite(settings)):
        raise ValueError("phase settings must be finite")
    _check_visibility(visibility)
    a, b, c = (np.asarray(v, dtype=float) for v in coefficients)
    # (V b) cos + (V c) sin: with c = 0 (real states) these are bit for bit
    # the two-term model a + V b cos(phi), and V = 1 leaves b and c unscaled
    return a + visibility * b * np.cos(settings)[:, None] + visibility * c * np.sin(settings)[:, None]


def fit_fringe(
    settings: Sequence[float] | np.ndarray,
    counts: np.ndarray,
    coefficients: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[PortFit, PortFit, PortFit]:
    """Least-squares fringe fit of normalized counts on {1, cos, sin}, one
    PortFit per output port.

    settings holds the n control parameters in radians and counts the (n, 3)
    per-port counts at them: finite and non-negative, integers when drawn by
    the sampler or real-valued, e.g. exactly scaled probabilities. Counts are
    normalized per setting by the total across the three ports, which removes
    rate drift and any overall scale. coefficients holds the model's per-port
    (a, b, c), as for fringe. The visibility for port i is the fitted
    sqrt(b^2 + c^2) over the model's |b_i + i c_i|, with its standard error
    propagated from the residual variance; values above 1 are reported as-is.
    A model amplitude below 1e-12, the rounding residue that a port with no
    fringe is left with, is refused as zero.
    """
    phi = np.asarray(settings, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phi.ndim != 1 or counts.shape != (phi.size, 3):
        raise ValueError(f"settings of shape (n,) need counts of shape (n, 3), "
                         f"got {phi.shape} and {counts.shape}")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(counts))):
        raise ValueError("settings and counts must be finite")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    _, model_b, model_c = coefficients
    amplitudes = np.hypot(model_b, model_c)
    if amplitudes.shape != (3,):
        raise ValueError("model must give a fringe amplitude for each of the three ports")
    n = phi.size
    # not np.unique, which imports numpy.ma in NumPy 2; -0.0 and 0.0 count as one setting
    if np.count_nonzero(np.diff(np.sort(phi))) + 1 < 3:
        raise DegenerateDesignError("need at least 3 distinct settings")
    with np.errstate(over="ignore"):
        totals = counts.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateDesignError("every setting needs a positive total count")
    if not np.all(np.isfinite(totals)):
        raise DegenerateDesignError("every setting needs a finite total count")
    y = counts / totals[:, None]
    design = np.column_stack([np.ones(n), np.cos(phi), np.sin(phi)])
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < 3:
        raise DegenerateDesignError("settings do not span offset, cosine, and sine terms")
    gram_inv = np.linalg.inv(gram)
    ports = []
    for i in range(3):
        model_amp = float(amplitudes[i])
        if not model_amp >= 1e-12:
            raise ValueError(f"model fringe amplitude for port {i + 1} must be positive")
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
        ports.append(PortFit(a, b, c, amp / model_amp, math.sqrt(max(amp_var, 0.0)) / model_amp))
    return tuple(ports)
