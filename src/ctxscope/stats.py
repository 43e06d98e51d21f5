"""Phase fringes, Poisson photon counting and cosine-fringe visibility
fitting, on plain arrays: fringe gives float probabilities, draw_counts int64
counts, and fit_fringe checks and folds the (settings, counts) blocks it is given."""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

FOLD_ROWS = 1024  # rows per QR of fit_fringe's fold: so few that OpenBLAS wakes no worker thread


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
    blocks: Iterable[tuple[Sequence[float] | np.ndarray, np.ndarray]],
    coefficients: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, tuple[PortFit, PortFit, PortFit]]:
    """Least-squares fringe fit of normalized counts on {1, cos, sin}: the
    number of settings, and one PortFit per output port.

    blocks yields (settings, counts) pairs, one pair for arrays: n control
    parameters in radians and the (n, 3) per-port counts at them, finite and
    non-negative, integers or real-valued. Counts are normalized per setting
    by their total, which removes rate drift and any overall scale.
    coefficients holds the model's per-port (a, b, c), as for fringe. The
    visibility for port i is the fitted sqrt(b^2 + c^2) over the model's
    |b_i + i c_i|, with its standard error propagated from the residual
    variance; values above 1 are reported as-is. A model amplitude below
    1e-12, the rounding residue that a port with no fringe is left with, is
    refused as zero, and so is a model without three ports, before any block
    is read. Only the triangular factor R of the rows
    [1, cos, sin, y1, y2, y3] is kept, folded block by block (TSQR).
    """
    _, model_b, model_c = coefficients
    amplitudes = np.hypot(model_b, model_c)
    if amplitudes.shape != (3,):
        raise ValueError("model must give a fringe amplitude for each of the three ports")
    for i, model_amp in enumerate(amplitudes):
        if not model_amp >= 1e-12:
            raise ValueError(f"model fringe amplitude for port {i + 1} must be positive")
    r = np.zeros((0, 6))
    n, nonpositive, infinite = 0, False, False
    for settings, counts in blocks:
        phi = np.asarray(settings, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if phi.ndim != 1 or counts.shape != (phi.size, 3):
            raise ValueError(f"settings of shape (n,) need counts of shape (n, 3), "
                             f"got {phi.shape} and {counts.shape}")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(counts))):
            raise ValueError("settings and counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        with np.errstate(over="ignore"):
            totals = counts.sum(axis=1)[:, None]
        nonpositive |= not np.all(totals > 0.0)  # raised at the end, after any malformed later block
        infinite |= not np.all(np.isfinite(totals))
        y = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0.0)
        rows = np.column_stack([np.ones(phi.size), np.cos(phi), np.sin(phi), y])
        for start in range(0, phi.size, FOLD_ROWS):
            r = np.linalg.qr(np.vstack([r, rows[start:start + FOLD_ROWS]]), mode="r")
        n += phi.size
    r11 = r[:3, :3]
    # the rank of R11^T R11 = X^T X, with matrix_rank's tolerance on that Gram matrix
    if np.linalg.matrix_rank(r11.T @ r11) < 3:
        raise DegenerateDesignError("settings do not span offset, cosine, and sine terms")
    if nonpositive:
        raise DegenerateDesignError("every setting needs a positive total count")
    if infinite:
        raise DegenerateDesignError("every setting needs a finite total count")
    # R11 gives the coefficients and their covariance; a port's residual norm is its column of R below row 3
    coef = np.linalg.solve(r11, r[:3, 3:])  # column i holds port i's (a, b, c)
    r11_inv = np.linalg.inv(r11)
    ports = []
    for i in range(3):
        model_amp = float(amplitudes[i])
        a, b, c = (float(v) for v in coef[:, i])
        sigma = float(np.linalg.norm(r[3:, 3 + i])) / math.sqrt(n - 3) if n > 3 else 0.0
        amp = math.hypot(b, c)
        grad = np.array([0.0, b / amp, c / amp]) if amp > 0.0 else np.array([0.0, 1.0, 0.0])
        ports.append(PortFit(a, b, c, amp / model_amp, sigma * float(np.linalg.norm(grad @ r11_inv)) / model_amp))
    return n, tuple(ports)
