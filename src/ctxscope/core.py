"""Complex linear algebra for three-mode states and basis changes.

Everything is dimension 3 and double precision.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

DIM = 3

# Construction tolerance for a stage's unitary; inputs to basis_change may be a bit
# sloppier (hand-entered vectors) and get snapped to the nearest unitary.
UNITARY_ATOL = 1e-12
BASIS_INPUT_ATOL = 1e-10


def as_state(values: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Coerce to a finite complex amplitude vector of length 3."""
    arr = np.asarray(values, dtype=complex).reshape(-1)
    if arr.shape != (DIM,):
        raise ValueError(f"state needs exactly {DIM} amplitudes, got shape {np.shape(values)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state amplitudes must be finite")
    return arr


def normalize(state: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Unit vector along state, scaled by its largest real or imaginary part
    first so that huge or tiny amplitudes neither overflow nor underflow.

    The real and imaginary parts are divided as reals: a complex division
    multiplies by the reciprocal of the divisor, which overflows for a
    subnormal scale."""
    arr = as_state(state)
    parts = np.stack([arr.real, arr.imag])
    scale = np.abs(parts).max()
    if scale == 0.0:
        raise ValueError("cannot normalize the zero vector")
    parts = parts / scale
    parts = parts / np.linalg.norm(parts)
    return parts[0] + 1j * parts[1]


def basis_change(rows: Sequence[Sequence[complex] | np.ndarray]) -> np.ndarray:
    """Unitary that re-expresses a state in the orthonormal basis `rows`.

    Row i of the result is the conjugate of basis vector i, so component i of
    the output is the overlap of basis vector i with the input state. Rows
    may deviate from orthonormality by up to 1e-10; anything worse raises,
    anything beyond ~1e-13 is snapped to the nearest unitary.
    """
    if len(rows) != DIM:
        raise ValueError(f"need {DIM} rows, got {len(rows)}")
    vs = np.array([as_state(r) for r in rows])
    gram = vs.conj() @ vs.T
    dev = float(np.max(np.abs(gram - np.eye(DIM))))
    if dev > BASIS_INPUT_ATOL:
        raise ValueError(f"rows deviate from orthonormality by {dev:.3e}")
    m = vs.conj()
    if dev > 1e-13:
        u, _, vh = np.linalg.svd(m)
        m = u @ vh
    return m


def haar_state_blocks(count: int, seed: int, block: int) -> Iterator[np.ndarray]:
    """count uniformly random unit vectors of length 3, reproducible by seed,
    in blocks of at most `block` rows (one empty block when count is 0).

    Two default_rng(seed) streams: one draws the real parts block by block,
    the other skips the count x 3 real parts and then draws the imaginary
    parts. NumPy draws normals one after another, so the blocks hold the
    same numbers as one whole-array draw of real parts, then imaginary parts.
    """
    real, imag = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = [min(block, count - start) for start in range(0, max(count, 1), block)]
    for rows in sizes:
        imag.standard_normal((rows, DIM))
    for rows in sizes:
        z = real.standard_normal((rows, DIM)) + 1j * imag.standard_normal((rows, DIM))
        yield z / np.linalg.norm(z, axis=1, keepdims=True)


def real_grid_blocks(
    resolution: int, block: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Angles a, b and states (sin a cos b, sin a sin b, cos a) over the first
    octant, on a resolution x resolution grid, in blocks of at most `block`
    rows (one empty block when there are none): row i has a = axis[i // resolution]
    and b = axis[i % resolution]."""
    axis = np.linspace(0.0, math.pi / 2.0, resolution)
    sin, cos = np.sin(axis), np.cos(axis)
    count = resolution * resolution
    for start in range(0, max(count, 1), block):
        index = np.arange(start, min(start + block, count))
        a, b = index // resolution, index % resolution
        states = np.column_stack([sin[a] * cos[b], sin[a] * sin[b], cos[a]]).astype(complex)
        yield axis[a], axis[b], states
