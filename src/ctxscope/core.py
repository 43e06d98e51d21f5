"""Complex linear algebra for three-mode states and transfer operators.

Everything is dimension 3 and double precision. Transfer operators are
validated as unitary once at construction instead of at every use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIM = 3

# Construction tolerance for operators; inputs to basis_change may be a bit
# sloppier (hand-entered vectors) and get snapped to the nearest unitary.
UNITARY_ATOL = 1e-12
BASIS_INPUT_ATOL = 1e-10


class NonOrthonormalBasisError(ValueError):
    """Rows handed to basis_change are not an orthonormal set."""


def as_state(values: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Coerce to a finite complex amplitude vector of length 3."""
    arr = np.asarray(values, dtype=complex).reshape(-1)
    if arr.shape != (DIM,):
        raise ValueError(f"state needs exactly {DIM} amplitudes, got shape {np.shape(values)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state amplitudes must be finite")
    return arr


def norm_sq(state: Sequence[complex] | np.ndarray) -> float:
    arr = as_state(state)
    return float(np.real(np.vdot(arr, arr)))


def normalize(state: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Unit vector along state, scaled by its largest real or imaginary part
    first so that huge or tiny amplitudes neither overflow nor underflow."""
    arr = as_state(state)
    scale = np.abs(np.stack([arr.real, arr.imag])).max()
    if scale == 0.0:
        raise ValueError("cannot normalize the zero vector")
    arr = arr / scale
    return arr / np.linalg.norm(arr)


def inner(a: Sequence[complex] | np.ndarray, b: Sequence[complex] | np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    return complex(np.vdot(as_state(a), as_state(b)))


@dataclass(frozen=True)
class TransferOperator:
    """A 3x3 transfer matrix, validated unitary (U^dag U = I to within 1e-12)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"transfer matrix must be {DIM}x{DIM}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("transfer matrix entries must be finite")
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(DIM))))
        if dev > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def adjoint(self) -> "TransferOperator":
        return TransferOperator(self.matrix.conj().T)


def basis_change(rows: Sequence[Sequence[complex] | np.ndarray]) -> TransferOperator:
    """Unitary that re-expresses a state in the orthonormal basis `rows`.

    Row i of the result is the conjugate of basis vector i, so component i of
    the output is the overlap of basis vector i with the input state. Rows
    may deviate from orthonormality by up to 1e-10; anything worse raises,
    anything beyond ~1e-13 is snapped to the nearest unitary.
    """
    if len(rows) != DIM:
        raise NonOrthonormalBasisError(f"need {DIM} rows, got {len(rows)}")
    vs = np.array([as_state(r) for r in rows])
    gram = vs.conj() @ vs.T
    dev = float(np.max(np.abs(gram - np.eye(DIM))))
    if dev > BASIS_INPUT_ATOL:
        raise NonOrthonormalBasisError(f"rows deviate from orthonormality by {dev:.3e}")
    m = vs.conj()
    if dev > 1e-13:
        u, _, vh = np.linalg.svd(m)
        m = u @ vh
    return TransferOperator(m)


def haar_random_states(count: int, seed: int) -> np.ndarray:
    """(count, 3) array of uniformly random unit vectors, reproducible by seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, DIM)) + 1j * rng.standard_normal((count, DIM))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def real_amplitude_grid(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles a, b and states (sin a cos b, sin a sin b, cos a) over the first octant."""
    axis = np.linspace(0.0, math.pi / 2.0, resolution)
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    alphas, betas = grid_a.ravel(), grid_b.ravel()
    states = np.column_stack([
        np.sin(alphas) * np.cos(betas),
        np.sin(alphas) * np.sin(betas),
        np.cos(alphas),
    ]).astype(complex)
    return alphas, betas, states
