"""Shared fixtures, and the one-block references for the streamed state sources.

The streamed sweep reads states from haar_state_blocks and real_grid_blocks
block by block; the helpers here take the whole of either source as one
block. Test modules import them with `from conftest import ...`.
"""
import numpy as np
import pytest

from ctxscope import build_network, canonical_paths
from ctxscope.core import haar_state_blocks, real_grid_blocks


def haar_states(count: int, seed: int) -> np.ndarray:
    """(count, 3) uniformly random unit vectors: the whole draw of haar_state_blocks."""
    return next(haar_state_blocks(count, seed, max(count, 1)))


def haar_form_tail(eigenvalues, t) -> np.ndarray:
    """P(psi^dagger A psi > t) for psi uniform on the unit sphere of C^3 and a
    Hermitian A with three distinct eigenvalues, at each t.

    The squared moduli of psi in A's eigenbasis are uniform on the simplex
    (Dirichlet(1, 1, 1)), so the tail is sum_i (l_i - t)_+^2 / prod_{j != i} (l_i - l_j)."""
    lam = np.asarray(eigenvalues, dtype=float)
    spans = np.array([np.prod(np.delete(lam[i] - lam, i)) for i in range(3)])
    return np.sum(np.maximum(lam - np.asarray(t, dtype=float)[..., None], 0.0) ** 2 / spans, axis=-1)


def real_amplitude_grid(resolution: int):
    """Angles and states of the whole grid of real_grid_blocks, as one block."""
    return next(real_grid_blocks(resolution, max(resolution * resolution, 1)))


@pytest.fixture(scope="session")
def network():
    return build_network()


@pytest.fixture(scope="session")
def witness_matrix() -> np.ndarray:
    """The witness observable: the projector on f minus those on D1 and D2."""
    paths = canonical_paths()
    return sum(sign * np.outer(paths[label], paths[label].conj())
               for sign, label in ((1, "f"), (-1, "D1"), (-1, "D2"))).real
