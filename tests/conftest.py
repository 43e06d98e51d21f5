import numpy as np
import pytest

from ctxscope import build_network, canonical_paths


@pytest.fixture(scope="session")
def network():
    return build_network()


@pytest.fixture(scope="session")
def witness_matrix() -> np.ndarray:
    """The witness observable: the projector on f minus those on D1 and D2."""
    paths = canonical_paths()
    return sum(sign * np.outer(paths[label], paths[label].conj())
               for sign, label in ((1, "f"), (-1, "D1"), (-1, "D2"))).real
