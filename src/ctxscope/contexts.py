"""Path labels, measurement contexts, and the noncontextual witness.

The device is a three-rail interferometer whose five beam splitters walk the
measurement basis through five contexts, each an orthonormal triple of path
states, with consecutive contexts sharing exactly one path:

    (1, 2, 3) -> (1, D1, S1) -> (f, P1, S1) -> (f, P2, S2) -> (2, D2, S2)
    -> back to (1, 2, 3)

Input rails 1, 2, 3 double as the output rails. The seven interior labels
name the paths between splitters: f is the flagged middle path, D1/D2 are
the ports that stay dark for a balanced input, S1/S2 their bright partners,
and P1/P2 complete the two middle contexts.

A noncontextual path assignment forces P(f) <= P(D1) + P(D2), so the witness
P(f) - P(D1) - P(D2) is positive only for genuinely contextual statistics.
interferometer.evaluate_states computes it from these path vectors.

All canonical path vectors are real; signs follow the convention that the
first nonzero component is positive. Observable quantities do not depend on
these signs.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

INPUT_LABELS = ("1", "2", "3")
INTERIOR_LABELS = ("f", "D1", "D2", "S1", "S2", "P1", "P2")
PATH_LABELS = INPUT_LABELS + INTERIOR_LABELS

#: The five contexts, in propagation order. The walk ends back in the
#: input/output triple, so the context at position k = 0..5 is CONTEXTS[k % 5].
CONTEXTS: tuple[tuple[str, str, str], ...] = (
    ("1", "2", "3"),
    ("1", "D1", "S1"),
    ("f", "P1", "S1"),
    ("f", "P2", "S2"),
    ("2", "D2", "S2"),
)


_R2 = math.sqrt(2.0)
_R3 = math.sqrt(3.0)
_R6 = math.sqrt(6.0)

_COMPONENTS: dict[str, tuple[float, float, float]] = {
    "1": (1.0, 0.0, 0.0),
    "2": (0.0, 1.0, 0.0),
    "3": (0.0, 0.0, 1.0),
    "D1": (0.0, 1.0 / _R2, -1.0 / _R2),
    "S1": (0.0, 1.0 / _R2, 1.0 / _R2),
    "f": (1.0 / _R3, 1.0 / _R3, -1.0 / _R3),
    "P1": (2.0 / _R6, -1.0 / _R6, 1.0 / _R6),
    "S2": (1.0 / _R2, 0.0, 1.0 / _R2),
    "D2": (1.0 / _R2, 0.0, -1.0 / _R2),
    "P2": (1.0 / _R6, -2.0 / _R6, -1.0 / _R6),
}


def _freeze(components: dict[str, tuple[float, float, float]]) -> Mapping[str, np.ndarray]:
    out = {}
    for label, parts in components.items():
        vec = np.asarray(parts, dtype=complex)
        vec.setflags(write=False)
        out[label] = vec
    return MappingProxyType(out)


_CANONICAL = _freeze(_COMPONENTS)


def canonical_paths() -> Mapping[str, np.ndarray]:
    """Read-only map from path label to its state vector in input coordinates."""
    return _CANONICAL
