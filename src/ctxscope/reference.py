"""Benchmark input states and published measured values for comparison.

The three named states probe the three regimes of the witness: Nf is the
balanced superposition whose interior dark ports make the noncontextual
bound read P(f) <= 0, Bf sits just on the classical side of the boundary,
and V0 lies close to the maximal violation.

MEASURED holds the values reported for the silicon-photonic demonstration
of this interferometer. They are reference constants for the `reproduce`
report only and are never used in any computation path.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np


def _state(components: tuple[float, float, float]) -> np.ndarray:
    vec = np.asarray(components, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    vec.setflags(write=False)
    return vec


NAMED_STATES: Mapping[str, np.ndarray] = MappingProxyType({
    "Nf": _state((1.0, 1.0, 1.0)),
    "Bf": _state((2.0, 2.0, 3.0)),
    "V0": _state((2.0, 2.0, 1.0)),
    "basis1": _state((1.0, 0.0, 0.0)),
    "basis2": _state((0.0, 1.0, 0.0)),
    "basis3": _state((0.0, 0.0, 1.0)),
})

#: Exact phase-fringe coefficients (offset a, cosine b) per output port when
#: the phase sits in path f. These are the theory curves the measured fringes
#: were fitted against.
FRINGE_MODELS: Mapping[str, tuple[tuple[float, float, float], tuple[float, float, float]]] = MappingProxyType({
    "Nf": ((5 / 27, 5 / 27, 17 / 27), (4 / 27, 4 / 27, -8 / 27)),
    "Bf": ((26 / 153, 26 / 153, 101 / 153), (10 / 153, 10 / 153, -20 / 153)),
    "V0": ((2 / 9, 2 / 9, 5 / 9), (2 / 9, 2 / 9, -4 / 9)),
})


class MeasuredRecord(NamedTuple):
    free: tuple[float, float, float]      # output probabilities, no absorber
    blocked: tuple[float, float, float]   # output probabilities, f blocked
    gain: float                           # measured gain at port 3
    witness: float                        # measured witness value
    visibilities: tuple[float, float, float]  # fitted fringe visibilities


MEASURED: Mapping[str, MeasuredRecord] = MappingProxyType({
    "Nf": MeasuredRecord(
        free=(0.347, 0.331, 0.322),
        blocked=(0.161, 0.144, 0.585),
        gain=0.263,
        witness=0.11,
        visibilities=(1.03, 0.93, 1.07),
    ),
    "Bf": MeasuredRecord(
        free=(0.238, 0.243, 0.518),
        blocked=(0.144, 0.165, 0.638),
        gain=0.120,
        witness=-0.04,
        visibilities=(0.93, 1.01, 1.21),
    ),
    "V0": MeasuredRecord(
        free=(0.465, 0.452, 0.083),
        blocked=(0.125, 0.119, 0.419),
        gain=0.336,
        witness=0.214,
        visibilities=(0.98, 0.92, 1.07),
    ),
})
