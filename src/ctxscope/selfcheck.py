"""Built-in diagnostic suites behind the `check` command.

Each suite verifies one structural invariant of the device model. The basis
argument exists so tests can inject a perturbed basis and confirm failures
are reported rather than silently absorbed.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from . import interferometer
from .contexts import CONTEXTS, canonical_paths
from .reference import NAMED_STATES

_EXPECTED_REFLECTIVITIES = (1 / 2, 1 / 3, 1 / 4, 1 / 3, 1 / 2)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_context_orthonormality(basis: Mapping[str, np.ndarray]) -> tuple[bool, str]:
    devs = []
    for ctx in CONTEXTS:
        vs = np.array([basis[label] for label in ctx])
        devs.append(float(np.max(np.abs(vs.conj() @ vs.T - np.eye(3)))))
    # the first largest deviation, or the first NaN, which then fails the suite
    worst = int(np.argmax(devs))
    return devs[worst] <= 1e-12, f"max Gram deviation {devs[worst]:.3e} (context {'/'.join(CONTEXTS[worst])})"


def check_balanced_state_overlaps(basis: Mapping[str, np.ndarray]) -> tuple[bool, str]:
    nf = NAMED_STATES["Nf"]
    pf, pd1, pd2 = (abs(np.vdot(basis[label], nf)) ** 2 for label in ("f", "D1", "D2"))
    dev = float(np.max([abs(pf - 1 / 9), pd1, pd2]))  # NaN, unlike max(), carries through
    return dev <= 1e-12, f"P(f)={pf:.15f}, P(D1)={pd1:.3e}, P(D2)={pd2:.3e}"


def check_telescoping(network: interferometer.Network) -> tuple[bool, str]:
    dev = float(np.max(np.abs(network.product - np.eye(3))))
    return dev <= interferometer.IDENTITY_ATOL, f"deviation from identity {dev:.3e}"


def check_reflectivities(network: interferometer.Network) -> tuple[bool, str]:
    actual = network.reflectivities
    dev = max(abs(a - e) for a, e in zip(actual, _EXPECTED_REFLECTIVITIES))
    listing = ", ".join(f"{r:.6f}" for r in actual)
    return dev <= 1e-12, f"({listing})"


def check_output_identity(network: interferometer.Network) -> tuple[bool, str]:
    """Interior witness (canonical-path overlaps) equals the output-side
    witness (outputs propagated through `network`) for every state: both are
    Hermitian forms psi^H A psi, and such a form on C^3 is fixed by its values
    on e_i, (e_i + e_j)/sqrt(2) and (e_i + i e_j)/sqrt(2)."""
    eye, pairs = np.eye(3), ((0, 1), (0, 2), (1, 2))
    states = np.array([*eye, *((eye[i] + phase * eye[j]) / np.sqrt(2) for phase in (1, 1j) for i, j in pairs)])
    metrics = interferometer.evaluate_states(network, states)
    worst = float(np.max(np.abs(metrics["witness"] - metrics["witness_outputs"])))
    return worst <= 1e-12, f"max |direct - from outputs| = {worst:.3e} over {len(states)} form-fixing states"


# Each suite's name and check, in report order: those of the path basis, then
# those of the network built from it.
BASIS_SUITES = (
    ("context orthonormality", check_context_orthonormality),
    ("balanced-state overlaps", check_balanced_state_overlaps),
)
NETWORK_SUITES = (
    ("telescoping product", check_telescoping),
    ("stage reflectivities", check_reflectivities),
    ("output-side witness identity", check_output_identity),
)


def run_all_checks(basis: Mapping[str, np.ndarray] | None = None) -> list[CheckResult]:
    """One CheckResult per suite. A basis the network cannot be built from
    (not orthonormal, or not finite) fails every network suite."""
    paths = canonical_paths() if basis is None else basis
    results = [CheckResult(name, *check(paths)) for name, check in BASIS_SUITES]
    try:
        network = interferometer.build_network(paths)
    except ValueError as exc:
        return results + [CheckResult(name, False, f"network not built: {exc}") for name, _ in NETWORK_SUITES]
    return results + [CheckResult(name, *check(network)) for name, check in NETWORK_SUITES]
