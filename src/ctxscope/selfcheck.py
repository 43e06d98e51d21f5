"""Built-in diagnostic suites behind the `check` command.

Each suite verifies one structural invariant of the device model. The basis
argument exists so tests can inject a perturbed basis and confirm failures
are reported rather than silently absorbed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import interferometer
from .contexts import CONTEXTS, canonical_paths
from .core import NonOrthonormalBasisError, haar_random_states
from .reference import NAMED_STATES

IDENTITY_SUITE_STATES = 10_000
IDENTITY_SUITE_SEED = 745623
_EXPECTED_REFLECTIVITIES = (1 / 2, 1 / 3, 1 / 4, 1 / 3, 1 / 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_context_orthonormality(basis: Mapping[str, np.ndarray]) -> CheckResult:
    worst = 0.0
    worst_ctx = CONTEXTS[0]
    for ctx in CONTEXTS:
        vs = np.array([basis[label] for label in ctx])
        dev = float(np.max(np.abs(vs.conj() @ vs.T - np.eye(3))))
        if dev > worst:
            worst, worst_ctx = dev, ctx
    ok = worst <= 1e-12
    return CheckResult(
        "context orthonormality",
        ok,
        f"max Gram deviation {worst:.3e} (context {'/'.join(worst_ctx)})",
    )


def check_balanced_state_overlaps(basis: Mapping[str, np.ndarray]) -> CheckResult:
    nf = NAMED_STATES["Nf"]
    pf = abs(np.vdot(basis["f"], nf)) ** 2
    pd1 = abs(np.vdot(basis["D1"], nf)) ** 2
    pd2 = abs(np.vdot(basis["D2"], nf)) ** 2
    dev = max(abs(pf - 1 / 9), pd1, pd2)
    return CheckResult(
        "balanced-state overlaps",
        dev <= 1e-12,
        f"P(f)={pf:.15f}, P(D1)={pd1:.3e}, P(D2)={pd2:.3e}",
    )


def check_telescoping(network: interferometer.Network) -> CheckResult:
    product = np.eye(3, dtype=complex)
    for stage in network.stages:
        product = stage.transfer.matrix @ product
    dev = float(np.max(np.abs(product - np.eye(3))))
    return CheckResult("telescoping product", dev <= 1e-12, f"deviation from identity {dev:.3e}")


def check_reflectivities(network: interferometer.Network) -> CheckResult:
    actual = network.reflectivities
    dev = max(abs(a - e) for a, e in zip(actual, _EXPECTED_REFLECTIVITIES))
    listing = ", ".join(f"{r:.6f}" for r in actual)
    return CheckResult("stage reflectivities", dev <= 1e-12, f"({listing})")


def check_output_identity(network: interferometer.Network) -> CheckResult:
    """Interior witness (canonical-path overlaps) equals the output-side
    witness (outputs propagated through `network`) for random states."""
    states = haar_random_states(IDENTITY_SUITE_STATES, IDENTITY_SUITE_SEED)
    metrics = interferometer.evaluate_states(network, states)
    worst = float(np.max(np.abs(metrics["witness"] - metrics["witness_outputs"])))
    return CheckResult(
        "output-side witness identity",
        worst <= 1e-12,
        f"max |direct - from outputs| = {worst:.3e} over {IDENTITY_SUITE_STATES} random states",
    )


def run_all_checks(basis: Mapping[str, np.ndarray] | None = None) -> list[CheckResult]:
    paths = canonical_paths() if basis is None else basis
    results = [
        check_context_orthonormality(paths),
        check_balanced_state_overlaps(paths),
    ]
    try:
        network = interferometer.build_network(paths)
    except NonOrthonormalBasisError as exc:
        detail = f"network not built: {exc}"
        results.append(CheckResult("telescoping product", False, detail))
        results.append(CheckResult("stage reflectivities", False, detail))
        results.append(CheckResult("output-side witness identity", False, detail))
        return results
    results.append(check_telescoping(network))
    results.append(check_reflectivities(network))
    results.append(check_output_identity(network))
    return results
