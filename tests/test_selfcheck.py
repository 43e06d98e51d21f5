import numpy as np
import pytest

from ctxscope import interferometer
from ctxscope.contexts import canonical_paths
from ctxscope.selfcheck import run_all_checks


def test_fresh_build_passes_all_checks():
    results = run_all_checks()
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert names == [
        "context orthonormality",
        "balanced-state overlaps",
        "telescoping product",
        "stage reflectivities",
        "output-side witness identity",
    ]


def test_identity_suite_reports_max_deviation():
    results = run_all_checks()
    identity = next(r for r in results if r.name == "output-side witness identity")
    reported = float(identity.detail.split("=")[1].split("over")[0])
    assert reported < 1e-12


def test_perturbed_basis_is_reported_as_orthogonality_failure():
    paths = dict(canonical_paths())
    bad = paths["f"].copy()
    bad[0] += 1e-6
    paths["f"] = bad
    results = run_all_checks(basis=paths)
    ortho = next(r for r in results if r.name == "context orthonormality")
    assert not ortho.passed
    assert any(not r.passed for r in results)


def test_grossly_perturbed_basis_skips_network_suites_gracefully():
    paths = dict(canonical_paths())
    paths["f"] = np.array([1.0, 0.0, 0.0], dtype=complex)
    results = run_all_checks(basis=paths)
    assert not all(r.passed for r in results)
    telescoping = next(r for r in results if r.name == "telescoping product")
    assert not telescoping.passed


def test_nan_basis_fails_the_orthonormality_and_network_suites():
    paths = dict(canonical_paths())
    paths["P1"] = np.array([np.nan, 0.0, 0.0], dtype=complex)
    results = {r.name: r for r in run_all_checks(basis=paths)}
    assert not results["context orthonormality"].passed
    assert "max Gram deviation nan" in results["context orthonormality"].detail
    for name in ("telescoping product", "stage reflectivities", "output-side witness identity"):
        assert not results[name].passed
        assert results[name].detail == "network not built: state amplitudes must be finite"


def test_identity_suite_fails_on_an_imaginary_off_diagonal_deviation(monkeypatch):
    # psi^H D psi with D = [[0, i, 0], [-i, 0, 0], [0, 0, 0]] vanishes on every
    # real state, so only the (e_i + i e_j)/sqrt(2) states can see it
    evaluate_states = interferometer.evaluate_states
    d = np.zeros((3, 3), dtype=complex)
    d[0, 1], d[1, 0] = 1j, -1j

    def skewed(network, states):
        metrics = evaluate_states(network, states)
        form = np.einsum("ni,ij,nj->n", states.conj(), d, states).real
        return {**metrics, "witness_outputs": metrics["witness"] + 1e-9 * form}

    monkeypatch.setattr(interferometer, "evaluate_states", skewed)
    identity = next(r for r in run_all_checks() if r.name == "output-side witness identity")
    assert not identity.passed
    assert float(identity.detail.split("=")[1].split("over")[0]) == pytest.approx(1e-9, rel=1e-6)
