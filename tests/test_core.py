import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxscope.core import (
    NonOrthonormalBasisError,
    TransferOperator,
    as_state,
    basis_change,
    haar_random_states,
    inner,
    norm_sq,
    normalize,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
NF = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
F = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)


def random_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


finite_parts = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=6, max_size=6
)


def vec(parts):
    return np.array([complex(parts[0], parts[1]),
                     complex(parts[2], parts[3]),
                     complex(parts[4], parts[5])])


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(E1, E1) == 1
        assert inner(E1, E2) == 0

    def test_flagged_path_overlap_with_balanced_state(self):
        assert abs(inner(F, NF)) ** 2 == pytest.approx(1 / 9, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        a = vec([1, 2, 0, -1, 0.5, 0])
        b = vec([0, 1, 1, 0, -2, 0.25])
        alpha = 0.3 - 0.7j
        assert inner(alpha * a, b) == pytest.approx(np.conj(alpha) * inner(a, b))

    def test_self_inner_is_norm_squared(self):
        a = vec([1, 2, 0, -1, 0.5, 0])
        assert abs(inner(a, a)) == pytest.approx(norm_sq(a))

    @given(finite_parts, finite_parts)
    def test_conjugate_symmetry(self, pa, pb):
        a, b = vec(pa), vec(pb)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            inner([float("nan"), 0, 0], E1)


class TestApply:
    def test_identity(self):
        ident = TransferOperator(np.eye(3))
        assert ident.matrix @ NF == pytest.approx(NF)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_preserves_norm(self, seed):
        u = TransferOperator(random_unitary(seed))
        psi = haar_random_states(1, seed + 100)[0]
        assert norm_sq(u.matrix @ psi) == pytest.approx(norm_sq(psi), abs=1e-12)

    def test_unitary_kind_rejects_nonunitary_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            TransferOperator(np.diag([1.0, 1.0, 0.0]))


class TestBasisChange:
    def test_standard_basis_gives_identity(self):
        op = basis_change([E1, E2, E3])
        assert op.matrix == pytest.approx(np.eye(3))

    def test_first_context_coordinates_of_balanced_state(self):
        d1 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
        s1 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        out = basis_change([E1, d1, s1]).matrix @ NF
        assert out == pytest.approx([1 / math.sqrt(3), 0.0, math.sqrt(2 / 3)], abs=1e-15)

    def test_middle_context_flagged_component(self):
        p1 = np.array([2.0, -1.0, 1.0]) / math.sqrt(6.0)
        s1 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        out = basis_change([F, p1, s1]).matrix @ NF
        assert abs(out[0]) ** 2 == pytest.approx(1 / 9, abs=1e-15)

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(NonOrthonormalBasisError):
            basis_change([E1, E1, E3])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(NonOrthonormalBasisError):
            basis_change([E1, E2])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_with_adjoint_is_identity(self, seed):
        rows = random_unitary(seed)
        op = basis_change(rows)
        prod = op.adjoint().matrix @ op.matrix
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12

    def test_slightly_off_rows_are_snapped_to_unitary(self):
        rows = random_unitary(3) + 5e-12
        op = basis_change(rows)
        dev = np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(3)))
        assert dev < 1e-12

    def test_conjugates_rows(self):
        rows = random_unitary(11)
        op = basis_change(rows)
        assert op.matrix == pytest.approx(rows.conj())


class TestStateHelpers:
    def test_as_state_shape_check(self):
        with pytest.raises(ValueError):
            as_state([1.0, 0.0])

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1.7e308])
    def test_normalize_huge_and_tiny_amplitudes(self, scale):
        psi = normalize(np.array([scale + scale * 1j, 0.0, -scale]))
        expected = np.array([1 + 1j, 0.0, -1.0]) / math.sqrt(3.0)
        assert np.allclose(psi, expected, rtol=0, atol=1e-15)

    def test_haar_states_are_normalized_and_reproducible(self):
        a = haar_random_states(100, 5)
        b = haar_random_states(100, 5)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a, axis=1) == pytest.approx(np.ones(100), abs=1e-12)
