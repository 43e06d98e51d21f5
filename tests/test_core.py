import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxscope.contexts import INPUT_LABELS, canonical_paths
from ctxscope.core import (
    as_state,
    basis_change,
    haar_state_blocks,
    normalize,
    real_grid_blocks,
)
from ctxscope.interferometer import Stage, evaluate_states

from conftest import haar_form_tail, haar_states, real_amplitude_grid

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


def inner(a, b) -> complex:
    """Overlap of two states coerced by as_state, conjugate-linear in a."""
    return complex(np.vdot(as_state(a), as_state(b)))


def norm_sq(state) -> float:
    return float(np.linalg.norm(as_state(state)) ** 2)


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
    """A stage's transfer is its checked, read-only unitary."""

    def test_identity(self):
        ident = Stage(INPUT_LABELS, np.eye(3))
        assert ident.transfer @ NF == pytest.approx(NF)
        assert not ident.transfer.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_preserves_norm(self, seed):
        u = Stage(INPUT_LABELS, random_unitary(seed))
        psi = haar_states(1, seed + 100)[0]
        assert norm_sq(u.transfer @ psi) == pytest.approx(norm_sq(psi), abs=1e-12)

    @pytest.mark.parametrize("matrix", [np.eye(2), np.eye(4), np.eye(3)[0]], ids=["2x2", "4x4", "a row"])
    def test_rejects_a_matrix_that_is_not_3x3(self, matrix):
        with pytest.raises(ValueError, match=re.escape(f"transfer matrix must be 3x3, got {matrix.shape}")):
            Stage(INPUT_LABELS, matrix)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_entry(self, entry):
        matrix = np.eye(3, dtype=complex)
        matrix[1, 2] = entry
        with pytest.raises(ValueError, match="transfer matrix entries must be finite"):
            Stage(INPUT_LABELS, matrix)

    @pytest.mark.parametrize("basis", [("1", "D1", "S1", "f"), ("1", "D1", "D1"), ("1", "D1"), ("1", "2", "X")])
    def test_rejects_a_basis_that_is_not_three_distinct_path_labels(self, basis):
        with pytest.raises(ValueError, match=re.escape(f"stage basis must be 3 distinct path labels, got {basis!r}")):
            Stage(basis, np.eye(3))

    def test_unitary_kind_rejects_nonunitary_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            Stage(INPUT_LABELS, np.diag([1.0, 1.0, 0.0]))


class TestBasisChange:
    def test_standard_basis_gives_identity(self):
        op = basis_change([E1, E2, E3])
        assert op == pytest.approx(np.eye(3))

    def test_first_context_coordinates_of_balanced_state(self):
        d1 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
        s1 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        out = basis_change([E1, d1, s1]) @ NF
        assert out == pytest.approx([1 / math.sqrt(3), 0.0, math.sqrt(2 / 3)], abs=1e-15)

    def test_middle_context_flagged_component(self):
        p1 = np.array([2.0, -1.0, 1.0]) / math.sqrt(6.0)
        s1 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        out = basis_change([F, p1, s1]) @ NF
        assert abs(out[0]) ** 2 == pytest.approx(1 / 9, abs=1e-15)

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(ValueError, match="rows deviate from orthonormality by"):
            basis_change([E1, E1, E3])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="need 3 rows, got 2"):
            basis_change([E1, E2])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_with_adjoint_is_identity(self, seed):
        rows = random_unitary(seed)
        op = basis_change(rows)
        prod = op.conj().T @ op
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12

    def test_slightly_off_rows_are_snapped_to_unitary(self):
        rows = random_unitary(3) + 5e-12
        op = basis_change(rows)
        dev = np.max(np.abs(op.conj().T @ op - np.eye(3)))
        assert dev < 1e-12

    def test_conjugates_rows(self):
        rows = random_unitary(11)
        op = basis_change(rows)
        assert op == pytest.approx(rows.conj())


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

    @pytest.mark.parametrize("amps, unit", [
        ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1e-310j, 0.0, 0.0], [1j, 0.0, 0.0]),
        ([5e-324, 0.0, -5e-324j], [2 ** -0.5, 0.0, -(2 ** -0.5) * 1j]),
    ])
    def test_normalize_subnormal_amplitudes(self, amps, unit):
        assert np.array_equal(normalize(np.array(amps)), normalize(np.array(unit)))

    def test_haar_states_are_normalized_and_reproducible(self):
        a = haar_states(100, 5)
        b = haar_states(100, 5)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a, axis=1) == pytest.approx(np.ones(100), abs=1e-12)


class TestStateBlocks:
    """The block generators behind the streaming sweep give exactly the rows
    of one whole-array computation, written out here as the reference."""

    @pytest.mark.parametrize("count, block", [(1, 1), (10, 3), (1000, 64), (70_000, 65_536)])
    def test_haar_blocks_equal_one_draw(self, count, block):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
        whole = z / np.linalg.norm(z, axis=1, keepdims=True)
        blocks = list(haar_state_blocks(count, 11, block))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= block
        assert np.array_equal(np.concatenate(blocks), whole)
        assert np.array_equal(haar_states(count, 11), whole)

    @pytest.mark.parametrize("resolution, block", [(2, 3), (7, 5), (300, 7_001), (300, 65_536)])
    def test_real_grid_blocks_equal_meshgrid(self, resolution, block):
        axis = np.linspace(0.0, math.pi / 2.0, resolution)
        alphas, betas = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        states = np.column_stack([np.sin(alphas) * np.cos(betas), np.sin(alphas) * np.sin(betas),
                                  np.cos(alphas)]).astype(complex)
        blocks = list(real_grid_blocks(resolution, block))
        assert max(len(b[0]) for b in blocks) <= block
        streamed = [np.concatenate(parts) for parts in zip(*blocks)]
        for got, whole, want in zip(streamed, real_amplitude_grid(resolution), (alphas, betas, states)):
            assert np.array_equal(got, want)
            assert np.array_equal(whole, want)

    def test_empty_sources_keep_their_shapes(self):
        assert haar_states(0, 1).shape == (0, 3)
        assert [a.shape for a in real_amplitude_grid(0)] == [(0,), (0,), (0, 3)]


class TestHaarLaw:
    """haar_state_blocks draws the exact Haar law: the values of each form
    psi^dagger A psi on 10^5 states are Kolmogorov-Smirnov close to its exact
    CDF, 1 - haar_form_tail, at level ALPHA (the DKW bound, no scipy)."""

    COUNT, SEED, ALPHA = 100_000, 2024, 1e-3

    @pytest.fixture(scope="class")
    def draw(self):
        return haar_states(self.COUNT, self.SEED)

    @pytest.fixture(scope="class")
    def forms(self, network, witness_matrix, draw):
        """Each form's 3x3 matrix, and its values on the draw as evaluate_states gives them."""
        values = evaluate_states(network, draw)
        paths = canonical_paths()
        q = np.eye(3) - np.outer(paths["f"], paths["f"].conj())  # f blocked; the free network is I
        rail = [np.diag(row).astype(complex) for row in np.eye(3)]
        return {
            "witness": (witness_matrix, values["witness"]),
            "gain(f, 3)": (q @ rail[2] @ q - rail[2], values["gain"]),
            "blocked 1 - free 3": (q @ rail[0] @ q - rail[2], values["blocked"][:, 0] - values["free"][:, 2]),
            "mean free port": (np.diag([0.0, 1.0, 2.0]), values["free"] @ [0.0, 1.0, 2.0]),
        }

    def test_exact_tails_at_zero(self, forms):
        assert haar_form_tail(np.linalg.eigvalsh(forms["witness"][0]), 0.0) == pytest.approx(
            (7 - math.sqrt(33)) / (11 + math.sqrt(33)), abs=1e-12)
        assert haar_form_tail(np.linalg.eigvalsh(forms["gain(f, 3)"][0]), 0.0) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("name", ["witness", "gain(f, 3)", "blocked 1 - free 3", "mean free port"])
    def test_forms_follow_their_exact_law(self, draw, forms, name):
        matrix, values = forms[name]
        head = draw[:100]
        assert np.einsum("ni,ij,nj->n", head.conj(), matrix, head).real == pytest.approx(values[:100], abs=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.min(np.diff(eigenvalues)) > 0.1
        x = np.sort(values)
        cdf = 1.0 - haar_form_tail(eigenvalues, x)
        n = x.size
        distance = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert distance < math.sqrt(math.log(2 / self.ALPHA) / 2) / math.sqrt(n)
