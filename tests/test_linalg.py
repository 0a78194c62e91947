import numpy as np
import pytest

from nptsub import errors, linalg


def random_hermitian(d, rng):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (A + A.conj().T) / 2


class TestEigh:
    def test_identity(self):
        spec = linalg.eigh(np.eye(2, dtype=complex))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0], atol=0)

    def test_flip(self):
        # [[0,1],[1,0]] has eigenvalues -1, +1 by symmetry
        spec = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5, 9, 16, 40, 169])
    def test_residual_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        A = random_hermitian(d, rng)
        spec = linalg.eigh(A)
        scale = max(1.0, np.linalg.norm(A))
        V, w = spec.eigenvectors, spec.eigenvalues
        assert np.all(np.diff(w) >= 0)
        for k in range(d):
            assert np.linalg.norm(A @ V[:, k] - w[k] * V[:, k]) <= 1e-11 * scale
        assert np.linalg.norm(V.conj().T @ V - np.eye(d)) <= 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        V = linalg.eigh(random_hermitian(7, rng)).eigenvectors
        for k in range(7):
            pivot = V[np.abs(V[:, k]).argmax(), k]
            assert pivot.real > 0
            assert pivot.imag == 0

    def test_phase_fix_matches_column_loop(self):
        # reference: the phase convention applied one column at a time;
        # the vectorized form may differ by rounding only
        rng = np.random.default_rng(6)
        for d in (2, 7, 30):
            _, V = np.linalg.eigh(random_hermitian(d, rng))
            ref = V.copy()
            for k in range(d):
                i = np.abs(ref[:, k]).argmax()
                ref[:, k] *= ref[i, k].conjugate() / abs(ref[i, k])
                ref[i, k] = ref[i, k].real
            assert np.allclose(linalg._fix_phases(V), ref, rtol=0, atol=1e-15)

    def test_deterministic(self):
        A = random_hermitian(8, np.random.default_rng(3))
        s1, s2 = linalg.eigh(A), linalg.eigh(A.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_bundled_state_is_psd(self):
        from nptsub.cli import load_matrix, paper_fixture_path

        mat, _, _ = load_matrix(paper_fixture_path())
        assert linalg.eigh(mat).eigenvalues[0] >= -1e-10

    def test_not_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square(self):
        with pytest.raises(errors.ShapeMismatch):
            linalg.eigh(np.zeros((2, 3), dtype=complex))

    def test_empty_matrix(self):
        spec = linalg.eigh(np.zeros((0, 0)))
        assert spec.eigenvalues.shape == (0,)
        assert spec.eigenvectors.shape == (0, 0)
        assert linalg.eigvalsh(np.zeros((0, 0))).shape == (0,)


class TestHermiticity:
    def test_stack_checks_each_matrix(self):
        rng = np.random.default_rng(6)
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        stack[2, 0, 1] += 1e-6
        assert linalg.is_hermitian(stack).tolist() == [True, True, False, True]
        defects = linalg.hermiticity_defect(stack)
        assert defects.shape == (4,)
        for A, defect in zip(stack, defects):
            assert linalg.hermiticity_defect(A) == defect
            assert linalg.is_hermitian(A) is bool(defect == 0)

    def test_non_square_and_empty(self):
        assert linalg.is_hermitian(np.ones(3)) is False
        assert linalg.is_hermitian(np.ones((2, 3, 4))) is False
        assert linalg.is_hermitian(np.zeros((0, 0))) is True
        assert linalg.hermiticity_defect(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


class TestProjectPsd:
    """``_clamp_psd``, the PSD projection every solve uses."""

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = G @ G.conj().T
        assert np.linalg.norm(linalg._clamp_psd(A) - A) <= 1e-10

    def test_clamps_negative_eigenvalue(self):
        A = np.diag([-1.0, 2.0]).astype(complex)
        assert np.allclose(linalg._clamp_psd(A), np.diag([0.0, 2.0]), atol=1e-14)

    def test_difference_is_nsd(self):
        # A - proj(A) keeps only the negative spectral part
        rng = np.random.default_rng(2)
        for _ in range(100):
            A = random_hermitian(6, rng)
            diff = A - linalg._clamp_psd(A)
            assert np.linalg.eigvalsh(diff)[-1] <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = random_hermitian(5, rng)
            P1 = linalg._clamp_psd(A)
            assert np.linalg.norm(linalg._clamp_psd(P1) - P1) <= 1e-10

    def test_stack_projects_each_matrix(self):
        # one batched call: each matrix of the stack gets its own projection
        rng = np.random.default_rng(6)
        stack = np.stack([random_hermitian(4, rng) for _ in range(3)])
        out = linalg._clamp_psd(stack)
        for A, P1 in zip(stack, out):
            assert np.abs(P1 - linalg._clamp_psd(A)).max() <= 1e-12

    def test_psd_input_returns_hermitian_part(self):
        # a PSD stack is returned as it is, not rebuilt from its
        # eigendecomposition
        rng = np.random.default_rng(12)
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = linalg.hermitize(G @ G.conj().T) + 1e-3 * np.eye(5)
        assert linalg._clamp_psd(A) is A

    def test_empty_matrix_is_psd(self):
        assert linalg._clamp_psd(np.zeros((0, 0))).shape == (0, 0)


class TestKron:
    def test_identity(self):
        assert np.array_equal(
            linalg.kron(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_block_structure(self):
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        out = linalg.kron(proj0, flip)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = flip
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("j,k,m,n", [(0, 0, 2, 3), (1, 2, 2, 3), (2, 1, 3, 4)])
    def test_unit_placement(self, j, k, m, n):
        ej = np.zeros((m, m)); ej[j, j] = 1.0
        ek = np.zeros((n, n)); ek[k, k] = 1.0
        out = linalg.kron(ej, ek)
        idx = j * n + k
        expected = np.zeros((m * n, m * n))
        expected[idx, idx] = 1.0
        assert np.array_equal(out, expected)

    def test_associative(self):
        # bit-exact on integer entries (products are exact there); float
        # entries only reassociate the scalar products, so allow 1 ulp
        rng = np.random.default_rng(9)
        A, B, C = (rng.integers(-9, 10, (2, 2)).astype(float) for _ in range(3))
        assert np.array_equal(
            linalg.kron(linalg.kron(A, B), C), linalg.kron(A, linalg.kron(B, C))
        )
        A, B, C = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = linalg.kron(linalg.kron(A, B), C)
        rhs = linalg.kron(A, linalg.kron(B, C))
        assert np.allclose(lhs, rhs, rtol=4e-16, atol=0)


class TestFrobInner:
    def test_identity(self):
        for k in (2, 5, 9):
            assert linalg.frob_inner(np.eye(k), np.eye(k)) == pytest.approx(k)

    def test_projector_state_overlap_bounded(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        P = np.outer(v, v.conj())
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = G @ G.conj().T
        rho /= np.trace(rho).real
        val = linalg.frob_inner(P, rho)
        assert -1e-12 <= val <= 1 + 1e-12

    def test_singlet_idempotent_overlap(self):
        v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        P = np.outer(v, v.conj())
        assert linalg.frob_inner(P, P) == pytest.approx(1.0)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        A, B, C = (random_hermitian(4, rng) for _ in range(3))
        lhs = linalg.frob_inner(A, B + C)
        rhs = linalg.frob_inner(A, B) + linalg.frob_inner(A, C)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_hermitian_inputs_have_real_trace_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A, B = random_hermitian(5, rng), random_hermitian(5, rng)
            imag = abs(np.vdot(A, B).imag)
            assert imag <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(B)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            linalg.frob_inner(np.eye(2), np.eye(3))
