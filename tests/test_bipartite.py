import numpy as np
import pytest

from nptsub import (
    BipartiteDims,
    DensityMatrix,
    Ensemble,
    bipartite,
    count_negative_eigenvalues,
    errors,
    is_ppt,
    kron,
    partial_transpose,
    random_density_matrix,
    realign,
    unrealign,
)

D22 = BipartiteDims(2, 2)
D34 = BipartiteDims(3, 4)


def singlet_state():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(D22, np.outer(v, v.conj()))


def maximally_entangled_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(D22, np.outer(v, v.conj()))


class TestDims:
    def test_counts(self):
        assert D34.total == 12
        assert D34.npt_dim == 6
        assert BipartiteDims(1, 5).npt_dim == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            BipartiteDims(0, 2)


class TestPartialTranspose:
    def test_matrix_unit(self):
        # |0><1| (x) |0><1|  ->  |0><1| (x) |1><0|
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        out = partial_transpose(kron(e01, e01), D22)
        assert np.array_equal(out, kron(e01, e01.T))

    def test_diagonal_fixed(self):
        diag = np.diag(np.arange(1.0, 13.0)).astype(complex)
        assert np.array_equal(partial_transpose(diag, D34), diag)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        assert np.array_equal(partial_transpose(partial_transpose(A, D34), D34), A)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        A = (A + A.conj().T) / 2
        B = partial_transpose(A, D34)
        assert np.trace(B) == np.trace(A)
        assert np.array_equal(B, B.conj().T)
        assert np.linalg.norm(B) == pytest.approx(np.linalg.norm(A), rel=1e-15)

    def test_entry_permutation_definition(self):
        rng = np.random.default_rng(2)
        m, n = 3, 4
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        B = partial_transpose(A, D34)
        for i in range(m):
            for j in range(m):
                for k in range(n):
                    for ell in range(n):
                        assert B[i * n + k, j * n + ell] == A[i * n + ell, j * n + k]

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            partial_transpose(np.eye(5), D22)
        with pytest.raises(errors.ShapeMismatch):
            partial_transpose(np.ones(16), D22)
        with pytest.raises(errors.ShapeMismatch):
            partial_transpose(np.ones((3, 4, 5)), D22)

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 3, 12, 12)) + 1j * rng.standard_normal((2, 3, 12, 12))
        B = partial_transpose(A, D34)
        assert B.shape == A.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(B[idx], partial_transpose(A[idx], D34))
        # a strided view (every other matrix of a stack) gives the same
        assert np.array_equal(partial_transpose(A[:, ::2], D34), B[:, ::2])

    def test_swapped_side_same_spectrum(self):
        # transposing the other factor yields the transpose, so spectra agree
        rng = np.random.default_rng(3)
        rho = random_density_matrix(D34, rank=5, seed=17)
        m, n, d = 3, 4, 12
        first_factor_pt = (
            rho.mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(d, d)
        )
        w1 = np.linalg.eigvalsh(partial_transpose(rho.mat, D34))
        w2 = np.linalg.eigvalsh(first_factor_pt)
        assert np.allclose(w1, w2, atol=1e-10)


class TestNegativeCount:
    def test_maximally_mixed_is_ppt(self):
        rho = np.eye(12, dtype=complex) / 12
        count, negs = count_negative_eigenvalues(partial_transpose(rho, D34))
        assert count == 0 and negs.size == 0

    def test_singlet_spectrum(self):
        # PT of the singlet has spectrum {-1/2, 1/2, 1/2, 1/2}
        pt = partial_transpose(singlet_state().mat, D22)
        assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)
        count, negs = count_negative_eigenvalues(pt)
        assert count == 1
        assert negs[0] == pytest.approx(-0.5, abs=1e-12)

    def test_threshold_policy(self):
        A = np.diag([-5e-11, 1.0]).astype(complex)
        count, _ = count_negative_eigenvalues(A)
        assert count == 0  # below tau = max(1e-10, 1e-9 * 1)
        count, _ = count_negative_eigenvalues(np.diag([-1e-8, 1.0]).astype(complex))
        assert count == 1

    def test_empty_matrix(self):
        count, negs = count_negative_eigenvalues(np.zeros((0, 0)))
        assert count == 0 and negs.shape == (0,)

    def test_stacked_counts(self):
        # the count of each spectrum in a stack is the count of it alone
        w = np.sort(np.random.default_rng(5).standard_normal((4, 3, 6)), axis=-1)
        w[0, 0] = [-5e-11, 0, 0, 0, 0, 1.0]  # under the absolute floor
        w[0, 1] = [-2e-9, 0, 0, 0, 0, 1.0]  # over it
        w[0, 2] = [-2e-9, 0, 0, 0, 0, 3.0]  # under the relative threshold
        counts = bipartite._negative_counts(w)
        assert counts.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            assert counts[idx] == count_negative_eigenvalues(np.diag(w[idx]).astype(complex))[0]
        assert counts[0].tolist() == [0, 1, 0]
        assert bipartite._negative_counts(np.zeros((3, 0))).tolist() == [0, 0, 0]


class TestIsPpt:
    def test_diagonal_state(self):
        p = np.arange(1.0, 13.0)
        rho = DensityMatrix(D34, np.diag(p / p.sum()).astype(complex))
        assert is_ppt(rho)

    def test_singlet(self):
        assert not is_ppt(singlet_state())

    def test_maximally_entangled(self):
        assert not is_ppt(maximally_entangled_state())


class TestRealign:
    def test_antisymmetric_vector(self):
        v = np.array([0, 1, -1, 0], dtype=complex)
        assert np.array_equal(realign(v, D22), np.array([[0, -1], [1, 0]]))

    def test_basis_vector(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        out = realign(v, D22)
        assert out[0, 0] == 1.0 and np.count_nonzero(out) == 1

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert np.array_equal(unrealign(realign(v, D34), D34), v)

    def test_isometry(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        M = realign(v, D34)
        assert sorted(np.abs(v)) == sorted(np.abs(M).ravel())
        assert np.linalg.norm(M) == pytest.approx(np.linalg.norm(v), rel=1e-15)


class TestRandomDensityMatrix:
    def test_pure_state(self):
        rho = random_density_matrix(D34, rank=1, seed=42)
        assert np.linalg.norm(rho.mat @ rho.mat - rho.mat) <= 1e-10

    def test_deterministic(self):
        a = random_density_matrix(D34, rank=4, seed=123)
        b = random_density_matrix(D34, rank=4, seed=123)
        assert np.array_equal(a.mat, b.mat)

    def test_seed_changes_output(self):
        a = random_density_matrix(D34, rank=4, seed=123)
        b = random_density_matrix(D34, rank=4, seed=124)
        assert not np.array_equal(a.mat, b.mat)

    def test_bad_rank(self):
        with pytest.raises(errors.BadRank):
            random_density_matrix(D34, rank=0, seed=1)
        with pytest.raises(errors.BadRank):
            random_density_matrix(D34, rank=13, seed=1)

    def test_negative_count_bounded(self):
        for i in range(200):
            rho = random_density_matrix(D34, rank=12, seed=1000 + i)
            count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, D34))
            assert count <= 6


class TestGaussians:
    def test_moments(self):
        rng = np.random.Generator(np.random.PCG64(5))
        z = bipartite.complex_gaussians(20000, rng)
        assert abs(z.mean()) < 0.02
        assert abs((np.abs(z) ** 2).mean() - 1.0) < 0.02


class TestValidation:
    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(D22, np.eye(4, dtype=complex))

    def test_density_matrix_rejects_negative(self):
        mat = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(D22, mat)

    def test_density_messages(self):
        bad_herm = np.eye(4, dtype=complex) / 4
        bad_herm[0, 1] = 0.1
        cases = [
            (bad_herm, "density matrix is not Hermitian within tolerance"),
            (np.eye(4, dtype=complex), "trace 4.0 differs from 1 beyond tolerance"),
            (np.diag([1.5, -0.5, 0, 0]).astype(complex),
             "minimum eigenvalue -5.000e-01 below PSD floor"),
        ]
        for mat, message in cases:
            with pytest.raises(ValueError) as err:
                DensityMatrix(D22, mat)
            assert str(err.value) == message
            assert bipartite._state_error(mat) == message

    def test_stacked_state_checks_report_first_failure(self):
        # the message is the first failing matrix's, in C order, with each
        # matrix checked for Hermiticity, then trace, then positivity
        good = np.eye(4, dtype=complex) / 4
        negative = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        heavy = np.eye(4, dtype=complex)
        stack = np.stack([good, negative, heavy])
        lowest = np.linalg.eigvalsh(stack)[:, 0]
        assert bipartite._state_error(stack, lowest) == "minimum eigenvalue -5.000e-01 below PSD floor"
        assert bipartite._state_error(stack[[0, 2, 1]], lowest[[0, 2, 1]]).startswith("trace 4.0")
        assert bipartite._state_error(np.stack([good, good])) is None
        assert bipartite._state_error(stack[None]).startswith("minimum eigenvalue")
        assert bipartite._state_error(stack[[0, 2, 1]]).startswith("trace 4.0")

    def test_list_inputs_are_converted_before_shape_checks(self):
        assert DensityMatrix(D22, [[0.25, 0, 0, 0], [0, 0.25, 0, 0],
                                   [0, 0, 0.25, 0], [0, 0, 0, 0.25]]).mat.shape == (4, 4)
        with pytest.raises(errors.ShapeMismatch, match=r"expected \(4, 4\) matrix, got \(2, 2\)"):
            DensityMatrix(D22, [[0.5, 0], [0, 0.5]])
        ens = Ensemble(D22, [1.0], [[1.0], [0.0], [0.0], [0.0]])
        assert ens.vectors.shape == (4, 1) and ens.probs.shape == (1,)
        with pytest.raises(errors.ShapeMismatch, match="vectors must be 4 x r"):
            Ensemble(D22, [1.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(errors.ShapeMismatch, match="one probability per vector"):
            Ensemble(D22, [0.5, 0.5], [[1.0], [0.0], [0.0], [0.0]])

    def test_ensemble_checks(self):
        v = np.zeros((4, 1), dtype=complex)
        v[0, 0] = 1.0
        with pytest.raises(ValueError):
            Ensemble(D22, np.array([0.5]), v)  # probabilities must sum to 1
        with pytest.raises(ValueError):
            Ensemble(D22, np.array([1.0]), 2 * v)  # vectors must be unit

    @pytest.mark.parametrize("defect", ["nan-prob", "nan-second-prob", "nan-vector"])
    def test_ensemble_rejects_nan(self, defect):
        # every comparison with NaN is False, so each check must fail on it
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = v[3, 1] = 1.0
        probs = np.array([0.5, 0.5])
        if defect == "nan-prob":
            probs = np.array([np.nan, np.nan])
        elif defect == "nan-second-prob":
            probs = np.array([1.0, np.nan])
        else:
            v[1, 1] = np.nan
        with pytest.raises(ValueError):
            Ensemble(D22, probs, v)

    def test_ensemble_to_density(self):
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0
        v[3, 1] = 1.0
        rho = Ensemble(D22, np.array([0.25, 0.75]), v).to_density_matrix()
        assert np.allclose(np.diag(rho.mat), [0.25, 0, 0, 0.75], atol=0)

    def test_value_types_are_immutable(self):
        rho = random_density_matrix(D22, rank=2, seed=0)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0
        source = np.eye(4, dtype=complex) / 4
        held = DensityMatrix(D22, source)
        source[0, 0] = 5.0  # caller's array stays theirs; the state keeps a copy
        assert held.mat[0, 0] == 0.25
