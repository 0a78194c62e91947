import hashlib

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

    @pytest.mark.parametrize("m,n", [(2.0, 3), (3, 2.5), ("3", 3), (True, 3)])
    def test_non_integer(self, m, n):
        # rejected at construction, not later by a numpy TypeError
        with pytest.raises(ValueError, match="local dimensions must be integers"):
            BipartiteDims(m, n)

    def test_numpy_integers(self):
        assert BipartiteDims(np.int64(3), np.int32(4)) == D34


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
        # a count that is not an integer is refused before any draw
        for rank in (2.5, True):
            with pytest.raises(errors.BadRank, match=f"^rank must be an integer, got {rank}$"):
                random_density_matrix(D34, rank=rank, seed=1)

    def test_negative_count_bounded(self):
        for i in range(200):
            rho = random_density_matrix(D34, rank=12, seed=1000 + i)
            count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, D34))
            assert count <= 6


    def test_negative_seed_rejected_before_any_draw(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            random_density_matrix(D34, rank=4, seed=-1)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            random_density_matrix(D34, rank=4, seed=1.5)
        assert np.array_equal(random_density_matrix(D34, rank=np.int64(4), seed=np.uint32(7)).mat,
                              random_density_matrix(D34, rank=4, seed=7).mat)


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


#: sha256 of random_density_matrix(dims, rank, seed).mat, recorded before the
#: draws were stacked: the "pcg64+box-muller" stream that files and `stress`
#: name.  The values are those of x86-64 with numpy 2.4 and OpenBLAS 0.3; a
#: different libm or BLAS may round the last bit differently.
GINIBRE_DIGESTS = {
    ((2, 2), 1, 0): "3690f8907f6d61efbf1ab25c49cd42648aa6024a8a3ff1a8c0ee5bc979383f00",
    ((2, 2), 4, 0): "6fe90bddafa1a1c4953f9b67b0db1fd61904226d0abbcb2b49d93fb0652aa29e",
    ((2, 2), 1, 1): "75829d9219929cfc2f9963be8f56495decb64cfb51400f659e4a5a937efd58fa",
    ((2, 2), 4, 1): "0bafe40b9239f051758d68e4bb4b4925af90ab2ae7d1185bf8cddf06482391cf",
    ((2, 2), 1, 7): "ee3e23e170a74c7cb6410c25801339ddbb58d0532f70ca0c89f48389b193602e",
    ((2, 2), 4, 7): "e3350ee5cb091aa310d4d823181d6604f6b203d93bf2c59e6fedc5eb6ebfaa0e",
    ((3, 4), 1, 0): "5c07fbfd03f58b40aa97aa5891239d7c5112492cdc07fbf4881e941a0936fa43",
    ((3, 4), 12, 0): "7a6a04a0d7281beb53d9106791f79087622f78c2807802a9182428ad4f2dcc8b",
    ((3, 4), 1, 1): "48a721bddd512f045980c293c04266ae69465d183ae177dd47999b734f3b4eb9",
    ((3, 4), 12, 1): "676561691eb85e93eb1d5ead18cc519f2b5185250ef25cdf450e3e35b007a2d3",
    ((3, 4), 1, 7): "7c17df8fb6574e28f362e4217f8cec28675d45a78e0e3f0544509a7641ec58e5",
    ((3, 4), 12, 7): "e8da60b808d664f30a0334c8b098da1f11939b2703e61e13334cc03e9daa57b1",
    ((8, 8), 1, 0): "a610c438c1abd8d70895bcb46d0d9a0dff63d8c2935ef0cfaecd12dc44b38165",
    ((8, 8), 64, 0): "f95cfc81feda93555685e62508a78bd635af8855e2c7a431039dd45cca11b8a7",
    ((8, 8), 1, 1): "7d885d68b7db9ec9b6b2bd0ced5768f5fe763d532cc4f43076ff4c4b1bc3e3d1",
    ((8, 8), 64, 1): "38c1fee4a0809c78a15596ea1bb5b1a095820a2bd1a09d2f3b43c9c737c5e939",
    ((8, 8), 1, 7): "474d0dc7daa6ea5777a099435ff260e72b9ce7921cf1f6b4abafb6e35364a465",
    ((8, 8), 64, 7): "dd2afd3d9e170a1c23804b1619182013f1051f2353b9ed100a68183cdd7c74ce",
}


class TestStream:
    @pytest.mark.parametrize("key", sorted(GINIBRE_DIGESTS))
    def test_ginibre_digest(self, key):
        (m, n), rank, seed = key
        rho = random_density_matrix(BipartiteDims(m, n), rank=rank, seed=seed)
        assert sha256(rho.mat) == GINIBRE_DIGESTS[key]

    @pytest.mark.parametrize("rank", [1, 5, 12])
    def test_stacked_ginibre_is_each_lone_draw(self, rank):
        seeds = range(40, 47)
        rho = bipartite._ginibre_states(D34, rank, seeds)
        for s, mat in zip(seeds, rho):
            assert np.array_equal(mat, random_density_matrix(D34, rank=rank, seed=s).mat)

    def test_ginibre_is_one_draw_of_gaussians(self):
        # G comes from complex_gaussians((mn, rank), rng), reading the
        # generator from its start
        rng = np.random.Generator(np.random.PCG64(3))
        G = bipartite.complex_gaussians((12, 2), rng)
        rho = G @ G.conj().T
        rho = rho / np.trace(rho).real
        expected = (rho + rho.conj().T) / 2
        assert np.array_equal(random_density_matrix(D34, rank=2, seed=3).mat, expected)


class TestGaussians:
    def test_moments(self):
        rng = np.random.Generator(np.random.PCG64(5))
        z = bipartite.complex_gaussians(20000, rng)
        assert abs(z.mean()) < 0.02
        assert abs((np.abs(z) ** 2).mean() - 1.0) < 0.02

    def test_box_muller_recipe(self):
        # radii from the first half of the uniforms, phases from the second
        rng = np.random.Generator(np.random.PCG64(8))
        z = bipartite.complex_gaussians((2, 3), rng)
        u = np.random.Generator(np.random.PCG64(8)).random(12)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:6]))
        assert np.array_equal(z, (r * np.exp(2j * np.pi * u[6:]) / np.sqrt(2.0)).reshape(2, 3))

    @pytest.mark.parametrize("shape,out_shape,draws", [
        ((), (), 2), (0, (0,), 0), ((0,), (0,), 0), ((3, 0), (3, 0), 0),
        (4, (4,), 8), ((2, 3), (2, 3), 12),
    ])
    def test_shapes_and_draws(self, shape, out_shape, draws):
        rng = np.random.Generator(np.random.PCG64(2))
        z = bipartite.complex_gaussians(shape, rng)
        assert z.shape == out_shape and z.dtype == complex
        # the generator has moved on by exactly two uniforms per value
        ref = np.random.Generator(np.random.PCG64(2))
        ref.random(draws)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("shape,message", [
        (2.5, "shape must be an integer, got 2.5"),
        ((2, 1.5), "shape must be an integer, got 1.5"),
        (True, "shape must be an integer, got True"),
        (-1, r"shape must not be negative, got \(-1,\)"),
        ((-1, -2), r"shape must not be negative, got \(-1, -2\)"),
    ])
    def test_rejects_bad_shape(self, shape, message):
        # raised before any draw: the generator has not moved
        rng = np.random.Generator(np.random.PCG64(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            bipartite.complex_gaussians(shape, rng)
        assert rng.random() == np.random.Generator(np.random.PCG64(2)).random()


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
        assert bipartite._state_error(stack) == "minimum eigenvalue -5.000e-01 below PSD floor"
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

    def test_ensemble_iterates_weight_vector_pairs(self):
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = v[3, 1] = 1.0
        pairs = list(Ensemble(D22, np.array([0.25, 0.75]), v))
        assert [type(p) for p, _ in pairs] == [float, float]
        assert [p for p, _ in pairs] == [0.25, 0.75]
        for (_, vec), col in zip(pairs, v.T):
            assert np.array_equal(vec, col)

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
