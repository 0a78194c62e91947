import hashlib
import math

import numpy as np
import pytest

from nptsub import (
    BipartiteDims,
    DensityMatrix,
    Ensemble,
    antidiag_sums,
    build_subspace,
    closed_form_state,
    contains,
    count_negative_eigenvalues,
    ensemble_from_density,
    errors,
    locate_witness,
    partial_transpose,
    range_in_subspace,
    realign,
    sample_mixture_in_subspace,
    subspace,
    subspace_projector,
)

from nptsub.bipartite import _ensemble_error, _mixture, complex_gaussians
from nptsub.cli import verify_matrix
from nptsub.subspace import _sample_mixtures, _witnesses

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D34 = BipartiteDims(3, 4)


def unit(v):
    return v / np.linalg.norm(v)


def singlet_ensemble():
    v = unit(np.array([0, 1, -1, 0], dtype=complex))
    return Ensemble(D22, np.array([1.0]), v[:, None])


def with_product_weight(mat, eps):
    """(1 - eps) mat + eps |00><00|: weight eps on the product state |00>,
    which is alone on anti-diagonal 0 and so wholly outside S."""
    out = (1.0 - eps) * mat
    out[0, 0] += eps
    return out


def tiny_generator_state():
    """The pure 3 x 3 state of v ~ 1e-9 g(0,0) + g(1,1), g the generators."""
    g = build_subspace(D33).generators
    v = unit(1e-9 * g[:, 0] + g[:, 3])
    return DensityMatrix(D33, np.outer(v, v.conj()))


def boundary_state():
    """A 3 x 3 state that the containment rule accepts: halves of
    v ~ 5.5e-5 g(0,0) + g(1,1) and g(0,1) / sqrt 2, plus 3e-10 |00><00|,
    renormalized."""
    g = build_subspace(D33).generators
    v, u = unit(np.sqrt(3e-9) * g[:, 0] + g[:, 3]), unit(g[:, 1])
    rho = with_product_weight((np.outer(v, v.conj()) + np.outer(u, u.conj())) / 2, 3e-10)
    return DensityMatrix(D33, rho / np.trace(rho).real)


def ensemble_witness(ens):
    """The witness search as it ran on an ensemble's vectors before it read
    the state: (alpha, beta, t*, determinant, sum_i p_i conj(a_i) b_i), the
    reference for ``locate_witness``.  a is at the first position in the
    search order where some vector's coefficient exceeds 1e-10, b at the
    next one on t* whose mixture sum does."""
    dims, V, p = ens.dims, ens.vectors, ens.probs
    order, t_of, j_of = subspace._search_order(dims)
    C = V[order]
    first = int((np.abs(C).max(axis=1) > 1e-10).argmax())
    t = int(t_of[first])
    mix = np.sum((p * np.conj(C[first]))[None, :] * C, axis=-1)
    paired = (np.arange(dims.total) > first) & (t_of == t) & (np.abs(mix) > 1e-10)
    second = int(paired.argmax())
    assert paired[second]
    row_a, row_b = int(j_of[first]), int(j_of[second])
    corners = [row_b * dims.n + t - row_a, row_a * dims.n + t - row_b]
    sub = partial_transpose(_mixture(V, p), dims)[np.ix_(corners, corners)]
    det = float((sub[0, 0] * sub[1, 1]).real - np.abs(sub[0, 1]) ** 2)
    return (row_b, t - row_a), (row_a, t - row_b), t, det, complex(mix[second])


class TestBuildSubspace:
    def test_2x2_generator(self):
        basis = build_subspace(D22)
        assert basis.dim == 1
        assert np.array_equal(basis.generators[:, 0], [0, 1, -1, 0])

    def test_3x4_dimension(self):
        assert build_subspace(D34).dim == 6

    def test_degenerate(self):
        assert build_subspace(BipartiteDims(4, 1)).dim == 0
        assert build_subspace(BipartiteDims(1, 1)).dim == 0

    def test_generator_formula(self):
        m, n = 3, 3
        basis = build_subspace(D33)
        col = 0
        for j in range(m - 1):
            for k in range(n - 1):
                expected = np.zeros(9, dtype=complex)
                expected[j * n + k + 1] = 1.0
                expected[(j + 1) * n + k] = -1.0
                assert np.array_equal(basis.generators[:, col], expected)
                col += 1

    def test_orthonormal_gram(self):
        Q = build_subspace(D34).orthonormal
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(6)) <= 1e-12

    def test_span_reconstruction(self):
        basis = build_subspace(D34)
        Q = basis.orthonormal
        for col in basis.generators.T:
            resid = col - Q @ (Q.conj().T @ col)
            assert np.linalg.norm(resid) <= 1e-10

    def test_generator_rank(self):
        gens = build_subspace(D34).generators
        gram = gens.conj().T @ gens
        assert np.sum(np.linalg.eigvalsh(gram) > 1e-9) == 6


class TestProjector:
    def test_2x2_exact(self):
        P = subspace_projector(build_subspace(D22)).P
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(P, expected, atol=1e-14)

    def test_trace(self):
        P = subspace_projector(build_subspace(D34)).P
        assert np.trace(P).real == pytest.approx(6.0, abs=1e-9)

    def test_idempotent_hermitian(self):
        P = subspace_projector(build_subspace(D34)).P
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.abs(P - P.conj().T).max() <= 1e-12

    def test_fixes_generators(self):
        basis = build_subspace(D34)
        P = subspace_projector(basis).P
        for g in basis.generators.T:
            assert np.linalg.norm(P @ g - g) <= 1e-10


CLOSED_FORM_DIMS = [BipartiteDims(n, n) for n in range(2, 9)] + [
    BipartiteDims(2, 5), BipartiteDims(5, 3), BipartiteDims(3, 7),
]


def gram_schmidt(columns):
    """Reference: modified Gram-Schmidt with one re-orthogonalization pass."""
    out = np.zeros((columns.shape[0], 0), dtype=complex)
    for col in columns.T:
        w = col.astype(complex)
        for _ in range(2):
            w = w - out @ (out.conj().T @ w)
        out = np.hstack([out, (w / np.linalg.norm(w))[:, None]])
    return out


def antidiagonal_complement(dims):
    """Reference: I - A^T diag(1/N) A with A[t, j*n + k] = [j + k == t]."""
    m, n = dims.m, dims.n
    A = np.zeros((m + n - 1, m * n))
    for j in range(m):
        for k in range(n):
            A[j + k, j * n + k] = 1.0
    return np.eye(m * n) - A.T @ np.diag(1.0 / A.sum(axis=1)) @ A


def outside_fraction(basis, M):
    """Dense reference ||(I - Q Q^dagger) M|| / ||M||."""
    Q = basis.orthonormal
    return np.linalg.norm(M - Q @ (Q.conj().T @ M)) / np.linalg.norm(M)


class TestClosedForm:
    @pytest.mark.parametrize("dims", CLOSED_FORM_DIMS, ids=str)
    def test_projector_is_the_antidiagonal_complement(self, dims):
        P = subspace_projector(build_subspace(dims)).P
        assert np.array_equal(P, antidiagonal_complement(dims))

    @pytest.mark.parametrize("dims", CLOSED_FORM_DIMS, ids=str)
    def test_projector_sectors_and_reflection(self, dims):
        P = subspace_projector(build_subspace(dims)).P
        t = np.add(*np.divmod(np.arange(dims.total), dims.n))
        assert not P.imag.any()
        assert not P[t[:, None] != t[None, :]].any()
        assert np.abs(P - P[::-1, ::-1]).max() == 0.0

    @pytest.mark.parametrize("dims", CLOSED_FORM_DIMS, ids=str)
    def test_basis_is_the_gram_schmidt_basis(self, dims):
        basis = build_subspace(dims)
        Q = basis.orthonormal
        assert np.abs(Q - gram_schmidt(basis.generators)).max() <= 1e-14
        assert np.abs(Q @ Q.conj().T - subspace_projector(basis).P).max() <= 1e-14

    @pytest.mark.parametrize("dims", [D22, D34, BipartiteDims(5, 3), BipartiteDims(6, 6)], ids=str)
    def test_membership_matches_dense_reference(self, dims):
        basis = build_subspace(dims)
        d, Q = dims.total, basis.orthonormal
        rng = np.random.Generator(np.random.PCG64(dims.total))

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = unit(Q @ gaussian(basis.dim))
        b = gaussian(d)
        b_out = unit(b - Q @ (Q.conj().T @ b))
        vectors = [a, gaussian(d), b_out, a + 5e-10 * b_out, a + 2e-9 * b_out]
        for v in vectors:
            assert contains(basis, v) == (outside_fraction(basis, v) <= 1e-9)
        assert [contains(basis, v) for v in vectors] == [True, False, False, True, False]
        X = gaussian(basis.dim, basis.dim)
        matrices = [
            Q @ X @ Q.conj().T,
            gaussian(d, d),
            np.outer(a, b_out.conj()) + np.outer(b_out, a.conj()),
            Q @ X @ Q.conj().T + 2e-9 * np.outer(b_out, a.conj()) * np.linalg.norm(X),
        ]
        for M in matrices:
            assert range_in_subspace(basis, M) == (outside_fraction(basis, M) <= 1e-9)
        assert [range_in_subspace(basis, M) for M in matrices] == [True, False, False, False]

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (5, 1)])
    def test_degenerate_dims(self, m, n):
        dims = BipartiteDims(m, n)
        basis = build_subspace(dims)
        assert basis.orthonormal.shape == (dims.total, 0)
        assert np.array_equal(subspace_projector(basis).P, np.zeros((dims.total, dims.total)))
        assert not contains(basis, np.ones(dims.total))


class TestClosedFormState:
    """The extremal state rho proportional to T^Gamma - lambda D, built with
    no solver."""

    # every m <= n from 3 x 3 to 10 x 10, and 2 x n
    FULL_COUNT_DIMS = [BipartiteDims(m, n) for m in range(3, 11) for n in range(m, 11)] + [
        BipartiteDims(2, n) for n in range(2, 13)
    ]

    @staticmethod
    def reference(dims):
        """The definition entry by entry, then normalized to trace 1."""
        m, n = dims.m, dims.n
        rho = np.zeros((dims.total, dims.total))
        for j in range(m):
            for k in range(n):
                for jj in range(m):
                    for kk in range(n):
                        # T^Gamma at ((j, k), (jj, kk)) is T at ((j, kk), (jj, k))
                        if j + kk == jj + k:
                            rho[j * n + k, jj * n + kk] = 1.0 / math.comb(m + n - 2, j + kk)
                rho[j * n + k, j * n + k] -= 1.0 / (
                    math.comb(m + n - 2, m - 1) * math.comb(m - 1, j) * math.comb(n - 1, k))
        return rho / np.trace(rho)

    @pytest.mark.parametrize("dims", FULL_COUNT_DIMS, ids=str)
    def test_verifies_with_the_full_count(self, dims):
        report = verify_matrix(closed_form_state(dims).mat, dims)
        assert report.passed
        assert report.negative_count == dims.npt_dim

    @pytest.mark.parametrize("dims", [D22, D33, D34, BipartiteDims(4, 6)], ids=str)
    def test_matches_the_definition(self, dims):
        rho = closed_form_state(dims)
        assert rho.dims == dims
        assert np.abs(rho.mat - self.reference(dims)).max() <= 1e-15

    @pytest.mark.parametrize("dims", [D33, D34, BipartiteDims(5, 5), BipartiteDims(4, 7)], ids=str)
    def test_structure(self, dims):
        # real, block-diagonal by j-k sector, reflection-invariant, and its
        # partial transpose is negative definite on S
        rho = closed_form_state(dims).mat
        j, k = np.divmod(np.arange(dims.total), dims.n)
        assert not rho.imag.any()
        assert not rho[(j - k)[:, None] != (j - k)[None, :]].any()
        assert np.abs(rho - rho[::-1, ::-1]).max() <= 1e-17
        Q = build_subspace(dims).orthonormal
        assert np.linalg.eigvalsh(Q.conj().T @ partial_transpose(rho, dims) @ Q)[-1] < 0.0

    def test_2x2_is_the_maximally_entangled_state(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(closed_form_state(D22).mat, np.outer(v, v) / 2)

    def test_11x11_float_count_falls_short(self):
        # every negative is there, but the smallest lie below the count's
        # floor: the float count is no certificate from 11 x 11 on
        dims = BipartiteDims(11, 11)
        rho_pt = partial_transpose(closed_form_state(dims).mat, dims)
        assert np.linalg.eigvalsh(rho_pt)[dims.npt_dim - 1] < 0.0
        assert count_negative_eigenvalues(rho_pt)[0] < dims.npt_dim

    @pytest.mark.parametrize("m, n", [(1, 4), (5, 1)])
    def test_degenerate_dims(self, m, n):
        with pytest.raises(errors.DegenerateSubspace, match="trivial"):
            closed_form_state(BipartiteDims(m, n))


class TestContains:
    def test_generators_contained(self):
        basis = build_subspace(D34)
        for g in basis.generators.T:
            assert contains(basis, g)

    def test_product_state_not_contained(self):
        # realigning |00> gives a single 1 on an anti-diagonal, so it
        # cannot be in S; (I - P)|00> is nonzero
        basis = build_subspace(D22)
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        Q = basis.orthonormal
        assert np.linalg.norm(e00 - Q @ (Q.conj().T @ e00)) > 0.9
        assert not contains(basis, e00)

    def test_mixture_range_contained(self):
        basis = build_subspace(D34)
        rng = np.random.Generator(np.random.PCG64(12))
        ens = sample_mixture_in_subspace(basis, rank=3, rng=rng)
        assert range_in_subspace(basis, ens.to_density_matrix())

    def test_range_not_contained(self):
        basis = build_subspace(D22)
        rho = DensityMatrix(D22, np.eye(4, dtype=complex) / 4)
        assert not range_in_subspace(basis, rho)


class TestAntidiagSums:
    def test_generator_image(self):
        assert np.array_equal(
            antidiag_sums(np.array([[0, -1], [1, 0]])), np.zeros(3)
        )

    def test_identity(self):
        assert np.array_equal(antidiag_sums(np.eye(2)), [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(errors.ShapeMismatch, match="2-D"):
            antidiag_sums(np.ones(shape))

    def test_realigned_members_sum_to_zero(self):
        dims = BipartiteDims(4, 5)
        basis = build_subspace(dims)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(100):
            coeff = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            v = basis.orthonormal @ coeff
            sums = antidiag_sums(realign(v, dims))
            assert sums.shape == (8,)
            assert np.abs(sums).max() <= 1e-10

    def test_no_single_entry_antidiagonal(self):
        # anti-diagonals of realigned members have 0 or >= 2 nonzero entries
        dims = BipartiteDims(3, 4)
        basis = build_subspace(dims)
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(100):
            v = unit(basis.orthonormal @ (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
            M = realign(v, dims)
            for t in range(M.shape[0] + M.shape[1] - 1):
                entries = [
                    abs(M[r, t - r])
                    for r in range(max(0, t - M.shape[1] + 1), min(M.shape[0], t + 1))
                ]
                big = sum(e > 1e-8 for e in entries)
                small = sum(e < 1e-12 for e in entries)
                assert not (big == 1 and small == len(entries) - 1)


class TestWitness:
    def test_singlet_certificate(self):
        cert = locate_witness(singlet_ensemble())
        assert cert.alpha == (0, 0)
        assert cert.beta == (1, 1)
        assert cert.flat_indices(D22) == (0, 3)
        assert cert.antidiag_index == 1
        expected = np.array([[0, -0.5], [-0.5, 0]], dtype=complex)
        assert np.allclose(cert.submatrix, expected, atol=1e-14)
        assert cert.determinant == pytest.approx(-0.25, abs=1e-12)
        assert cert.mixture_sum == pytest.approx(-0.5, abs=1e-12)

    def test_generator_embedded_in_larger_space(self):
        # the 2x2 pattern recurs for the first generator of any (m, n)
        for dims in (D33, D34, BipartiteDims(4, 5)):
            basis = build_subspace(dims)
            v = unit(basis.generators[:, 0])
            ens = Ensemble(dims, np.array([1.0]), v[:, None])
            cert = locate_witness(ens, basis)
            assert cert.alpha == (0, 0)
            assert cert.beta == (1, 1)
            assert cert.determinant == pytest.approx(-0.25, abs=1e-12)

    def test_cancelling_pair_skips_to_next_position(self):
        # engineered so the first candidate pairing on anti-diagonal t*=2
        # washes out and the search must take the next entry:
        # v1 has coefficients 1, -1, 0 down that anti-diagonal, v2 has
        # 1, 1, -2 (over sqrt 6); with p = (1/4, 3/4) the pairing with the
        # middle entry sums to -1/8 + 1/8 = 0, the pairing with the last
        # gives -1/4
        v1 = np.zeros(9, dtype=complex)
        v1[2 * 3 + 0] = 1.0
        v1[1 * 3 + 1] = -1.0
        v1 /= np.sqrt(2)
        v2 = np.zeros(9, dtype=complex)
        v2[2 * 3 + 0] = 1.0
        v2[1 * 3 + 1] = 1.0
        v2[0 * 3 + 2] = -2.0
        v2 /= np.sqrt(6)
        ens = Ensemble(D33, np.array([0.25, 0.75]), np.stack([v1, v2], axis=1))
        cert = locate_witness(ens)
        assert cert.antidiag_index == 2
        assert cert.alpha == (0, 0)
        assert cert.beta == (2, 2)  # skipped the cancelled (1, 1) pairing
        assert cert.mixture_sum == pytest.approx(-0.25, abs=1e-12)
        assert cert.determinant == pytest.approx(-1.0 / 16.0, abs=1e-12)
        # the certificate agrees with the directly computed partial transpose
        rho_pt = partial_transpose(ens.to_density_matrix().mat, D33)
        ai, bi = cert.flat_indices(D33)
        assert ai == 0 and bi == 8
        direct = rho_pt[np.ix_([ai, bi], [ai, bi])]
        assert np.allclose(direct, cert.submatrix, atol=1e-14)

    def test_two_component_mixture_hand_computed(self):
        # p = (1/2, 1/2) over the (0,0) and (1,1) generators of (3,3):
        # first nonzero anti-diagonal is t*=1 with entries from v1 only,
        # giving alpha=|0,0>, beta=|1,1>, mixture sum -1/4, det -1/16
        basis = build_subspace(D33)
        v1 = unit(basis.generators[:, 0])
        v2 = unit(basis.generators[:, 3])
        ens = Ensemble(D33, np.array([0.5, 0.5]), np.stack([v1, v2], axis=1))
        cert = locate_witness(ens, basis)
        assert cert.alpha == (0, 0)
        assert cert.beta == (1, 1)
        assert cert.flat_indices(D33) == (0, 4)
        assert cert.mixture_sum == pytest.approx(-0.25, abs=1e-12)
        assert cert.determinant == pytest.approx(-1.0 / 16.0, abs=1e-12)

    def test_from_density_matrix(self):
        rho = singlet_ensemble().to_density_matrix()
        cert = locate_witness(rho)
        assert cert.flat_indices(D22) == (0, 3)
        assert cert.determinant == pytest.approx(-0.25, abs=1e-12)

    def test_determinant_identity_random_mixtures(self):
        basis = build_subspace(D34)
        for i in range(200):
            rng = np.random.Generator(np.random.PCG64(100 + i))
            ens = sample_mixture_in_subspace(basis, rank=3, rng=rng)
            cert = locate_witness(ens, basis)
            assert cert.determinant < 0
            assert abs(cert.determinant + abs(cert.mixture_sum) ** 2) <= 1e-10
            # cross-check the submatrix against the directly computed PT
            rho_pt = partial_transpose(ens.to_density_matrix().mat, D34)
            ai, bi = cert.flat_indices(D34)
            direct = rho_pt[np.ix_([ai, bi], [ai, bi])]
            assert np.allclose(direct, cert.submatrix, atol=1e-14)

    def test_interlacing(self):
        basis = build_subspace(D34)
        rng = np.random.Generator(np.random.PCG64(77))
        ens = sample_mixture_in_subspace(basis, rank=4, rng=rng)
        cert = locate_witness(ens, basis)
        low = np.linalg.eigvalsh(cert.submatrix)[0]
        pt_min = np.linalg.eigvalsh(partial_transpose(ens.to_density_matrix().mat, D34))[0]
        assert low < 0
        assert pt_min <= low + 1e-10

    def test_rejects_outside_subspace(self):
        e00 = np.zeros((4, 1), dtype=complex)
        e00[0, 0] = 1.0
        ens = Ensemble(D22, np.array([1.0]), e00)
        with pytest.raises(errors.NotInSubspace):
            locate_witness(ens)

    def test_rejects_density_outside_subspace(self):
        rho = DensityMatrix(D22, np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(errors.NotInSubspace):
            locate_witness(rho)

    def test_zero_dimensional_subspace(self):
        dims = BipartiteDims(1, 4)
        basis = build_subspace(dims)
        v = np.zeros((4, 1), dtype=complex)
        v[0, 0] = 1.0
        with pytest.raises(errors.NotInSubspace):
            locate_witness(Ensemble(dims, np.array([1.0]), v), basis)

    def test_stacked_search_matches_each_ensemble(self):
        # one search over a stack of the ensembles' states gives each its
        # own certificate or error: inside S, and outside S by far more
        # than CONTAINS_RTOL
        basis = build_subspace(D34)
        draws = [sample_mixture_in_subspace(basis, 3, np.random.Generator(np.random.PCG64(s)))
                 for s in range(4)]
        rho = np.stack([ens.to_density_matrix().mat for ens in draws])
        rho[1] = with_product_weight(rho[1], 1e-8)
        found = _witnesses(rho, partial_transpose(rho, D34), D34)
        assert str(found.errors[1]) == "||(I - P) rho||_F > 1e-09 ||rho||_F: the range is not in S"
        assert isinstance(found.errors[1], errors.NotInSubspace)
        for i in (0, 2, 3):
            assert found.errors[i] is None
            alone = locate_witness(draws[i], basis)
            cert = found.certificate(i)
            assert (cert.alpha, cert.beta, cert.antidiag_index) == (alone.alpha, alone.beta, alone.antidiag_index)
            assert cert.determinant == alone.determinant
            assert cert.mixture_sum == alone.mixture_sum
            assert np.array_equal(cert.submatrix, alone.submatrix)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 8), (3, 4), (5, 5), (8, 8), (12, 12)])
    def test_state_search_matches_the_ensemble_search(self, m, n, seed):
        # the search on rho picks the positions, block and determinant the
        # search over an ensemble's vectors picked, bit for bit; the mixture
        # sum rho[b, a] is sum_i p_i conj(a_i) b_i to rounding
        dims = BipartiteDims(m, n)
        basis = build_subspace(dims)
        for rank in sorted({1, min(3, basis.dim), basis.dim}):
            ens = sample_mixture_in_subspace(basis, rank, np.random.Generator(np.random.PCG64(seed)))
            alpha, beta, t, det, mix = ensemble_witness(ens)
            for state in (ens, ens.to_density_matrix()):
                cert = locate_witness(state, basis)
                assert (cert.alpha, cert.beta, cert.antidiag_index) == (alpha, beta, t)
                assert cert.determinant == det < 0
                assert abs(cert.mixture_sum - mix) <= 1e-15

    @pytest.mark.parametrize("eps,inside", [(1e-11, True), (3e-10, True), (1e-9, False)])
    def test_product_weight_ladder(self, eps, inside):
        # (1 - eps) rho_S + eps |00><00|: the witness certifies exactly the
        # states the containment rule accepts.  The ensemble search read
        # the eps eigenvector at 3e-10 and raised NotInSubspace
        basis = build_subspace(D34)
        rho_s = sample_mixture_in_subspace(basis, 3, np.random.Generator(np.random.PCG64(1)))
        rho = DensityMatrix(D34, with_product_weight(rho_s.to_density_matrix().mat, eps))
        assert range_in_subspace(basis, rho) is inside
        if not inside:
            with pytest.raises(errors.NotInSubspace):
                locate_witness(rho, basis)
            return
        cert = locate_witness(rho, basis)
        assert (cert.alpha, cert.beta, cert.antidiag_index) == ((0, 0), (1, 1), 1)
        assert cert.determinant == pytest.approx(-1.156e-2, abs=1e-5)

    def test_pure_state_with_round_off_weight_on_an_antidiagonal(self):
        # v ~ 1e-9 g(0,0) + g(1,1): the 7.1e-10 coefficients on t = 1 count
        # as zero, so the search certifies on t = 3 (the ensemble search
        # paired them and raised NoWitness)
        rho = tiny_generator_state()
        assert range_in_subspace(build_subspace(D33), rho)
        cert = locate_witness(rho)
        assert (cert.alpha, cert.beta, cert.antidiag_index) == ((1, 1), (2, 2), 3)
        assert cert.determinant == pytest.approx(-0.25, abs=1e-12)
        assert cert.mixture_sum == pytest.approx(-0.5, abs=1e-12)

    def test_non_negative_block_is_no_witness(self):
        # 7.5e-10 on t = 1, just above the zero scale, pairs a with b, but
        # the 3e-10 on |00> (inside the containment tolerance) makes the
        # block's determinant positive: NoWitness, not a false certificate
        rho = boundary_state()
        assert range_in_subspace(build_subspace(D33), rho)
        assert count_negative_eigenvalues(partial_transpose(rho.mat, D33))[0] == 2
        with pytest.raises(errors.NoWitness, match=r"^anti-diagonal 1, a = \|1,0> \(rho\[a, a\] = "
                           r"7\.500e-10\): its block with b = \|0,1> has determinant 7\.500e-11, not negative$"):
            locate_witness(rho)

    def test_deterministic(self):
        basis = build_subspace(D34)
        rng = np.random.Generator(np.random.PCG64(5))
        ens = sample_mixture_in_subspace(basis, rank=3, rng=rng)
        c1 = locate_witness(ens, basis)
        c2 = locate_witness(ens, basis)
        assert c1.alpha == c2.alpha and c1.beta == c2.beta
        assert c1.determinant == c2.determinant


def wrong_dims_state():
    return DensityMatrix(D22, np.eye(4, dtype=complex) / 4)


@pytest.mark.parametrize("call,error,message", [
    (lambda: realign(np.zeros(11), D34), errors.ShapeMismatch, "expected vector of length 12"),
    (lambda: realign(np.zeros((3, 4)), D34), errors.ShapeMismatch, "expected vector of length 12"),
    (lambda: contains(build_subspace(D34), np.zeros(11)), errors.ShapeMismatch, "expected vector of length 12"),
    (lambda: range_in_subspace(build_subspace(D34), np.zeros((12, 11))), errors.ShapeMismatch,
     r"expected \(12, 12\) matrix for dims"),
    (lambda: range_in_subspace(build_subspace(D34), wrong_dims_state()), errors.ShapeMismatch, "dims mismatch"),
    (lambda: locate_witness(wrong_dims_state(), build_subspace(D34)), errors.ShapeMismatch, "dims mismatch"),
    (lambda: locate_witness(np.eye(4) / 4), TypeError, "expected Ensemble or DensityMatrix"),
    (lambda: sample_mixture_in_subspace(build_subspace(BipartiteDims(1, 4)), 1, np.random.default_rng(0)),
     errors.NotInSubspace, "subspace is zero-dimensional"),
], ids=["realign-length", "realign-2d", "contains", "range-shape",
        "range-dims", "witness-dims", "witness-type", "sample-zero-dim"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestEnsembleFromDensity:
    def test_spectral_weights(self):
        basis = build_subspace(D34)
        rng = np.random.Generator(np.random.PCG64(9))
        rho = sample_mixture_in_subspace(basis, rank=3, rng=rng).to_density_matrix()
        ens = ensemble_from_density(rho)
        assert ens.probs.sum() == pytest.approx(1.0, abs=1e-12)
        rebuilt = ens.to_density_matrix()
        assert np.linalg.norm(rebuilt.mat - rho.mat) <= 1e-10


class TestSampling:
    def test_npt_property(self):
        # every mixture supported on S is NPT
        for dims in (D22, D33, D34):
            basis = build_subspace(dims)
            for i in range(50):
                rng = np.random.Generator(np.random.PCG64(1000 + i))
                ens = sample_mixture_in_subspace(basis, rank=min(3, basis.dim), rng=rng)
                rho = ens.to_density_matrix()
                w = np.linalg.eigvalsh(partial_transpose(rho.mat, dims))
                assert w[0] < -1e-12 * w[-1]

    @pytest.mark.parametrize("rank", [0, -2, 2.5, True])
    def test_sample_rejects_rank_below_one(self, rank):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(errors.BadRank):
            sample_mixture_in_subspace(build_subspace(D33), rank=rank, rng=rng)

    def test_single_dimension_sample(self):
        basis = build_subspace(D22)
        rng = np.random.Generator(np.random.PCG64(0))
        ens = sample_mixture_in_subspace(basis, rank=1, rng=rng)
        # the only unit vectors in the 1-d subspace are phases of the
        # normalized generator, so the state is the generator projector
        g = unit(basis.generators[:, 0])
        assert np.allclose(
            ens.to_density_matrix().mat, np.outer(g, g.conj()), atol=1e-12
        )


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


#: sha256 of the vectors and the probs of sample_mixture_in_subspace(basis,
#: 3, Generator(PCG64(seed))), recorded before the draws were stacked: the
#: stream the npt suite draws.  The values are those of x86-64 with numpy 2.4
#: and OpenBLAS 0.3; a different libm or BLAS may round the last bit
#: differently.
MIXTURE_DIGESTS = {
    ((2, 2), 0): ("d6ff7287ddef4197483daac3535d157fbe3cf9eb32a5e25a03d175336ca7312a",
                  "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ((2, 2), 1): ("998890eba3a97c6f76792c0326858dbd83677f6756fb18b9d37f080bd8cd7c48",
                  "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ((2, 2), 7): ("e805cb710a20ba5f0081e6a3987c17251cd3f172bf9edc2a650eb73c798f2a8e",
                  "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ((3, 4), 0): ("a219c9f4e9874933c42219848833415247702647af3f6017f54f953fa92ba691",
                  "aceb251714c4f699f1fe2098f9338312b4cc993038ce8e4131308e06dc5fe10d"),
    ((3, 4), 1): ("0a7e976d3a89329e02a4c9ca3f73251250a730b6a90269b548882d1ade5b90f5",
                  "eabe47b9765785745a9c5e90593ff4a52e5c42e2218539a818ce29a171535b8e"),
    ((3, 4), 7): ("13ec18686343106d2f055a454ce71779e7f415778c877c7b08cd81249eb869e4",
                  "4a01c5322a029c33aab0e56df9dd0dd48fc8cde292d11d2cfe565c29802509d3"),
    ((8, 8), 0): ("ec3c3333ec4ba46c3c246d975c5c21974a957e94adf176a77cb055bb61556388",
                  "0972cb62681cdda2a8d781292f42b7d3069986009ff89826c87751999781c240"),
    ((8, 8), 1): ("b77750359a9ce019fb9c0b802dfe4bcf8002f2844901d043ea68c928b4ef4c2c",
                  "4fd468217402bc7737ce9fb5f17690d000b94c83ae4fa79623e8f5adc1f90ac2"),
    ((8, 8), 7): ("4b954443f6e489f5d18dcfa83e38c2fb9b4431c896531efb5858645162f32b20",
                  "06c77a68ae8fd55105934a2f0a25d0589ca7f6cdcb082a4a5bb6643606b90eec"),
}


def column_by_column(basis, r, rng, floor):
    """The mixture sampler one column at a time: a column of norm <= floor
    is discarded and the next is drawn; the weights come after the columns.
    Returns the vectors, the weights and the number of discarded columns."""
    Q, cols, discarded = basis.orthonormal, [], 0
    while len(cols) < r:
        v = Q @ complex_gaussians(basis.dim, rng)
        norm = np.linalg.norm(v)
        if norm > floor:
            cols.append(v / norm)
        else:
            discarded += 1
    weights = -np.log(1.0 - rng.random(r))
    weights /= weights.sum()
    return np.array(cols).T, weights, discarded


def generators(seeds):
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds]


class TestStackedSampling:
    @pytest.mark.parametrize("key", sorted(MIXTURE_DIGESTS))
    def test_mixture_digest(self, key):
        (m, n), seed = key
        ens = sample_mixture_in_subspace(build_subspace(BipartiteDims(m, n)), 3,
                                         np.random.Generator(np.random.PCG64(seed)))
        assert (sha256(ens.vectors), sha256(ens.probs)) == MIXTURE_DIGESTS[key]

    @pytest.mark.parametrize("dims", [D22, D34, BipartiteDims(8, 8)])
    def test_stack_is_each_column_by_column_draw(self, dims):
        basis = build_subspace(dims)
        r = min(3, basis.dim)
        seeds = range(20, 29)
        vectors, probs = _sample_mixtures(basis, r, generators(seeds))
        for i, rng in enumerate(generators(seeds)):
            ref_v, ref_p, _ = column_by_column(basis, r, rng, subspace.SAMPLE_NORM_FLOOR)
            assert np.array_equal(vectors[i], ref_v)
            assert np.array_equal(probs[i], ref_p)

    @pytest.mark.parametrize("dims", [D34, BipartiteDims(5, 5)])
    def test_forced_redraws_match_column_by_column(self, monkeypatch, dims):
        # a floor near the median column norm discards about half the
        # columns, several in a row in some trials; each discarded column is
        # drawn again from the uniforms after it, alone or in a stack, and
        # the generator is left where the column-by-column sampler leaves it
        basis = build_subspace(dims)
        floor = np.sqrt(basis.dim)
        monkeypatch.setattr(subspace, "SAMPLE_NORM_FLOOR", floor)
        seeds = range(30)
        rngs = generators(seeds)
        vectors, probs = _sample_mixtures(basis, 3, rngs)
        discarded = []
        for i, (rng, ref_rng) in enumerate(zip(rngs, generators(seeds))):
            ref_v, ref_p, count = column_by_column(basis, 3, ref_rng, floor)
            discarded.append(count)
            assert np.array_equal(vectors[i], ref_v)
            assert np.array_equal(probs[i], ref_p)
            assert rng.random() == ref_rng.random()
            alone = sample_mixture_in_subspace(basis, 3, generators([seeds[i]])[0])
            assert np.array_equal(alone.vectors, ref_v)
            assert np.array_equal(alone.probs, ref_p)
        assert 0 in discarded and max(discarded) >= 2

    def test_stacked_checks_name_the_failure(self):
        basis = build_subspace(D34)
        vectors, probs = _sample_mixtures(basis, 3, generators(range(4)))
        assert _ensemble_error(vectors, probs) is None
        bad = probs.copy()
        bad[2, 0] = np.nan
        assert _ensemble_error(vectors, bad) == "ensemble probabilities must be strictly positive"
        bad = probs.copy()
        bad[3] *= 1.0 + 1e-9
        assert _ensemble_error(vectors, bad) == "ensemble probabilities must sum to 1"
        bad = vectors.copy()
        bad[1, :, 2] *= 1.0 + 1e-9
        assert _ensemble_error(bad, probs) == "ensemble vectors must be unit length"
