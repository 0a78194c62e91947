"""The maximal NPT subspace, its projector, and 2x2 witness certificates.

The subspace S of C^m (x) C^n is spanned by the (m-1)(n-1) step-difference
generators |j>|k+1> - |j+1>|k>.  Realigning any v in S into its coefficient
matrix gives a matrix whose anti-diagonals each sum to zero; that structure
forces a 2x2 principal submatrix of the partially transposed state to have
negative determinant, which is the certificate this module locates.

The anti-diagonal indicators w_t = sum_{j+k=t} |j,k> span the orthogonal
complement of S and are orthogonal with ||w_t||^2 = N_t, so the projector
P = I - sum_t |w_t><w_t| / N_t (exactly reflection-invariant under
(j, k) -> (m-1-j, n-1-k)) and every membership test are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bipartite import (
    BipartiteDims,
    DensityMatrix,
    Ensemble,
    complex_gaussians,
    freeze,
    partial_transpose,
)
from .errors import BadRank, NoWitness, NotInSubspace, ShapeMismatch
from .linalg import eigh, hermitize

CONTAINS_RTOL = 1e-9
ENTRY_NONZERO_TOL = 1e-10


@dataclass(frozen=True)
class SubspaceBasis:
    """Generators and an orthonormal basis of the NPT subspace (as columns)."""

    dims: BipartiteDims
    generators: np.ndarray = field(repr=False)
    orthonormal: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", freeze(self.generators))
        object.__setattr__(self, "orthonormal", freeze(self.orthonormal))

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto the subspace."""

    dims: BipartiteDims
    P: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "P", freeze(self.P))


@dataclass(frozen=True)
class WitnessCertificate:
    """2x2 principal submatrix of rho^Gamma with negative determinant.

    alpha = (j0, k0) and beta = (j1, k1) are product-basis positions with
    j0 < j1 and k0 < k1; their flat indices are j*n + k.  The determinant
    equals -|mixture_sum|^2 up to numerical tolerance.
    """

    alpha: tuple[int, int]
    beta: tuple[int, int]
    antidiag_index: int
    submatrix: np.ndarray
    determinant: float
    mixture_sum: complex

    def flat_indices(self, dims: BipartiteDims) -> tuple[int, int]:
        return (
            self.alpha[0] * dims.n + self.alpha[1],
            self.beta[0] * dims.n + self.beta[1],
        )


def build_subspace(dims: BipartiteDims) -> SubspaceBasis:
    """Construct the (m-1)(n-1)-dimensional NPT subspace of C^m (x) C^n.

    Generator (j, k) is |j>|k+1> - |j+1>|k> for 0 <= j <= m-2 and
    0 <= k <= n-2, enumerated in lexicographic (j, k) order, and
    orthonormalized by QR with R's diagonal made positive (their Gram-Schmidt
    basis, to rounding).  For m = 1 or n = 1 the basis is empty.
    """
    n, cols = dims.n, np.arange(dims.npt_dim)
    j, k = np.divmod(cols, max(n - 1, 1))
    gens = np.zeros((dims.total, dims.npt_dim), dtype=complex)
    gens[j * n + k + 1, cols] = 1.0
    gens[(j + 1) * n + k, cols] = -1.0
    Q, R = np.linalg.qr(gens)
    return SubspaceBasis(dims, gens, Q * np.sign(R.diagonal().real))


@cache
def _antidiagonals(dims: BipartiteDims) -> tuple[np.ndarray, np.ndarray]:
    """Anti-diagonal indicator A[t, j*n + k] = [j + k == t] and weights 1/N_t = 1/sum_i A[t, i]."""
    j, k = np.divmod(np.arange(dims.total), dims.n)
    A = (np.arange(dims.m + dims.n - 1)[:, None] == j + k).astype(float)
    w = 1.0 / A.sum(axis=1)
    A.flags.writeable = w.flags.writeable = False  # shared by every caller
    return A, w


def _in_subspace(dims: BipartiteDims, M: np.ndarray, rtol: float) -> bool:
    """Whether ||(I - P) M|| = ||diag(N)^(-1/2) A M|| <= rtol ||M||."""
    A, w = _antidiagonals(dims)
    return float(np.linalg.norm((A * np.sqrt(w)[:, None]) @ M)) <= rtol * float(np.linalg.norm(M))


def subspace_projector(basis: SubspaceBasis) -> Projector:
    """Orthogonal projector P = I - sum_t |w_t><w_t| / N_t onto S, exactly real and sector-block."""
    A, w = _antidiagonals(basis.dims)
    return Projector(basis.dims, np.eye(basis.dims.total, dtype=complex) - (A.T * w) @ A)


def contains(basis: SubspaceBasis, v: np.ndarray, rtol: float = CONTAINS_RTOL) -> bool:
    """Whether ||(I - P) v|| <= rtol * ||v||."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (basis.dims.total,):
        raise ShapeMismatch(f"expected vector of length {basis.dims.total}")
    return _in_subspace(basis.dims, v, rtol)


def range_in_subspace(
    basis: SubspaceBasis, rho: DensityMatrix | np.ndarray, rtol: float = CONTAINS_RTOL
) -> bool:
    """Whether ||(I - P) M||_F <= rtol * ||M||_F for M = rho (a state or any
    mn x mn matrix): range(M) lies in S exactly when (I - P) M = 0.

    The sandwich (I - P) M (I - P) would not do for a matrix that is not
    PSD: it also vanishes for |a><b| + |b><a| with a in S and b outside.
    """
    if isinstance(rho, DensityMatrix):
        if rho.dims != basis.dims:
            raise ShapeMismatch(f"dims mismatch: {rho.dims} vs {basis.dims}")
        rho = rho.mat
    d = basis.dims.total
    if np.shape(rho) != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {basis.dims}, got {np.shape(rho)}")
    return _in_subspace(basis.dims, rho, rtol)


def antidiag_sums(M: np.ndarray) -> np.ndarray:
    """Sums over the anti-diagonals {(r, c) : r + c = t} of a matrix.

    Returns the rows+cols-1 sums for t = 0 ... rows+cols-2.  Realigned
    members of the NPT subspace have all sums equal to zero.  Raises
    ShapeMismatch unless M is 2-D.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {M.shape}")
    return _antidiagonals(BipartiteDims(*M.shape))[0] @ M.ravel()


def ensemble_from_density(rho: DensityMatrix, rel_tol: float = 1e-10) -> Ensemble:
    """Spectral ensemble of a state, discarding negligible eigenvalues.

    Keeps eigenpairs with eigenvalue > rel_tol * lambda_max and renormalizes
    the weights to sum to 1.
    """
    spec = eigh(rho.mat)
    w, V = spec.eigenvalues, spec.eigenvectors
    keep = w > rel_tol * float(w[-1])
    probs = w[keep]
    return Ensemble(rho.dims, probs / probs.sum(), V[:, keep])


def _as_ensemble(state, basis: SubspaceBasis) -> Ensemble:
    if isinstance(state, Ensemble):
        ens = state
    elif isinstance(state, DensityMatrix):
        ens = ensemble_from_density(state)
    else:
        raise TypeError(f"expected Ensemble or DensityMatrix, got {type(state)!r}")
    if ens.dims != basis.dims:
        raise ShapeMismatch(f"dims mismatch: {ens.dims} vs {basis.dims}")
    for idx, (_, v) in enumerate(ens):
        if not contains(basis, v):
            raise NotInSubspace(f"ensemble vector {idx} is not in the subspace")
    return ens


def locate_witness(state, basis: SubspaceBasis | None = None) -> WitnessCertificate:
    """Locate a negative-determinant 2x2 principal submatrix of rho^Gamma.

    ``state`` is an Ensemble or DensityMatrix supported on the NPT subspace
    (checked; raises NotInSubspace otherwise).  The search works on the
    m x n coefficient matrices C_i[j, k] = <jk|v_i>:

    1. find the smallest anti-diagonal index t* carrying an entry of
       magnitude > 1e-10 in any C_i;
    2. enumerate that anti-diagonal from largest row index to smallest and
       take a_i at the first position that is nonzero for some i;
    3. take b_i at the next position where sum_i p_i conj(a_i) b_i is
       nonzero (one always exists because every anti-diagonal of a
       realigned subspace member sums to zero).

    The returned certificate pins the submatrix at rows/columns
    alpha = (row of b, col of a) and beta = (row of a, col of b); its
    determinant equals -|sum_i p_i conj(a_i) b_i|^2 < 0, certifying a
    negative eigenvalue of rho^Gamma by eigenvalue interlacing.

    Ties are broken toward the smallest anti-diagonal, then the smallest
    positions, so certificates are deterministic.
    """
    if isinstance(state, (Ensemble, DensityMatrix)) and basis is None:
        basis = build_subspace(state.dims)
    ens = _as_ensemble(state, basis)
    m, n = basis.dims.m, basis.dims.n
    probs = ens.probs
    coeff = [v.reshape(m, n) for _, v in ens]

    for t in range(m + n - 1):
        # rows on anti-diagonal t, from largest row index to smallest
        rows = list(range(min(m - 1, t), max(0, t - (n - 1)) - 1, -1))
        diag = np.array([[C[j, t - j] for j in rows] for C in coeff])
        mags = np.abs(diag).max(axis=0)
        if not np.any(mags > ENTRY_NONZERO_TOL):
            continue
        j0 = int(np.argmax(mags > ENTRY_NONZERO_TOL))
        a = diag[:, j0]
        for j1 in range(j0 + 1, len(rows)):
            mix = complex(np.sum(probs * np.conj(a) * diag[:, j1]))
            if abs(mix) > ENTRY_NONZERO_TOL:
                return _certificate(ens, basis.dims, t, rows[j0], rows[j1], mix)
        raise NoWitness(
            f"anti-diagonal {t} has a nonzero entry but every pairing "
            f"washed out; |a| = {np.abs(a).max():.3e} (numerically "
            "inconsistent with the anti-diagonal sum rule)"
        )
    raise NoWitness("all ensemble vectors are numerically zero")


def _certificate(
    ens: Ensemble, dims: BipartiteDims, t: int, row_a: int, row_b: int, mix: complex
) -> WitnessCertificate:
    """Assemble the certificate and cross-check it against rho^Gamma."""
    n = dims.n
    col_a, col_b = t - row_a, t - row_b
    alpha = (row_b, col_a)  # zero corner: above the first nonzero anti-diagonal
    beta = (row_a, col_b)
    ai = alpha[0] * n + alpha[1]
    bi = beta[0] * n + beta[1]
    # the state of an already validated ensemble: no second DensityMatrix check
    rho = hermitize((ens.vectors * ens.probs) @ ens.vectors.conj().T)
    rho_pt = partial_transpose(rho, dims)
    sub = rho_pt[np.ix_([ai, bi], [ai, bi])].copy()
    det = float((sub[0, 0] * sub[1, 1]).real - abs(sub[0, 1]) ** 2)
    return WitnessCertificate(
        alpha=alpha,
        beta=beta,
        antidiag_index=t,
        submatrix=sub,
        determinant=det,
        mixture_sum=mix,
    )


def sample_mixture_in_subspace(
    basis: SubspaceBasis, rank: int, rng: np.random.Generator
) -> Ensemble:
    """Random mixture of ``rank`` unit vectors drawn from the subspace.

    The rank is capped at the subspace dimension.  Coefficients are
    standard complex Gaussians over the orthonormal basis; weights are a
    flat Dirichlet draw.  Deterministic given the generator.  Raises
    BadRank for a rank below 1.
    """
    if rank < 1:
        raise BadRank(f"rank must be at least 1, got {rank}")
    k = basis.dim
    if k == 0:
        raise NotInSubspace("subspace is zero-dimensional; nothing to sample")
    r = min(rank, k)
    Q = basis.orthonormal
    cols = []
    while len(cols) < r:
        v = Q @ complex_gaussians(k, rng)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            cols.append(v / norm)
    weights = -np.log(1.0 - rng.random(r))
    weights /= weights.sum()
    return Ensemble(basis.dims, weights, np.array(cols).T)
