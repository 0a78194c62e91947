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
S is the kernel of the multiplication map x^j (x) y^k -> t^(j+k),
Parthasarathy's completely entangled subspace, and the binomially weighted
indicators give a state whose partial transpose is negative definite on S
in closed form (``closed_form_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bipartite import (
    BipartiteDims,
    DensityMatrix,
    Ensemble,
    _box_muller,
    _ensemble_error,
    _integer,
    _mixture,
    _uniform_rows,
    freeze,
    partial_transpose,
)
from .errors import BadRank, DegenerateSubspace, NoWitness, NotInSubspace, ShapeMismatch
from .linalg import eigh

CONTAINS_RTOL = 1e-9
ENTRY_NONZERO_TOL = 1e-10
ENSEMBLE_EIG_RTOL = 1e-10
#: A sampled column of norm at or below this is drawn again.
SAMPLE_NORM_FLOOR = 1e-8


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
    j0 < j1 and k0 < k1; their flat indices are j*n + k.  mixture_sum is
    rho[b, a] (b = (j0, k1), a = (j1, k0)), which equals
    sum_i p_i conj(a_i) b_i for every ensemble {(p_i, v_i)} of rho.  The
    determinant, negative, is rho[alpha, alpha] rho[beta, beta] -
    |mixture_sum|^2.  On t*, the first anti-diagonal with a nonzero
    diagonal entry, the search read alpha's diagonal as zero (at most
    CONTAINS_RTOL ||rho||_F), so it equals -|mixture_sum|^2 to within that
    scale; a certificate found past t* reads it as the state's own value.
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


def _in_subspace(dims: BipartiteDims, M: np.ndarray):
    """Whether ||(I - P) M|| = ||diag(N)^(-1/2) A M|| <= CONTAINS_RTOL ||M||
    (Frobenius norms) for a vector or matrix M, or for each matrix of a stack
    (k, mn, mn): the package's one containment rule.  The real weighted
    indicators multiply the real and imaginary parts of M apart: one
    complex product made the 8 x 8 npt suite about 8% slower (2 vCPUs, one
    BLAS thread).  One bool, or an array of one per matrix of a stack."""
    A, w = _antidiagonals(dims)
    B = A * np.sqrt(w)[:, None]
    axes = (-2, -1)[-M.ndim:]
    leak = np.sqrt(sum(np.square(B @ part).sum(axis=axes) for part in (M.real, M.imag)))
    ok = leak <= CONTAINS_RTOL * np.linalg.norm(M, axis=axes)
    return ok if M.ndim > 2 else bool(ok)


def subspace_projector(basis: SubspaceBasis) -> Projector:
    """Orthogonal projector P = I - sum_t |w_t><w_t| / N_t onto S, exactly real and sector-block."""
    A, w = _antidiagonals(basis.dims)
    return Projector(basis.dims, np.eye(basis.dims.total, dtype=complex) - (A.T * w) @ A)


def closed_form_state(dims: BipartiteDims) -> DensityMatrix:
    """The extremal state rho = (T^Gamma - lambda D) / Tr(T - lambda D), with
    no solver.

    T[(j,k), (j',k')] = [j+k = j'+k'] / C(m+n-2, j+k) is supported on the
    complement of S, D = diag(1 / (C(m-1, j) C(n-1, k))) and
    lambda = 1 / C(m+n-2, m-1).  D is diagonal, so rho^Gamma is proportional
    to T - lambda D, which is -lambda D < 0 on S: rho^Gamma has (m-1)(n-1)
    negative eigenvalues, the paper's maximum.  The local congruence
    W = diag(C(m-1, j)^(1/2) C(n-1, k)^(1/2)) maps S to the complement of
    the top spin-(m+n-2)/2 irrep of two spins and takes T to that irrep's
    projector and D to I, which gives rho >= 0 of rank (m-1)(n-1)
    (Parthasarathy, Proc. Indian Acad. Sci. 114, 365 (2004); Breuer,
    J. Phys. A 38, 9019 (2005)).

    Built in float from ``math.comb``, with no solver and no
    eigendecomposition: rho is real, block-diagonal by j-k sector, and
    passes DensityMatrix's checks with lambda_min about -1e-16.  Its
    smallest |negative| partial-transpose eigenvalue shrinks fast (1.35e-6
    at 7 x 7, 5.7e-10 at 10 x 10), so the float count of
    ``count_negative_eigenvalues`` is full at every m <= n <= 10 and at
    2 x n up to n = 28, and falls short beyond (70 of 100 at 11 x 11).
    Raises DegenerateSubspace at m = 1 or n = 1, where S is trivial.
    """
    return DensityMatrix(dims, _closed_form(dims))


def _closed_form(dims: BipartiteDims) -> np.ndarray:
    """The matrix of ``closed_form_state``, unvalidated (the direct route
    validates the state it returns)."""
    m, n = dims.m, dims.n
    if dims.npt_dim == 0:
        raise DegenerateSubspace(f"NPT subspace is trivial at dims {dims}")
    j, k = np.divmod(np.arange(dims.total), n)
    t = j + k
    weight = np.array([1.0 / math.comb(m + n - 2, s) for s in range(m + n - 1)])[t]
    T = np.where(t[:, None] == t[None, :], weight[:, None], 0.0)
    D = np.array([1.0 / (math.comb(m - 1, a) * math.comb(n - 1, b))
                  for a, b in zip(j.tolist(), k.tolist())])
    rho = partial_transpose(T, dims) - np.diag(D) / math.comb(m + n - 2, m - 1)
    return rho / np.trace(rho)


def contains(basis: SubspaceBasis, v: np.ndarray) -> bool:
    """Whether ||(I - P) v|| <= CONTAINS_RTOL * ||v||."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (basis.dims.total,):
        raise ShapeMismatch(f"expected vector of length {basis.dims.total}")
    return _in_subspace(basis.dims, v)


def range_in_subspace(basis: SubspaceBasis, rho: DensityMatrix | np.ndarray) -> bool:
    """Whether ||(I - P) M||_F <= CONTAINS_RTOL * ||M||_F for M = rho (a state or any
    mn x mn matrix): range(M) lies in S exactly when (I - P) M = 0.

    The sandwich (I - P) M (I - P) would not do for a matrix that is not
    PSD: it also vanishes for |a><b| + |b><a| with a in S and b outside.
    """
    if isinstance(rho, DensityMatrix):
        if rho.dims != basis.dims:
            raise ShapeMismatch(f"dims mismatch: {rho.dims} vs {basis.dims}")
        rho = rho.mat
    rho, d = np.asarray(rho), basis.dims.total
    if rho.shape != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {basis.dims}, got {rho.shape}")
    return _in_subspace(basis.dims, rho)


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


def ensemble_from_density(rho: DensityMatrix) -> Ensemble:
    """Spectral ensemble of a state, discarding negligible eigenvalues.

    Keeps eigenpairs with eigenvalue > ENSEMBLE_EIG_RTOL * lambda_max and
    renormalizes the weights to sum to 1.
    """
    spec = eigh(rho.mat)
    w, V = spec.eigenvalues, spec.eigenvectors
    keep = w > ENSEMBLE_EIG_RTOL * float(w[-1])
    probs = w[keep]
    return Ensemble(rho.dims, probs / probs.sum(), V[:, keep])


def locate_witness(state, basis: SubspaceBasis | None = None) -> WitnessCertificate:
    """Locate a negative-determinant 2x2 principal submatrix of rho^Gamma.

    ``state`` is an Ensemble (its mixture rho = sum_i p_i |v_i><v_i|) or a
    DensityMatrix rho; ``basis``, when given, must have the state's dims.
    The search reads only rho and rho^Gamma, with no eigendecomposition:

    1. rho's range must lie in S by the rule of ``range_in_subspace``,
       ||(I - P) rho||_F <= CONTAINS_RTOL ||rho||_F (raises NotInSubspace
       otherwise);
    2. take the smallest anti-diagonal t* (t = j + k) with a diagonal
       entry rho[a, a] > CONTAINS_RTOL ||rho||_F, and a the first such
       position on it from the largest row index down (an entry at or
       below that scale counts as zero, so a state the rule accepts is
       never sent to an anti-diagonal whose only entry is round-off);
    3. take b at the next position on t* with |rho[b, a]| >
       ENTRY_NONZERO_TOL.  rho[b, a] is the mixture sum
       sum_i p_i conj(a_i) b_i of every ensemble of rho, and one such b
       exists because every anti-diagonal of a realigned member of S sums
       to zero.

    The returned certificate pins the submatrix at rows/columns
    alpha = (row of b, col of a) and beta = (row of a, col of b); its
    determinant, rho[alpha, alpha] rho[beta, beta] - |rho[b, a]|^2 with
    alpha on an anti-diagonal before t*, is negative, certifying a
    negative eigenvalue of rho^Gamma by eigenvalue interlacing.  A state
    with weight near the zero scale on its first anti-diagonals can lack a
    negative block on t* (the boundary state of the tests: det +7.5e-11 on
    t* = 1 at 3 x 3); the search then certifies the first negative block
    on a later anti-diagonal, a as in step 2 and b the first later one with
    |rho[b, a]| > ENTRY_NONZERO_TOL whose block is negative (there: t = 2,
    det -1/16).

    Ties are broken toward the smallest anti-diagonal, then the smallest
    positions, so certificates are deterministic.  This is the stacked
    search ``_witnesses`` on a stack of one; ``run_npt_suite`` runs it on
    whole chunks of states.  Raises NoWitness, naming the block on t*, only
    where no anti-diagonal has a negative block.
    """
    if isinstance(state, Ensemble):
        rho = _mixture(state.vectors, state.probs)
    elif isinstance(state, DensityMatrix):
        rho = state.mat
    else:
        raise TypeError(f"expected Ensemble or DensityMatrix, got {type(state)!r}")
    if basis is not None and state.dims != basis.dims:
        raise ShapeMismatch(f"dims mismatch: {state.dims} vs {basis.dims}")
    found = _witnesses(rho[None], partial_transpose(rho, state.dims)[None], state.dims)
    if found.errors[0] is not None:
        raise found.errors[0]
    return found.certificate(0)


@cache
def _search_order(dims: BipartiteDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices j*n + k in the witness search order (anti-diagonal
    t = j + k ascending, row j descending within one), with the t and j of
    each."""
    j, k = np.divmod(np.arange(dims.total), dims.n)
    order = np.lexsort((-j, j + k))
    out = order, (j + k)[order], j[order]
    for arr in out:
        arr.flags.writeable = False  # shared by every caller
    return out


@dataclass(frozen=True)
class _Witnesses:
    """The witness search on a stack of k states, one entry per state.

    ``errors[i]`` is the exception ``locate_witness`` raises for state i,
    or None; the other fields are meaningful only where it is None.
    """

    antidiag_index: np.ndarray
    row_a: np.ndarray
    row_b: np.ndarray
    mixture_sum: np.ndarray
    submatrix: np.ndarray  # (k, 2, 2) block of rho^Gamma at (alpha, beta)
    determinant: np.ndarray
    errors: list

    def certificate(self, i: int) -> WitnessCertificate:
        t, row_a, row_b = (int(x[i]) for x in (self.antidiag_index, self.row_a, self.row_b))
        return WitnessCertificate(
            alpha=(row_b, t - row_a),  # zero corner: above the first nonzero anti-diagonal
            beta=(row_a, t - row_b),
            antidiag_index=t,
            submatrix=self.submatrix[i].copy(),
            determinant=float(self.determinant[i]),
            mixture_sum=complex(self.mixture_sum[i]),
        )


def _witnesses(rho: np.ndarray, rho_pt: np.ndarray, dims: BipartiteDims) -> _Witnesses:
    """Run the search of ``locate_witness`` on k states at once.

    ``rho`` (k, mn, mn) holds the states and ``rho_pt`` (k, mn, mn) their
    partial transposes.  Containment is ``_in_subspace`` on the stack; the
    positions a come from the diagonals, the positions b and the mixture
    sums rho[b, a] from each state's column a, read in the search order.
    """
    k, n = len(rho), dims.n
    inside = _in_subspace(dims, rho)
    order, t_of, j_of = _search_order(dims)
    rows = np.arange(k)
    diag = rho.diagonal(axis1=-2, axis2=-1).real[:, order]
    zero = CONTAINS_RTOL * np.linalg.norm(rho, axis=(-2, -1))
    first = (diag > zero[:, None]).argmax(axis=1)
    t = t_of[first]
    mix = rho[rows, :, order[first]][:, order]  # rho[b, a] for b in search order
    later = (np.arange(dims.total) > first[:, None]) & (t_of == t[:, None])
    paired = later & (np.abs(mix) > ENTRY_NONZERO_TOL)
    has_b = paired.any(axis=1)
    second = np.where(has_b, paired.argmax(axis=1), first)
    row_a, row_b = j_of[first], j_of[second]
    corners = np.stack([row_b * n + t - row_a, row_a * n + t - row_b], axis=-1)
    sub = rho_pt[rows[:, None, None], corners[:, :, None], corners[:, None, :]]
    det = (sub[:, 0, 0] * sub[:, 1, 1]).real - np.abs(sub[:, 0, 1]) ** 2
    mix_ba = mix[rows, second]

    errors = [None] * k
    for i in np.flatnonzero(~inside | ~has_b | ~(det < 0)).tolist():
        past = _past_first(rho[i], rho_pt[i], diag[i], zero[i], t[i], dims) if inside[i] else None
        if past is not None:
            t[i], row_a[i], row_b[i], mix_ba[i], sub[i], det[i] = past
        elif not inside[i]:
            errors[i] = NotInSubspace(
                f"||(I - P) rho||_F > {CONTAINS_RTOL:g} ||rho||_F: the range is not in S")
        else:
            why = (f"its block with b = |{row_b[i]},{t[i] - row_b[i]}> has determinant "
                   f"{det[i]:.3e}, not negative" if has_b[i]
                   else f"no later |rho[b, a]| exceeds {ENTRY_NONZERO_TOL:g}")
            errors[i] = NoWitness(f"anti-diagonal {t[i]}, a = |{row_a[i]},{t[i] - row_a[i]}> "
                                  f"(rho[a, a] = {diag[i, first[i]]:.3e}): {why}")
    return _Witnesses(t, row_a, row_b, mix_ba, sub, det, errors)


def _past_first(rho, rho_pt, diag, zero: float, t_star: int, dims: BipartiteDims):
    """(t, row_a, row_b, rho[b, a], block, determinant) of one state's first
    negative block after anti-diagonal t_star, by the rule that
    ``locate_witness`` states, or None; ``diag`` is in search order."""
    order, t_of, j_of = _search_order(dims)
    for t in range(t_star + 1, dims.m + dims.n - 1):
        on = np.flatnonzero(t_of == t)
        big = on[diag[on] > zero]
        for b in on[on > big[0]] if big.size else ():
            a, row_a, row_b = order[big[0]], j_of[big[0]], j_of[b]
            corners = np.array([row_b * dims.n + t - row_a, row_a * dims.n + t - row_b])
            sub = rho_pt[np.ix_(corners, corners)]
            det = (sub[0, 0] * sub[1, 1]).real - abs(sub[0, 1]) ** 2
            if abs(rho[order[b], a]) > ENTRY_NONZERO_TOL and det < 0:
                return t, row_a, row_b, rho[order[b], a], sub, det
    return None


def sample_mixture_in_subspace(
    basis: SubspaceBasis, rank: int, rng: np.random.Generator
) -> Ensemble:
    """Random mixture of ``rank`` unit vectors drawn from the subspace.

    The rank is capped at the subspace dimension.  Coefficients are
    standard complex Gaussians over the orthonormal basis; weights are a
    flat Dirichlet draw.  Deterministic given the generator: the stacked
    sampler ``_sample_mixtures`` on a stack of one.  Raises BadRank for a
    rank that is not an integer of at least 1.
    """
    if _integer("rank", rank, BadRank) < 1:
        raise BadRank(f"rank must be at least 1, got {rank}")
    if basis.dim == 0:
        raise NotInSubspace("subspace is zero-dimensional; nothing to sample")
    vectors, probs = _sample_mixtures(basis, min(rank, basis.dim), [rng])
    return Ensemble(basis.dims, probs[0], vectors[0])


def _sample_mixtures(
    basis: SubspaceBasis, r: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """The vectors (k, mn, r) and weights (k, r) of k mixtures of r unit
    vectors in S, 1 <= r <= dim S, one from each of k generators.

    Each generator makes one draw: r columns of 2 dim S uniforms, then r
    for the weights; Box-Muller, the basis map and the normalization run
    over the whole stack.  A column of norm <= SAMPLE_NORM_FLOOR is
    discarded and drawn again from the uniforms that follow it, as a
    column-by-column sampler would.  Raises ValueError where a mixture
    fails the checks of Ensemble.
    """
    width = 2 * basis.dim
    u = _uniform_rows(rngs, width * r + r)
    vectors, probs, norms = _mixture_draws(basis.orthonormal, u, r)
    for i in np.flatnonzero((norms <= SAMPLE_NORM_FLOOR).any(axis=1)).tolist():
        row = u[i]
        while (bad := np.flatnonzero(norms[i] <= SAMPLE_NORM_FLOOR)).size:
            # drop the first short column's uniforms; the stream reads on
            c = int(bad[0])
            row = np.concatenate([row[:width * c], row[width * (c + 1):], rngs[i].random(width)])
            v, p, nrm = _mixture_draws(basis.orthonormal, row[None], r)
            vectors[i], probs[i], norms[i] = v[0], p[0], nrm[0]
    error = _ensemble_error(vectors, probs)
    if error is not None:
        raise ValueError(error)
    return vectors, probs


def _mixture_draws(Q: np.ndarray, u: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit columns (k, mn, r), Dirichlet weights (k, r) and the norms (k, r)
    the columns had before scaling, from rows of uniforms (k, 2 dim(S) r + r).

    The arithmetic of a single draw, item by item: Q @ z as one matrix-vector
    product per column, each squared norm as the dot products of its real
    and imaginary parts, so a stacked draw is bit-identical to a lone one.
    """
    k, width = len(u), 2 * Q.shape[1]
    z = _box_muller(u[:, :width * r].reshape(k, r, width))
    v = (Q @ z[..., None])[..., 0]  # (k, r, mn)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    weights = -np.log(1.0 - u[:, width * r:])
    weights /= weights.sum(axis=-1, keepdims=True)
    return (v / norms[..., None]).swapaxes(-1, -2), weights, norms
