"""Semidefinite programs behind the extremal-state constructions.

Two problems (G = partial transpose):

* ``solve_construction_sdp``   maximize d subject to rho^G <= I - d P over
  density matrices rho;
* ``optimize_over_ppt``        maximize a Hermitian objective <W, sigma>
  over the PPT states {sigma >= 0, sigma^G >= 0, Tr sigma = 1}.

Both run on one splitting core, ``_split``.  The dual-cone route,
``construct_via_dual_cone``, needs no iteration beyond the PPT
maximization that certifies c: a PSD pair (Y1, Y2) certifying
lambda_max(W + Y1 + Y2^G) <= t gives t I - W - Y2^G >= Y1 >= 0, so the
dual pair of the certified maximum of <P, sigma> already splits
X = I - P / c into X1 + X2^G with X1, X2 >= 0.  The paper's claim needs
only a certified c < 1 (or d > 1), not c (or d) to within a gap, so each
route stops at the first certify round that certifies its claim with a
state of the full count, rank P negative partial-transpose eigenvalues.
The dual-cone route stops the PPT solve at the first round whose pair
certifies c < 1 and whose state X2 / Tr(X2) has the count (at 9 x 9:
18,200 iterations instead of the 40,700 that close the bracket to 1e-6);
the direct route stops at the first round whose feasible state certifies
d > 1 and has the count.  The direct route's bracket starts at the
closed-form state (``subspace.closed_form_state``) when that state
already certifies the claim, as it does for the NPT projector from 2 x 2
to 10 x 10; the solve then stops at its first certify round (iteration
50), which supplies the dual bound (at 7 x 7: 50 iterations, where the
unseeded gap closes around 1 after 550 with 33 of 36 negatives).  The
seed moves only the bracket's starting lower end, never the iterates, and
an input it does not claim for runs exactly as without it.

``_split`` is an over-relaxed iteration between an affine set and the
product of two PSD cones, on one entry vector [z1; z2] for both cones,
with scaled duals and a penalty beta.  It is written as a fixed point of
s = z + u, the cone iterate plus its scaled dual, and after 200 plain
iterations it is Anderson-accelerated (type II, memory 10; Walker & Ni,
SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM J. Optim.
2020).  That cuts the iteration count on every block layout (the PPT
solve on the NPT projector to 1e-6 at 7 x 7: 6,500 -> 1,400; at 9 x 9:
93,400 -> 40,700), while every solve that certifies within 200
iterations keeps the plain arithmetic.
Every 100 iterations beta is rebalanced from the relative residuals
||x - z|| / max(||x||, ||z||) and ||z - z_old|| / ||u||: states have
trace 1, so their entries are O(1/d) while the scaled dual beta u is O(1),
and absolute residuals would differ by that scale alone.  Each problem
supplies only two steps:

* its affine step, the closed-form proximal point of its affine set:
  pairs (rho, S) with S = I - d P - rho^G and Tr rho = 1 for the
  construction, pairs (sigma, sigma^G) with Tr sigma = 1 (pulled along
  W / beta) for the PPT maximization;
* its certify step, a pure map from the current iterates to candidate
  bounds and the certificates that attain them.  ``_split`` alone keeps
  the certified bracket and decides the stop (its docstring states the
  contract): once the certified gap closes, or once the route's claim is
  certified.

The iterates live on sector blocks when the input (P, or W) is real and
zero outside the j+k sectors, as the NPT projector is.  Every iterate is
then real and block-diagonal, by j+k sector in the input's picture and by
j-k sector in the partially transposed one: m+n-1 blocks of size at most
min(m, n).  A PSD projection is one batched real eigh over the padded
block stack, and the partial transpose is a fixed gather between the two
pictures.  Any other input runs the same code on one complex block that
holds all mn x mn entries.  Every PSD projection of entry vectors, in
the iteration and in the certify steps, goes through ``_ConePair``: both
cones share one batched eigh over one buffer, allocated once per solve.

A sector-block input that is also invariant under the local reflection
(j, k) -> (m-1-j, n-1-k), flat index i -> d-1-i, as P is exactly,
keeps every iterate invariant: the splitting starts at I/d and every step
is equivariant.  The reflection maps block i onto block K-1-i, entry
(r, c) onto (b-1-r, b-1-c), so the blocks fall into mirror orbits, and a
middle block (odd K) is its own orbit.  The PSD projection then
decomposes only the (ceil(K/2), s, s) stack of orbit representatives and
reads every entry back from its representative's slot (the orbit gather
``src``), which halves the batched eigh (symmetry reduction as in
Gatermann & Parrilo, JPAA 2004).  Any other input gets trivial orbits,
one per block, and runs the same code.  Entry vectors stay full length,
and the certify steps still see every block.

Two further reductions are not used.  At 6 x 6 (one Xeon vCPU, OpenBLAS,
one thread) the padded (2, 11, 6, 6) eigh takes about 118 us, per-size
stacks 93 us, the reflection half (2, 6, 6, 6) 62 us and per-size stacks
of the half 68 us, so unpadded stacks gain nothing on top of the half.
The m = n party swap would split the half into (2, 12, 3, 3) at 40 us,
but it needs an orthogonal change of basis inside each block, after
which the partial transpose is no longer a gather.

Solver internals are never trusted: every reported objective is certified
post hoc from rounded iterates.  Lower bounds come from exactly feasible
points, upper bounds from exactly verifiable dual certificates (the PSD
parts of -beta u).
The construction rounds its cone iterate to a state and finds the largest
feasible shift d; the PPT maximization normalizes its cone iterate, PSD
already, and contracts it toward I/d until its partial transpose is PSD
too.  The certify steps run on the same block layout as the iteration:
they are block projections, gathers and block eigenvalues, with the
padding of the block stack kept out of every extreme eigenvalue.  On exit
the returned bounds are recomputed dense from the returned state and dual
certificate (the construction's lower bound is rechecked by its dense
residuals), so a block layout can cost iterations but can never certify a
wrong bound.

Every entry point takes its input (P or W) as a Hermitian mn x mn
matrix, or as a Projector of the same dims, and raises ShapeMismatch or
NotHermitian (NaN entries included) for anything else, before any
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bipartite import (
    BipartiteDims,
    DensityMatrix,
    _integer,
    count_negative_eigenvalues,
    partial_transpose,
)
from .errors import DegenerateSubspace, NoConvergence, ShapeMismatch
from .linalg import _clamp_psd, _hermitian_part, eigvalsh, frob_inner, hermitize
from .subspace import Projector, _closed_form

#: Default splitting-iteration budget per solve.
DEFAULT_MAX_ITER = 200_000

#: Default tolerances: the construction's certified gap ``tol_gap`` and the
#: dual-cone route's bracket on c, ``tol_c``, at which each route stops if
#: no earlier certify round certifies its claim with the full count.
DEFAULT_TOL_GAP = 1e-4
DEFAULT_TOL_C = 1e-6

#: Largest dense violation lambda_max(rho^G + d P - I) the construction
#: accepts for its returned (rho, d).
_TOL_FEAS = 1e-7

_OVER_RELAX = 1.7

#: Anderson acceleration of ``_split``: history length, first accelerated
#: iteration, and Tikhonov weight of the normal equations (relative to
#: their trace).
_AA_MEMORY = 10
_AA_START = 200
_AA_REG = 1e-5

#: Largest entry of |M - M reflected| (relative to max(1, max |M|)) for
#: which the solvers treat M as reflection-invariant (the NPT projector: 0;
#: a numerical Q Q^dagger: about 4e-16); no certify step resolves 1e-14.
_MIRROR_TOL = 1e-14


def _tr(M: np.ndarray) -> float:
    return float(np.trace(M).real)


@dataclass(frozen=True)
class SdpSolution:
    """Certified output of the construction program."""

    d: float
    rho: DensityMatrix
    residuals: dict[str, float]
    iterations: int
    converged: bool
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class PptOptimum:
    """Certified optimum of a linear objective over the PPT states.

    ``dual_basis`` holds the PSD pair (Y1, Y2) realizing the dual bound
    lambda_max(W + Y1 + Y2^G) = upper_bound on the maximum.
    """

    value: float
    sigma: DensityMatrix
    lower_bound: float
    upper_bound: float
    iterations: int
    converged: bool
    dual_basis: tuple[np.ndarray, np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class ConeDecomposition:
    """Dual-cone route output: c, X = I - (1/c) P, the split, and the state.

    [c_lower, c] is the certified bracket on the PPT maximum of <P, sigma>;
    X is built from its upper end c.  ``iterations`` counts the splitting
    iterations of the PPT solve that certifies c; the split itself takes
    none.  X = X1 + X2^G holds by construction; how near the split is to
    failing shows in lambda_min(X1).
    """

    c: float
    c_lower: float
    X: np.ndarray = field(repr=False)
    X1: np.ndarray = field(repr=False)
    X2: np.ndarray = field(repr=False)
    rho: DensityMatrix = field(repr=False)
    iterations: int


def _solver_input(M, dims: BipartiteDims) -> np.ndarray:
    """Hermitian part of a solver input, a Projector or a matrix.

    Raises ShapeMismatch for a Projector of other dims than ``dims`` and
    for a non-square M, and NotHermitian for an M that fails the
    Hermiticity check, which a NaN entry always does.
    """
    if isinstance(M, Projector):
        if M.dims != dims:
            raise ShapeMismatch(f"projector of dims {M.dims} given for dims {dims}")
        M = M.P
    return _hermitian_part(M)


def _check_trace(dims: BipartiteDims, Pmat: np.ndarray) -> float:
    """Tr P, or DegenerateSubspace unless it is positive (as at m = 1 or n = 1)."""
    k = _tr(Pmat)
    if not k > 0.0:
        raise DegenerateSubspace(f"construction needs a P of positive trace, got Tr P = {k!r} at dims {dims}")
    return k


def _check_budget(max_iter: int, **tols: float) -> None:
    """Raise ValueError unless ``max_iter`` is an integer of at least 1 and
    every named tolerance is finite and positive.

    Without an iteration no certify step runs, so there is no bound; a
    count that is not an integer, or a NaN, infinite, zero or negative
    tolerance, would otherwise fail only after the set-up or after the
    whole iteration budget.
    """
    if _integer("max_iter", max_iter) < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    for name, tol in tols.items():
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


# --------------------------------------------------------------------------
# sector layout of the iterates
# --------------------------------------------------------------------------

class _Picture:
    """The mn x mn matrices supported on a fixed set of diagonal blocks.

    The blocks are the classes of ``labels`` (one label per basis index).
    Such a matrix is stored as the flat vector of its block entries, block
    after block, each block row-major: ``flat`` holds the dense flat index
    of every entry, ``stack`` its flat index in the zero-padded (K, s, s)
    stack of blocks, ``diag`` the positions of the diagonal entries.
    ``pad`` lists the padded diagonal slots of the stack and ``live`` marks,
    per block, the first (block size) of its s eigenvalue slots.  ``pt`` is
    set by ``_pictures``: the partial transpose of x, stored in the other
    picture, is ``x[pt]``.

    With ``mirror`` the matrices are taken to be invariant under the
    reflection of the basis, flat index i -> d-1-i: block i is block K-1-i
    with its entry (r, c) at (b-1-r, b-1-c).  The PSD projection
    (``_ConePair``) then needs only the orbit representatives, the first
    ceil(K/2) blocks: their entries, a prefix of the entry vector, go to
    the slots ``rep`` of the (ceil(K/2), s, s) stack ``orbits``, and
    ``src`` holds, for every entry, the slot it is read back from.  Without ``mirror`` every block
    represents itself and ``src`` is ``stack``.
    """

    def __init__(self, labels: np.ndarray, dtype, mirror: bool = False):
        d = labels.size
        self.d, self.dtype = d, dtype
        blocks = [np.flatnonzero(labels == s) for s in sorted(set(labels.tolist()))]
        sizes = np.array([b.size for b in blocks])
        s_max = int(sizes.max())
        K = len(blocks)
        half = (K + 1) // 2 if mirror else K
        self.shape = (K, s_max, s_max)
        self.orbits = (half, s_max, s_max)
        flat, stack, src = [], [], []
        for i, b in enumerate(blocks):
            r, c = np.divmod(np.arange(b.size * b.size), b.size)
            flat.append(b[r] * d + b[c])
            stack.append((i * s_max + r) * s_max + c)
            if i >= half:
                i, r, c = K - 1 - i, b.size - 1 - r, b.size - 1 - c
            src.append((i * s_max + r) * s_max + c)
        self.flat = np.concatenate(flat)
        self.stack = np.concatenate(stack)
        self.src = np.concatenate(src)
        self.rep = self.stack[:int((sizes[:half] ** 2).sum())]
        self.diag = np.flatnonzero(self.flat // d == self.flat % d)
        self.live = np.arange(s_max) < sizes[:, None]
        k, t = np.nonzero(~self.live)
        self.pad = (k * s_max + t) * s_max + t
        self.eye = np.zeros(self.flat.size, dtype)
        self.eye[self.diag] = 1.0

    def pack(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M)
        return (M.real if self.dtype is float else M).reshape(-1)[self.flat]

    def unpack(self, x: np.ndarray) -> np.ndarray:
        M = np.zeros(self.d * self.d, dtype=complex)
        M[self.flat] = x
        return M.reshape(self.d, self.d)

    def trace(self, x: np.ndarray) -> float:
        return float(x[self.diag].sum().real)

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """The zero-padded (K, s, s) stack of blocks of x."""
        S = np.zeros(self.shape, self.dtype)
        S.reshape(-1)[self.stack] = x
        return S

    def entries(self, S: np.ndarray) -> np.ndarray:
        """Entry vector of a (K, s, s) stack; the padding is dropped."""
        return S.reshape(-1)[self.stack]

    def padded(self, x: np.ndarray) -> np.ndarray:
        """Block stack of x whose padded diagonal lies above every eigenvalue.

        The padding is set one above a Gershgorin bound (the largest
        absolute row sum of the stack), so in every block the padding's
        eigenvalues lie strictly above the block's own and never mix with
        them.
        """
        S = self.blocks(x)
        if self.pad.size:
            S.reshape(-1)[self.pad] = np.abs(S).sum(axis=-1).max() + 1.0
        return S

    def eigvalsh(self, x: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of unpack(x), one batched eigvalsh.

        In each padded block the padding's eigenvalues sort last and are
        dropped, so none of them can pose as an extreme eigenvalue.
        """
        return np.sort(np.linalg.eigvalsh(self.padded(x))[self.live])


class _ConePair:
    """The product of the PSD cones of pic1 and pic2 on one entry vector
    [x1; x2], x1 in the first picture and x2 in the second.

    ``project`` is the solvers' only PSD projection of entry vectors.  Both
    pictures have the same orbit stack shape, so a projection scatters both
    cones' representatives into one (2, ceil(K/2), s, s) buffer, allocated
    once per pair (once per solve), and runs one batched eigh.  Only the
    representative blocks are decomposed; every entry is read back from its
    representative's slot, so the two blocks of a mirror pair come out
    exact mirror images.  The splitting iterates are exactly Hermitian
    (every step maps Hermitian entry vectors to Hermitian ones), so no
    hermitization precedes the eigh.
    """

    def __init__(self, pic1: _Picture, pic2: _Picture):
        self.n1 = pic1.flat.size
        self.buffer = np.zeros((2,) + pic1.orbits, pic1.dtype)
        size = self.buffer[0].size
        self.take = np.concatenate((np.arange(pic1.rep.size), self.n1 + np.arange(pic2.rep.size)))
        self.put = np.concatenate((pic1.rep, size + pic2.rep))
        self.src = np.concatenate((pic1.src, size + pic2.src))

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:self.n1], x[self.n1:]

    def project(self, x: np.ndarray) -> np.ndarray:
        """PSD projection of [x1; x2], a new vector even when both cones
        are PSD already.  Only the representatives' slots of the buffer are
        ever written, so its padding stays zero."""
        self.buffer.reshape(-1)[self.put] = x[self.take]
        return _clamp_psd(self.buffer).reshape(-1)[self.src]


def _pictures(dims: BipartiteDims, M: np.ndarray) -> tuple[_Picture, _Picture]:
    """Layouts of M's picture and of the partially transposed picture.

    A real M that is zero outside the j+k sectors (as the NPT projector
    is) keeps every iterate real and block-diagonal: by j+k sector in M's
    picture, by j-k sector in the other, with m+n-1 blocks of size at most
    min(m, n) in each.  Any other M gets one complex block of all mn x mn
    entries in both pictures.  A sector-block M that is also invariant
    under the local reflection (j, k) -> (m-1-j, n-1-k), flat index
    i -> d-1-i, to within ``_MIRROR_TOL`` (as the NPT projector is,
    exactly) keeps every iterate invariant too: both pictures then project
    only the mirror orbits' representatives.  Raises ShapeMismatch unless M
    is mn x mn.
    """
    d = dims.total
    M = np.asarray(M)
    if M.shape != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {dims}, got {M.shape}")
    j, k = np.divmod(np.arange(d), dims.n)
    real = not np.iscomplexobj(M) or not M.imag.any()
    if real and not M[(j + k)[:, None] != (j + k)[None, :]].any():
        defect = np.abs(M - M[::-1, ::-1]).max(initial=0.0)
        mirror = bool(defect <= _MIRROR_TOL * np.abs(M).max(initial=1.0))
        a, b = _Picture(j + k, float, mirror), _Picture(j - k, float, mirror)
    else:
        one = np.zeros(d, dtype=int)
        a, b = _Picture(one, complex), _Picture(one, complex)
    perm = partial_transpose(np.arange(d * d).reshape(d, d), dims).ravel()
    for src, dst in ((a, b), (b, a)):
        position = np.empty(d * d, dtype=int)
        position[src.flat] = np.arange(src.flat.size)
        src.pt = position[perm[dst.flat]]
    return a, b


# --------------------------------------------------------------------------
# the splitting core:  affine set  x  (PSD x PSD)
# --------------------------------------------------------------------------

class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map s -> f(s).

    Keeps the last ``_AA_MEMORY`` differences of the plain steps f and of
    their residuals g = f - s in preallocated ring buffers, with the Gram
    matrix of the residual differences updated one row per step.  ``step``
    returns f - dF gamma, gamma the least-squares fit of g by the residual
    differences dG through its Tikhonov-regularized normal equations, with
    real inner products (complex entry vectors are viewed as float pairs).
    The history is cleared by ``reset`` and whenever ||g|| more than
    doubles; the step after a clearing is the plain f (Walker & Ni, SIAM J.
    Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020).
    """

    def __init__(self, s: np.ndarray):
        self.dF = np.zeros((_AA_MEMORY, s.size), s.dtype)
        self.dG = np.zeros_like(self.dF)
        self.gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
        self.reset()

    def reset(self) -> None:
        self.count, self.f, self.g = 0, None, None

    def step(self, s: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The next iterate after s, whose plain step is f."""
        g = f - s
        g_norm = float(np.linalg.norm(g))
        last_f, last_g = self.f, self.g
        restart = last_f is None or g_norm > 2.0 * self.g_norm
        self.f, self.g, self.g_norm = f, g, g_norm
        if restart:
            self.count = 0
            return f
        slot = self.count % _AA_MEMORY
        self.count += 1
        self.dF[slot] = f - last_f
        self.dG[slot] = g - last_g
        k = min(self.count, _AA_MEMORY)
        dG = self.dG[:k].view(float)
        row = dG @ dG[slot]
        self.gram[slot, :k] = row
        self.gram[:k, slot] = row
        A = self.gram[:k, :k]
        reg = _AA_REG * np.trace(A)
        if not reg > 0.0:  # g did not move: nothing to fit
            return f
        gamma = np.linalg.solve(A + reg * np.eye(k), dG @ g.view(float))
        return f - gamma @ self.dF[:k]


def _split(cones: _ConePair, z, affine, certify, lower, dual, tol: float, max_iter: int,
           cert_every: int, stop_lower=None, stop_upper=None):
    """Over-relaxed splitting between an affine set and two PSD cones,
    Anderson-accelerated, that keeps the certified bracket and decides the
    stop.

    The iteration is a fixed point on one entry vector s = z + u of
    ``cones``, the cone iterate z = [z1; z2] = Pi(s) (the PSD projection)
    plus its scaled dual u = s - z.  Starts from the cone point z with
    u = 0 and penalty beta = 1.  Each iteration takes the affine step
    ``affine(z1 - u1, z2 - u2, beta) -> (x1, x2)``, forms the over-relaxed
    plain step f = s + 1.7 (x - z), and projects both cones of the next s
    at once.  After iteration ``_AA_START`` the next s is the type-II
    Anderson extrapolation of the last plain steps (``_Anderson``) instead
    of f itself; z = Pi(s) and u = s - z stay a PSD point and its dual, so
    the certify steps are unchanged.  Every 100 iterations beta is doubled
    or halved (rescaling u) when the relative residuals
    ||x - z|| / max(||x||, ||z||) and ||z - z_old|| / ||u|| are more than
    10x apart, each norm the sum of the two cones' Frobenius norms
    (residual balancing on relative residuals, Wohlberg 2017): the primal
    entries are O(1/d) and the scaled dual beta u is O(1), so absolute
    residuals would differ by scale alone.  A rescale changes the map, so
    it clears the Anderson history.

    The certify contract.  At every ``cert_every``-th and at the last
    iteration, ``certify(z, u, beta) -> (lb, primal, ub, dual)`` maps the
    iterates to candidate bounds and the certificates that attain them: an
    exactly feasible point attaining lb, an exactly verifiable dual
    certificate attaining ub (lb = -inf or ub = inf offers none).  It keeps
    no state.  ``_split`` alone keeps the bracket: the largest lower bound
    with its primal certificate and the smallest upper bound with its dual
    one, starting from ``lower`` = (lb, primal) and (inf, ``dual``).  lb
    is -inf unless the caller seeds the bracket with a certified lower end
    that ``stop_lower`` accepts (the caller asks it), so a finite starting
    lb counts as accepted.  ``stop_lower(lb, primal)`` is asked on every
    improved lower end, ``stop_upper(ub, dual)`` on every improved upper
    end.  The run stops at the first certify round at which
    ub - lb <= ``tol``, the current lower end is accepted, or the improved
    upper end is.  So a seed ends the run at the first certify round, with
    that round's upper bound, unless the round improves the lower end to
    one that ``stop_lower`` rejects.
    Returns (iterations, lb, primal, ub, dual, stopped), ``stopped``
    telling whether a stop predicate ended the run.  ``max_iter`` is at
    least 1 (``_check_budget``), so a certify step always runs.
    """

    def norm(v):
        return sum(np.linalg.norm(c) for c in cones.split(v))

    (lb, primal), ub = lower, np.inf
    accepted = lb > -np.inf
    beta = 1.0
    u = np.zeros_like(z)
    s = z
    anderson = _Anderson(z)
    for it in range(1, max_iter + 1):
        x = np.concatenate(affine(*cones.split(z - u), beta))
        # f = s + 1.7 (x - z), summed as (over-relaxed x) + u, so that the
        # iterations before the acceleration are the plain splitting's
        f = _OVER_RELAX * x + (1.0 - _OVER_RELAX) * z + u
        s = anderson.step(s, f) if it >= _AA_START else f
        z_old, z = z, cones.project(s)
        u = s - z

        if it % 100 == 0:
            # the two relative residuals, cross-multiplied: no division by 0
            r_pri = norm(x - z) * norm(u)
            r_dua = norm(z - z_old) * max(norm(x), norm(z))
            if r_pri > 10.0 * r_dua or r_dua > 10.0 * r_pri:
                scale = 2.0 if r_pri > r_dua else 0.5
                beta *= scale
                u = u / scale
                s = z + u
                anderson.reset()

        if it % cert_every == 0 or it == max_iter:
            lb_cand, primal_cand, ub_cand, dual_cand = certify(z, u, beta)
            if lb_cand > lb:
                lb, primal = lb_cand, primal_cand
                accepted = stop_lower is not None and stop_lower(lb, primal)
            stopped = accepted
            if ub_cand < ub:
                ub, dual = ub_cand, dual_cand
                stopped = stopped or (stop_upper is not None and stop_upper(ub, dual))
            if stopped or ub - lb <= tol:
                break
    return it, lb, primal, ub, dual, stopped


# --------------------------------------------------------------------------
# construction SDP:  maximize d  s.t.  rho^G + d P <= I,  rho a state
# --------------------------------------------------------------------------

def solve_construction_sdp(
    dims: BipartiteDims,
    P,
    tol_gap: float = DEFAULT_TOL_GAP,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Maximize d such that rho^G <= I - d P for some density matrix rho.

    Splitting iteration: the affine block solves the proximal step over
    {(rho, S, d) : S = I - d P - rho^G, Tr rho = 1} in closed form, the cone
    block projects (rho, S) onto PSD x PSD.  Certification (the certify
    contract of ``_split``, every 50 iterations): a rounded state rho and
    its largest feasible shift d are the primal certificate, and a rounded
    dual certificate Y >= 0 with <Y, P> = 1 bounds the optimum from above
    by Tr Y - lambda_min(Y^G).

    The paper's claim is d > 1 with a state of rank P negative
    partial-transpose eigenvalues (rank P is the number of eigenvalues of
    P above 1/2: (m-1)(n-1) for the NPT projector).  The bracket starts
    from the closed-form state when its largest feasible shift, found by
    the same margin-checked ``_max_shift`` as every round's, certifies the
    claim: d > 1 and rank P negatives.  For the NPT projector it does so
    from 2 x 2 to 10 x 10 (at 11 x 11 and up the float count falls short);
    for a rotated P, another projector, a P of rank 0 or m = 1 or n = 1 it
    is skipped, and the lower end starts at (-inf, I/d), with outputs bit
    for bit those of a solve without the seed.  Iteration stops at the first
    certify round whose current lower end claims, the seed included, by
    the package's negativity rule, counted dense on the state the route
    would return; it is then ``converged`` whatever its gap.  So a seeded
    solve stops at round 50, with that round's dual bound and the larger
    of that round's d and the seed's, unless round 50 improves d to a
    state without the count.  Otherwise, and always for a P of rank 0,
    which has no claim, iteration stops once the certified gap is at most
    ``tol_gap``.  Either stop keeps the iterates; only the round moves.
    The solution is returned only when the solve stopped on the claim or
    closed its gap, the dense residual lambda_max(rho^G + d P - I) is at
    most 1e-7, and the bracket decides d against 1: it does not hold 1 with
    its upper end above 1, so d > 1 is certified or d <= 1 is.  The lower
    bound passes a margin check down to -1e-13, so it can exceed the upper
    bound by rounding: up to 1e-12 relative, the upper bound is reported
    as the lower one; a wider crossing raises NoConvergence.

    Raises DegenerateSubspace, before any iteration, for a P whose trace
    is not positive (the NPT projector at m = 1 or n = 1, where d is
    unbounded); ShapeMismatch, before any iteration, for a Projector of
    other dims; NoConvergence (with the best iterate attached as
    ``partial``) when the budget runs out before either stop or the
    closed bracket still holds 1 (its message names a smaller
    ``tol_gap``); and
    ValueError for a ``tol_gap`` that is not finite and positive or a
    ``max_iter`` that is not an integer of at least 1.
    """
    _check_budget(max_iter, tol_gap=tol_gap)
    d_tot = dims.total
    Pmat = _solver_input(P, dims)
    # S and P live in one picture, rho and P^G in the other
    pic_S, pic_r = _pictures(dims, Pmat)
    k = _check_trace(dims, Pmat)

    p = pic_S.pack(Pmat)
    pt = p[pic_S.pt]
    eye_S, eye_r = pic_S.eye, pic_r.eye

    def affine(a, b, beta):
        G = eye_S - b
        PG = frob_inner(p, G)
        q = frob_inner(pt, a) + PG
        s = pic_r.trace(a) + pic_S.trace(G)
        r_a = PG + 1.0 / beta - q / 2.0
        r_b = 1.0 - s / 2.0
        nu = -2.0 * (r_a + r_b) / (k + d_tot)
        d_x = 2.0 * r_a / k + nu
        rho_x = (a + G[pic_S.pt] - d_x * pt) / 2.0 - (nu / 2.0) * eye_r
        return rho_x, eye_S - d_x * p - rho_x[pic_r.pt]

    def certify(z, u, beta):
        z_r, u_S = cones.split(z)[0], cones.split(u)[1]
        r, Y = cones.split(cones.project(np.concatenate((z_r, -beta * u_S))))
        tr = pic_r.trace(r)
        r = r / tr if tr > 1e-300 else eye_r / d_tot
        d = _max_shift(pic_S, eye_S - r[pic_r.pt], p)
        overlap = frob_inner(Y, p)
        if not overlap > 1e-9:  # no dual certificate this round
            return d, r, np.inf, None
        Y = Y / overlap
        return d, r, pic_S.trace(Y) - float(pic_r.eigvalsh(Y[pic_S.pt])[0]), Y

    target = _target_count(Pmat)

    def claim(d, r):
        """Whether d > 1 is certified and the state r has the target count."""
        rho = pic_r.unpack(r)
        return d > 1.0 and count_negative_eigenvalues(partial_transpose(rho, dims))[0] == target

    # the bracket starts at the closed-form state where it already claims;
    # _split takes a finite starting lower end as accepted
    lower = (-np.inf, eye_r / d_tot)
    if target and dims.npt_dim:
        r_cf = pic_r.pack(_closed_form(dims))
        d_cf = _max_shift(pic_S, eye_S - r_cf[pic_r.pt], p)
        if claim(d_cf, r_cf):
            lower = (d_cf, r_cf)
    cones = _ConePair(pic_r, pic_S)
    z = np.concatenate((eye_r / d_tot, eye_S))
    it, lb, best_r, ub, best_Y, stopped = _split(cones, z, affine, certify, lower, None,
                                                 tol_gap, max_iter, cert_every=50,
                                                 stop_lower=claim if target else None)

    # the returned bracket, rechecked dense: the residuals verify lb, and
    # the dual bound is recomputed from the best certificate
    rho = pic_r.unpack(best_r)
    if best_Y is not None:
        Y = pic_S.unpack(best_Y)
        ub = _tr(Y) - float(eigvalsh(partial_transpose(Y, dims))[0])
    # a crossing at rounding level closes the bracket (see the docstring)
    empty = lb - ub > 1e-12 * abs(lb)
    if not empty:
        ub = max(ub, lb)
    residuals = _construction_residuals(rho, lb, Pmat, dims)
    reason = None
    if empty:
        reason = f"bracket is empty: lower bound {lb!r} > upper bound {ub!r}"
    elif not (stopped or ub - lb <= tol_gap):
        reason = f"gap {ub - lb:.3e} above {tol_gap:.1e} after {it} iterations"
    elif residuals["pt_constraint_gap"] > _TOL_FEAS:
        reason = (f"dense residual {residuals['pt_constraint_gap']:.3e} above {_TOL_FEAS:.0e} "
                  f"after {it} iterations")
    elif lb <= 1.0 < ub:
        reason = (f"bracket [{lb!r}, {ub!r}] does not decide d against 1 after {it} "
                  f"iterations; rerun with a smaller tol_gap, such as {tol_gap / 10:.0e}")
    solution = SdpSolution(
        d=float(lb), rho=DensityMatrix(dims, rho), residuals=residuals,
        iterations=it, converged=reason is None,
        lower_bound=float(lb), upper_bound=float(ub),
    )
    if reason is not None:
        raise NoConvergence(f"construction SDP {reason}", partial=solution)
    return solution


def _target_count(Pmat: np.ndarray) -> int:
    """rank P, the number of eigenvalues of P above 1/2: the negative
    partial-transpose count both routes claim ((m-1)(n-1) for the NPT
    projector)."""
    return int((eigvalsh(Pmat) > 0.5).sum())


def _construction_residuals(rho, d, Pmat, dims) -> dict[str, float]:
    """Post-hoc feasibility of a (rho, d) pair, recomputed from scratch."""
    eye = np.eye(dims.total)
    return {
        "psd_gap": max(0.0, -float(eigvalsh(rho)[0])),
        "pt_constraint_gap": max(
            0.0, float(eigvalsh(partial_transpose(rho, dims) + d * Pmat - eye)[-1])
        ),
        "trace_gap": abs(_tr(rho) - 1.0),
    }


def _max_shift(pic: _Picture, m: np.ndarray, p: np.ndarray) -> float:
    """Largest d with d P <= M, for M = I - rho^G and P as entry vectors of pic.

    The candidate is d = 1 / lambda_max(M^(-1/2) P M^(-1/2)), the congruence
    taken on the padded block stack (P has positive trace, so the top
    eigenvalue is positive).  It is returned when the margin
    lambda_min(M - d P) is verifiably nonnegative (at least -1e-13), so it
    is a true lower bound for the construction SDP; otherwise -inf: this
    certify round offers no lower bound.
    """
    w, V = np.linalg.eigh(pic.padded(m))
    w = np.maximum(w, 1e-14)
    M_isqrt = (V / np.sqrt(w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    top = float(pic.eigvalsh(pic.entries(hermitize(M_isqrt @ pic.blocks(p) @ M_isqrt)))[-1])
    d = 1.0 / top
    return d if pic.eigvalsh(m - d * p)[0] >= -1e-13 else -np.inf


# --------------------------------------------------------------------------
# linear optimization over the PPT states
# --------------------------------------------------------------------------

def optimize_over_ppt(
    dims: BipartiteDims,
    W: np.ndarray,
    tol: float = 1e-5,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PptOptimum:
    """Maximize <W, sigma> over {sigma >= 0, sigma^G >= 0, Tr sigma = 1}.

    The certified value is attained by the returned (exactly feasible)
    sigma; dual certificates Y1, Y2 >= 0 (``dual_basis``) bound the maximum
    from above by lambda_max(W + Y1 + Y2^G).  ``upper_bound``/``lower_bound``
    bracket the true optimum within ``tol`` on success; certificates are
    taken every 100 iterations.  A minimum is the negated maximum of -W:
    min <W, sigma> lies in [-upper_bound, -lower_bound] of the solve on -W.

    Raises NoConvergence, with the PptOptimum attached as ``partial`` (its
    bracket and dual pair are still certified), when the gap is above
    ``tol`` after ``max_iter`` iterations; ValueError for a ``tol`` that is
    not finite and positive or a ``max_iter`` that is not an integer of at
    least 1.
    """
    _check_budget(max_iter, tol=tol)
    return _solve_ppt(dims, W, tol, max_iter)


def _solve_ppt(dims: BipartiteDims, W, tol: float, max_iter: int, stop=None) -> PptOptimum:
    """``optimize_over_ppt`` without the tolerance check, stopping early at
    the first certify round whose dual bound improves and passes ``stop``.

    ``stop(upper_bound, (Y1, Y2))`` sees the dense pair and its bound,
    recomputed exactly as the returned ones are, so the optimum returned
    after a stop is the one ``stop`` accepted; it is then ``converged``
    whatever its gap.  Without ``stop`` this is ``optimize_over_ppt``.
    """
    W = _solver_input(W, dims)
    d_tot = dims.total
    trW = _tr(W)
    pic_1, pic_2 = _pictures(dims, W)  # sigma lives in W's picture
    w = pic_1.pack(W)

    def affine(A, B, beta):
        nu = (pic_1.trace(A) + pic_2.trace(B) + trW / beta - 2.0) / d_tot
        sigma = (A + B[pic_2.pt] + w / beta - nu * pic_1.eye) / 2.0
        return sigma, sigma[pic_1.pt]

    def dual(y):
        """The dense pair of entry vectors y and its bound, recomputed dense."""
        Y1, Y2 = pic_1.unpack(y[0]), pic_2.unpack(y[1])
        return float(eigvalsh(W + Y1 + partial_transpose(Y2, dims))[-1]), (Y1, Y2)

    def certify(z, u, beta):
        sigma = _round_to_ppt((pic_1, pic_2), cones.split(z)[0])
        y1, y2 = cones.split(cones.project(-beta * u))
        ub = float(pic_1.eigvalsh(w + y1 + y2[pic_2.pt])[-1])
        return frob_inner(w, sigma), sigma, ub, (y1, y2)

    cones = _ConePair(pic_1, pic_2)
    z = np.concatenate((pic_1.eye, pic_2.eye)) / d_tot
    zero_pair = (np.zeros_like(pic_1.eye), np.zeros_like(pic_2.eye))
    accept = None if stop is None else (lambda _, y: stop(*dual(y)))
    it, _, best_sigma, _, best_y, stopped = _split(cones, z, affine, certify,
                                                   (-np.inf, pic_1.eye / d_tot), zero_pair, tol,
                                                   max_iter, cert_every=100, stop_upper=accept)

    # the returned bracket, recomputed dense from the returned sigma and pair
    sigma = pic_1.unpack(best_sigma)
    lb = frob_inner(W, sigma)
    ub, pair = dual(best_y)
    res = PptOptimum(
        value=lb, sigma=DensityMatrix(dims, sigma),
        lower_bound=lb, upper_bound=ub,
        iterations=it, converged=bool(stopped or ub - lb <= tol),
        dual_basis=pair,
    )
    if not res.converged:
        raise NoConvergence("PPT optimization did not converge", partial=res)
    return res


def _round_to_ppt(pics, x: np.ndarray) -> np.ndarray:
    """Round a PSD iterate (entry vector of pics[0]) to an exactly PPT state.

    The certify step passes the cone iterate z1, PSD by construction.  It
    is normalized to trace 1 (I/d when its trace vanishes), then contracted
    toward the maximally mixed state just far enough to swallow any
    negativity of its partial transpose (and of itself, to rounding); each
    contraction rechecks lambda_min in both pictures.  The state only
    supplies the PPT solve's lower bound, so a contraction that gives up
    some overlap costs iterations, never correctness.  Returns the entry
    vector of the state.
    """
    pic_1, pic_2 = pics
    eye_over_d = pic_1.eye / pic_1.d
    tr = pic_1.trace(x)
    sig = x / tr if tr > 1e-300 else eye_over_d
    for _ in range(5):
        eps = max(
            0.0,
            -float(pic_1.eigvalsh(sig)[0]),
            -float(pic_2.eigvalsh(sig[pic_1.pt])[0]),
        )
        if eps <= 1e-15:
            break
        theta = min(1.0, 1.1 * eps * pic_1.d / (1.0 + eps * pic_1.d) + 1e-16)
        sig = (1.0 - theta) * sig + theta * eye_over_d
    return sig


# --------------------------------------------------------------------------
# the dual-cone construction route
# --------------------------------------------------------------------------

def construct_via_dual_cone(
    dims: BipartiteDims,
    P,
    tol_c: float = DEFAULT_TOL_C,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ConeDecomposition:
    """Build the extremal state through the dual cone of the PPT states.

    c is the (certified) maximum of <P, sigma> over PPT states; once c < 1
    is certified, the operator X = I - (1/c) P lies in the dual cone and
    splits as X1 + X2^G, and rho = X2 / Tr(X2) has at least rank P negative
    partial-transpose eigenvalues (rho^G <= X / Tr(X2)).  The route asks
    for exactly rank P, the number of eigenvalues of P above 1/2: (m-1)(n-1)
    for the NPT projector.  c is the certified upper
    end of the PPT solve's bracket, c = lambda_max(P + Y1 + Y2^G) for its
    dual pair, so the split is closed-form: X2 = Y2 / c and X1 = X - X2^G,
    which is (c I - P - Y1 - Y2^G) / c + Y1 / c >= 0.  ``c_lower`` is the
    bracket's certified lower end.

    The PPT solve stops at the first certify round whose dual bound is
    below 1 and whose state passes the count, so the returned state is the
    one that round certified; otherwise it runs until the bracket on c is
    at most ``tol_c`` wide.  A solve that stops on that bracket always
    raises: its dual pair is the last improved one, which already failed
    the claim.

    Raises DegenerateSubspace, before any iteration, at m = 1 or n = 1 or
    for a P whose trace is not positive; ValueError for a ``tol_c`` that
    is not finite and positive or a ``max_iter`` that is not an integer of
    at least 1; and NoConvergence with one of two ``partial`` types.  It
    is the ConeDecomposition, bracket and split included, when the route
    formed a state whose negative count misses rank P.  In every other
    case it is the PptOptimum that certified c: when the PPT solve stops
    on its budget, certifies a c outside (0, 1), or gives Tr(X2) <= 1e-8,
    X2 = Y2 / c from its ``dual_basis`` (Y1, Y2).
    """
    _check_budget(max_iter, tol_c=tol_c)
    if dims.npt_dim == 0:
        raise DegenerateSubspace(f"NPT subspace is trivial at dims {dims}")
    Pmat = _solver_input(P, dims)
    _check_trace(dims, Pmat)
    target = _target_count(Pmat)

    def claim(c, pair):
        """Whether c < 1 is certified and the pair's state has the target count."""
        return 0.0 < c < 1.0 and _cone_split(dims, Pmat, c, pair[1])[4] == target

    opt = _solve_ppt(dims, Pmat, tol_c, max_iter, stop=claim)
    c = float(opt.upper_bound)
    if not 0.0 < c < 1.0:
        raise NoConvergence(f"certified c = {c!r} is outside (0, 1)", partial=opt)
    X, X1, X2, rho, count = _cone_split(dims, Pmat, c, opt.dual_basis[1])
    if rho is None:
        raise NoConvergence(f"dual pair gives Tr(X2) = {_tr(X2):.3e}", partial=opt)
    dec = ConeDecomposition(c=c, c_lower=float(opt.lower_bound), X=X, X1=X1, X2=X2,
                            rho=rho, iterations=opt.iterations)
    if count != target:
        raise NoConvergence(
            f"dual-cone state has {count} negative partial-transpose "
            f"eigenvalues, expected {target}", partial=dec,
        )
    return dec


def _cone_split(dims: BipartiteDims, Pmat: np.ndarray, c: float, Y2: np.ndarray):
    """(X, X1, X2, rho, count): the split X = I - P/c = X1 + X2^G with
    X2 = Y2/c, the state rho = X2 / Tr(X2) and its negative
    partial-transpose count; rho and count are None when Tr(X2) <= 1e-8.
    """
    X = hermitize(np.eye(dims.total) - Pmat / c)
    X2 = Y2 / c
    X1 = X - partial_transpose(X2, dims)
    t = _tr(X2)
    if t <= 1e-8:
        return X, X1, X2, None, None
    rho = DensityMatrix(dims, X2 / t)
    count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, dims))
    return X, X1, X2, rho, count
