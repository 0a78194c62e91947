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
18,700 iterations instead of the 40,700 that close the bracket to 1e-6);
the direct route stops at the first round whose feasible state certifies
d > 1 and has the count.  Its bracket starts at two certificates that
need no iteration (``solve_construction_sdp``): the closed-form state
and the product state a (x) b that maximizes <ab|P|ab> (Wei & Goldbart,
PRA 68, 042307 (2003)).  A claiming closed-form state with a finite
product bound is the first certify round, so on the NPT projector and
its local rotations, from 2 x 2 to 10 x 10, the direct route returns at
iteration 0.  The starts never change the iterates.

``_split`` is an over-relaxed iteration between an affine set and the
product of two PSD cones, with scaled duals and a penalty beta,
Anderson-accelerated (``_Anderson``) from an iteration its caller picks
(its docstring states the iteration).  The claim-stopping PPT solve of
the dual-cone route accelerates from its first iteration and certifies
every 50 (``construct_via_dual_cone`` lists its rounds on the NPT
projector), with c within 5e-13 of cos^2(pi/8) at 2 x 4 (a plain round
100 left it 3.2e-7 above).  The gap-closing PPT solve and
the construction accelerate only after 200 plain iterations, which cuts
the gap-closing count on every block layout (the PPT solve on the NPT
projector to 1e-6 at 7 x 7: 6,500 -> 1,400; at 9 x 9: 93,400 -> 40,700)
while every such solve that certifies within 200 iterations keeps the
plain arithmetic.  Accelerating those from the start too took the 7 x 7
solve to 2,100 iterations and slowed the direct ladder on P (4 x 4 to
7 x 7, which then ran at most 50 iterations) by about 30%.  Each problem
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

The iterates live on the block layout of ``_layout``: sector blocks and
mirror orbits, in a recovered local frame for a local rotation of P, or
one complex block.  The layout's index arrays and the closed-form seed
are pure functions of (m, n), so they are built once per size and
shared, read-only, by every later solve at that size; the layout tests,
the frame and every matrix value stay per call, and the arithmetic is
the same cold or warm.  Every PSD projection of entry vectors, in the
iteration and in the certify steps, goes through ``_ConePair``: both
cones share one batched eigh over one buffer, allocated once per solve.

Solver internals are never trusted: every reported objective is certified
post hoc from rounded iterates.  Lower bounds come from exactly feasible
points, upper bounds from exactly verifiable dual certificates (the PSD
parts of -beta u; ``_max_shift`` and ``_round_to_ppt`` keep a margin
that covers rounding).  The certify steps run on the same block layout
as the iteration: they are block projections, gathers and block
eigenvalues, with the padding of the block stack kept out of every
extreme eigenvalue.  On exit the returned bounds are recomputed dense, in
the caller's basis, from the returned state and dual certificate and the
caller's input (the construction's lower bound is rechecked by its dense
residuals), so a block layout or a local frame can cost iterations but
can never certify a wrong bound.

Every entry point takes its input (P or W) as a Hermitian mn x mn
matrix, or as a Projector of the same dims, and raises ShapeMismatch or
NotHermitian (NaN entries included) for anything else, before any
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._layout import _Picture, _pictures
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
#: iteration of the gap-closing solves (the claim-stopping PPT solve
#: starts at 1), and Tikhonov weight of the normal equations (relative to
#: their trace).
_AA_MEMORY = 10
_AA_START = 200
_AA_REG = 1e-5


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

    A solve returns at iteration 0 only when its starting bracket already
    stops it (see ``_split``); any other start needs a certify round, which
    a budget of 0 would never reach.  A count that is not an integer, or a
    NaN, infinite, zero or negative tolerance, would otherwise fail only
    after the set-up or after the whole iteration budget.
    """
    if _integer("max_iter", max_iter) < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    for name, tol in tols.items():
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


# --------------------------------------------------------------------------
# the PSD cones of the iterates
# --------------------------------------------------------------------------

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
        self.eye = np.eye(_AA_MEMORY)
        self.complex = np.iscomplexobj(s)
        self.reset()

    def reset(self) -> None:
        self.count, self.f, self.g = 0, None, None

    def step(self, s: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The next iterate after s, whose plain step is f."""
        g = f - s
        # ||g|| summed as np.linalg.norm sums it, without its wrapper
        g_norm = math.sqrt(g.real @ g.real + g.imag @ g.imag if self.complex else g @ g)
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
        reg = _AA_REG * A.trace()
        if not reg > 0.0:  # g did not move: nothing to fit
            return f
        gamma = np.linalg.solve(A + reg * self.eye[:k, :k], dG @ g.view(float))
        return f - gamma @ self.dF[:k]


def _split(cones: _ConePair, z, affine, certify, lower, upper, tol: float, max_iter: int,
           cert_every: int, aa_start: int, stop_lower=None, stop_upper=None):
    """Over-relaxed splitting between an affine set and two PSD cones,
    Anderson-accelerated, that keeps the certified bracket and decides the
    stop.

    The iteration is a fixed point on one entry vector s = z + u of
    ``cones``, the cone iterate z = [z1; z2] = Pi(s) (the PSD projection)
    plus its scaled dual u = s - z.  Starts from the cone point z with
    u = 0 and penalty beta = 1.  Each iteration takes the affine step
    ``affine(z1 - u1, z2 - u2, beta) -> (x1, x2)``, forms the over-relaxed
    plain step f = s + 1.7 (x - z), and projects both cones of the next s
    at once.  From iteration ``aa_start`` on, the next s is the type-II
    Anderson extrapolation of the last plain steps (``_Anderson``) instead
    of f itself (the first step after a clearing of the history is still
    f, so ``aa_start`` = 1 extrapolates from iteration 2); z = Pi(s) and
    u = s - z stay a PSD point and its dual, so the certify steps are
    unchanged.  Every 100 iterations beta is doubled or halved (rescaling
    u) when the relative residuals
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
    one, starting from ``lower`` = (lb, primal) and ``upper`` = (ub, dual).
    Each start is a certified end or a placeholder (lb = -inf, ub = inf).
    A finite starting lb is a seed that ``stop_lower`` accepts (the caller
    asks it), so it counts as accepted; a finite starting ub is never
    offered to ``stop_upper``.  The starting bracket counts as a certify
    round: if ub - lb <= ``tol`` already, or the lower end is accepted and
    ub is finite (a stop returns a dual certificate), the run returns at
    iteration 0 with both starting ends, before any iteration or certify
    step.  ``stop_lower(lb, primal)`` is asked on
    every improved lower end, ``stop_upper(ub, dual)`` on every improved
    upper end.  The run stops at the first certify round at which
    ub - lb <= ``tol``, the current lower end is accepted, or the improved
    upper end is.  The starts never change the iterates.
    Returns (iterations, lb, primal, ub, dual, stopped), ``stopped``
    telling whether a stop predicate ended the run (at iteration 0,
    whether the starting lower end is accepted).  ``max_iter`` is at least
    1 (``_check_budget``), so a run that does not return at iteration 0
    runs at least one certify step.
    """

    def norm(v):
        return sum(np.linalg.norm(c) for c in cones.split(v))

    (lb, primal), (ub, dual) = lower, upper
    accepted = lb > -np.inf
    if ub - lb <= tol or (accepted and ub < np.inf):
        return 0, lb, primal, ub, dual, accepted
    beta = 1.0
    u = np.zeros_like(z)
    s = z
    anderson = _Anderson(z)
    for it in range(1, max_iter + 1):
        x = np.concatenate(affine(*cones.split(z - u), beta))
        # f = s + 1.7 (x - z), summed as (over-relaxed x) + u, so that the
        # iterations before the acceleration are the plain splitting's
        f = _OVER_RELAX * x + (1.0 - _OVER_RELAX) * z + u
        s = anderson.step(s, f) if it >= aa_start else f
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
    from 2 x 2 to 10 x 10 (at 11 x 11 and up the float count falls short),
    and so it does for every local rotation of it that ``_pictures``
    solves in a local frame (the seed is taken in the frame).  For another
    projector, a P of rank 0, m = 1 or n = 1, or a P on one complex block,
    it is skipped, and the lower end starts at (-inf, I/d).  The upper end
    starts at a product-state certificate for every P: Y0 is |ab><ab| for
    the product vector a (x) b of ``_product_state``, taken onto the
    blocks of the iterates (on the sector layout the j+k pinching, a
    mixture of product states) and scaled to <Y0, P> = 1, and its bound
    Tr Y0 - lambda_min(Y0^G) is the one every certify round computes.  It
    is about 1/c: for the NPT projector 1 - c is 2.7e-5 at 7 x 7 and
    3.8e-8 at 10 x 10, whatever the local basis.  The claim is decided by
    the package's negativity rule, counted dense on the state the route
    would return, and a solve that stops on it is ``converged`` whatever
    its gap.  A seed that claims, with a finite product bound, is the
    first certify round: the solve returns at iteration 0 with the seed's
    state and the bracket [d of the seed, the product bound], so on the
    NPT projector and its local rotations from 2 x 2 to 10 x 10 it never
    iterates, whatever ``tol_gap``.  A starting bracket within
    ``tol_gap`` also returns at iteration 0.  Otherwise iteration stops at
    the first certify round whose current lower end claims (with a seed
    but an infinite product bound, from a vanishing overlap, that is round
    50, unless round 50 improves d to a state without the count), or, and
    always for a P of rank 0, which has no claim, once the certified gap
    is at most ``tol_gap``.  No stop and no start changes the iterates;
    only the round moves.
    The solution is returned only when the solve stopped on the claim or
    closed its gap, the dense residual lambda_max(rho^G + d P - I) is at
    most 1e-7, and the bracket decides d against 1: it does not hold 1 with
    its upper end above 1, so d > 1 is certified or d <= 1 is.  The lower
    bound passes a margin check down to -1e-13, so it can exceed the upper
    bound by rounding: up to 1e-12 relative, the upper bound is reported
    as the lower one; a wider crossing raises NoConvergence.  The returned
    upper bound is recomputed dense, (Tr Y - lambda_min(Y^G)) / <Y, P>
    with the caller's P, so the layout's copy of P (rotated into a local
    frame, or summed in another order) never scales it.

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

    def dual_bound(Y):
        """(Tr Y - lambda_min(Y^G), Y) for a PSD Y scaled to <Y, P> = 1, or
        (inf, None) when <Y, P> vanishes: no dual certificate."""
        overlap = frob_inner(Y, p)
        if not overlap > 1e-9:
            return np.inf, None
        Y = Y / overlap
        return pic_S.trace(Y) - float(pic_r.eigvalsh(Y[pic_S.pt])[0]), Y

    def certify(z, u, beta):
        z_r, u_S = cones.split(z)[0], cones.split(u)[1]
        r, Y = cones.split(cones.project(np.concatenate((z_r, -beta * u_S))))
        tr = pic_r.trace(r)
        r = r / tr if tr > 1e-300 else eye_r / d_tot
        return (_max_shift(pic_S, eye_S - r[pic_r.pt], p), r, *dual_bound(Y))

    target = _target_count(Pmat)

    def claim(d, r):
        """Whether d > 1 is certified and the state r has the target count."""
        rho = pic_r.unpack(r)
        return d > 1.0 and count_negative_eigenvalues(partial_transpose(rho, dims))[0] == target

    # the bracket starts at the closed-form state where it already claims
    # (_split takes a finite starting lower end as accepted), and at the
    # product-state certificate, whose pinching onto pic_S's blocks (in
    # the frame, if any) is a mixture of product states, so still PSD and
    # PPT: a real layout also keeps only its real part, the even mixture
    # with its complex conjugate, another product state
    lower = (-np.inf, eye_r / d_tot)
    if target and dims.npt_dim:
        # the closed form is a matrix of P's own basis, the frame's
        r_cf = _closed_form(dims).reshape(-1)[pic_r.flat]
        d_cf = _max_shift(pic_S, eye_S - r_cf[pic_r.pt], p)
        if claim(d_cf, r_cf):
            lower = (d_cf, r_cf)
    ab = _product_state(dims, Pmat)[1]
    upper = dual_bound(pic_S.pack(np.outer(ab, ab.conj())))
    cones = _ConePair(pic_r, pic_S)
    z = np.concatenate((eye_r / d_tot, eye_S))
    it, lb, best_r, ub, best_Y, stopped = _split(cones, z, affine, certify, lower, upper,
                                                 tol_gap, max_iter, cert_every=50, aa_start=_AA_START,
                                                 stop_lower=claim if target else None)

    # the returned bracket, rechecked dense: the residuals verify lb, and
    # the dual bound is recomputed from the best certificate and the
    # caller's P
    rho = pic_r.unpack(best_r)
    if best_Y is not None:
        Y = pic_S.unpack(best_Y)
        ub = (_tr(Y) - float(eigvalsh(partial_transpose(Y, dims))[0])) / frob_inner(Y, Pmat)
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


def _product_state(dims: BipartiteDims, Pmat: np.ndarray) -> tuple[float, np.ndarray]:
    """(<ab|P|ab>, a (x) b) for unit a, b that locally maximize the overlap.

    Alternates top eigenvectors of the contractions <b|P|b> (m x m) and
    <a|P|a> (n x n), each one matrix-vector product with the realigned
    (m^2, n^2) P and one small eigh, in real arithmetic when P is real.
    Starts from the uniform b and stops once the overlap stops increasing
    (at most 100 alternations, each at most two eigh); the overlap is that
    of the returned vector.  For the NPT projector, on P and on its local
    rotations alike, the overlap reaches the PPT maximum c at every size
    checked: cos^2(pi/2n) at 2 x n, 10/11 at 3 x 3, (9 + 2 sqrt 2)/12 at
    4 x 4.  Any unit a, b give the direct route a dual certificate
    Y = |ab><ab| / <ab|P|ab>: a product state is PPT, so Y^G >= 0 and
    d <= Tr Y - lambda_min(Y^G) = 1 / <ab|P|ab>.
    """
    m, n = dims.m, dims.n
    R = Pmat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    if not R.imag.any():
        R = R.real.copy()
    a, b = None, np.full(n, n ** -0.5)
    overlap = -np.inf
    for _ in range(100):
        w, V = np.linalg.eigh((R @ (b.conj()[:, None] * b).ravel()).reshape(m, m))
        if not w[-1] > overlap:
            break
        overlap, a = w[-1], V[:, -1]
        w, V = np.linalg.eigh(((a.conj()[:, None] * a).ravel() @ R).reshape(n, n))
        if not w[-1] > overlap:
            break
        overlap, b = w[-1], V[:, -1]
    return float(overlap), (a[:, None] * b).ravel()


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

    With ``stop`` the splitting is accelerated from its first iteration
    and certifies every 50 iterations, since only the first claiming round
    matters; without it, it keeps the gap-closing schedule (plain up to
    iteration ``_AA_START``, a certify round every 100).

    ``stop(upper_bound, (Y1, Y2))`` sees the dense pair and its bound,
    computed exactly as the returned ones are, so the optimum returned
    after a stop is the one ``stop`` accepted, the very pair object
    included (it is not computed twice); it is then ``converged`` whatever
    its gap.  Without ``stop`` this is ``optimize_over_ppt``.
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
    offered = []  # the dense pair of the last upper end offered to stop

    def accept(_, y):
        offered[:] = [dual(y)]
        return stop(*offered[0])

    cert_every, aa_start = (100, _AA_START) if stop is None else (50, 1)
    it, _, best_sigma, _, best_y, stopped = _split(cones, z, affine, certify,
                                                   (-np.inf, pic_1.eye / d_tot), (np.inf, zero_pair),
                                                   tol, max_iter, cert_every, aa_start,
                                                   stop_upper=None if stop is None else accept)

    # the returned bracket, recomputed dense from the returned sigma and
    # pair; a stop returns the pair it accepted
    sigma = pic_1.unpack(best_sigma)
    lb = frob_inner(W, sigma)
    ub, pair = offered[0] if stopped else dual(best_y)
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
    toward the maximally mixed state until lambda_min is at least d eps
    (eps the float epsilon) in both pictures, each contraction rechecking
    both: that swallows any negativity of its partial transpose, and a
    margin above 0 covers the rounding of the eigenvalues, so that the
    state is PPT in exact arithmetic and <W, sigma> never overshoots the
    maximum (a state at lambda_min = -1e-15 put the antisymmetric 3 x 3
    projector's lower bound at 1/2 + 6.7e-16, above its maximum 1/2).  The
    state only supplies the PPT solve's lower bound, so a contraction that
    gives up some overlap costs iterations, never correctness.  Returns
    the entry vector of the state.
    """
    pic_1, pic_2 = pics
    d = pic_1.d
    margin = d * np.finfo(float).eps
    eye_over_d = pic_1.eye / d
    tr = pic_1.trace(x)
    sig = x / tr if tr > 1e-300 else eye_over_d
    for _ in range(5):
        low = min(float(pic_1.eigvalsh(sig)[0]), float(pic_2.eigvalsh(sig[pic_1.pt])[0]))
        if low >= margin:
            break
        # (1 - theta) low + theta / d = margin, with 10% to spare
        theta = min(1.0, 1.1 * d * (margin - low) / (1.0 - d * low))
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

    The PPT solve is accelerated from its first iteration and certifies
    every 50 iterations.  It stops at the first certify round whose dual
    bound is below 1 and whose state passes the count, so the returned
    state is the one that round certified (for the NPT projector, round 50
    from 2 x 2 to 5 x 6, round 100 at 6 x 6, 350 at 7 x 7 and 18,700 at
    9 x 9); otherwise it runs until the bracket on c is at most ``tol_c``
    wide.  A solve that stops on that bracket always raises: its dual pair
    is the last improved one, which already failed the claim.

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

    last = []  # (Y2, its split) of the last pair that claim split

    def claim(c, pair):
        """Whether c < 1 is certified and the pair's state has the target count."""
        if not 0.0 < c < 1.0:
            return False
        last[:] = [(pair[1], _cone_split(dims, Pmat, c, pair[1]))]
        return last[0][1][4] == target

    opt = _solve_ppt(dims, Pmat, tol_c, max_iter, stop=claim)
    c = float(opt.upper_bound)
    if not 0.0 < c < 1.0:
        raise NoConvergence(f"certified c = {c!r} is outside (0, 1)", partial=opt)
    # a claim stop returns the very pair that claim split last
    Y2 = opt.dual_basis[1]
    X, X1, X2, rho, count = last[0][1] if last and last[0][0] is Y2 else _cone_split(dims, Pmat, c, Y2)
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
