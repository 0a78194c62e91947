"""Bipartite structure on vectors and operators.

Fixes the product-basis convention for the whole package: the index of
|j>|k> in C^m (x) C^n is j*n + k (first factor major).  The partial
transpose always acts on the second factor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadRank, ShapeMismatch
from .linalg import _hermiticity, eigvalsh, hermitize

#: Seedable generator + Gaussian recipe recorded in file metadata.
GENERATOR_NAME = "pcg64+box-muller"

DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10

#: The negativity rule: an eigenvalue is negative below -max(floor, rel * |lambda_max|).
NEGATIVE_ABS_FLOOR = 1e-10
NEGATIVE_REL = 1e-9


def freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only copy; value types hold these so instances stay immutable."""
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


def _integer(name: str, value, error=ValueError):
    """``value`` when it is an integer, numpy integers included and bool
    not, as ``BipartiteDims`` takes them; otherwise ``error`` naming
    ``name``.  Counts and seeds pass through it before any work, so the
    range check that follows compares integers."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return value
    raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (m, n) of C^m (x) C^n."""

    m: int
    n: int

    def __post_init__(self):
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (self.m, self.n)):
            raise ValueError(f"local dimensions must be integers, got {self}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be >= 1, got {self}")

    @property
    def total(self) -> int:
        return self.m * self.n

    @property
    def npt_dim(self) -> int:
        """Dimension (m-1)(n-1) of the maximal NPT subspace."""
        return (self.m - 1) * (self.n - 1)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite state: Hermitian, unit trace, PSD within tolerance.

    The checks are those of ``_state_error``; a valid state costs no
    eigenvalue decomposition (the PSD floor is one Cholesky factorization).
    """

    dims: BipartiteDims
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.mat)
        d = self.dims.total
        if mat.shape != (d, d):
            raise ShapeMismatch(f"expected {(d, d)} matrix, got {mat.shape}")
        error = _state_error(mat)
        if error is not None:
            raise ValueError(error)
        object.__setattr__(self, "mat", freeze(mat))


def _state_error(mats: np.ndarray) -> str | None:
    """The checks of DensityMatrix on a matrix or a stack (..., d, d): why
    the first matrix (in C order) that fails is not a state, or None.

    Each matrix must be Hermitian within tolerance, of unit trace, and have
    no eigenvalue below the PSD floor, checked in that order on the
    verdicts of ``_state_checks``; eigenvalues are computed only to name
    the lowest one of a matrix that fails the floor.
    """
    hermitian, trace, psd, H = _state_checks(mats)
    bad_trace = np.abs(trace - 1.0) > DENSITY_TRACE_TOL
    bad = ~hermitian | bad_trace | ~psd
    if not bad.any():
        return None
    first = np.unravel_index(np.argmax(bad), bad.shape)
    if not hermitian[first]:
        return "density matrix is not Hermitian within tolerance"
    if bad_trace[first]:
        return f"trace {float(trace[first])!r} differs from 1 beyond tolerance"
    lowest = np.linalg.eigvalsh(H[first])[0]
    return f"minimum eigenvalue {float(lowest):.3e} below PSD floor"


def _state_checks(mats: np.ndarray):
    """(hermitian, trace, psd, H): the per-matrix verdicts of the state
    checks on a square matrix or a stack (..., d, d), taken as complex.

    ``hermitian`` is the Hermiticity check, ``trace`` the real trace and
    ``psd`` whether a Hermitian matrix has no eigenvalue below the PSD
    floor (False for one that is not Hermitian); H is the Hermitian part,
    the input itself when every Hermiticity defect is exactly 0.  The
    floor is decided by ``_meets_psd_floor`` on the stack itself when
    every matrix is Hermitian, so a stack of states costs one Cholesky
    factorization and no copy.  Unvalidated.
    """
    mats = np.asarray(mats, dtype=complex)
    hermitian, defect = _hermiticity(mats)
    hermitian = np.asarray(hermitian)
    trace = np.trace(mats, axis1=-2, axis2=-1).real
    H = hermitize(mats) if np.any(defect) else mats
    stack = H.reshape(-1, *H.shape[-2:])
    ok = hermitian.reshape(-1)
    psd = np.zeros(ok.shape, dtype=bool)
    psd[ok] = _meets_psd_floor(stack if ok.all() else stack[ok])
    return hermitian, trace, psd.reshape(hermitian.shape), H


def _meets_psd_floor(H: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a stack (k, d, d) has no eigenvalue
    below DENSITY_EIG_FLOOR: one bool per matrix.  Unvalidated.

    H - DENSITY_EIG_FLOOR * I has a Cholesky factor exactly when every
    eigenvalue of H lies above the floor; one batched factorization, several
    times cheaper than the eigenvalues, decides that for the whole stack.
    It is backward stable, so the verdict is the eigenvalues' except within
    rounding (about d * eps * |H|) of the floor.  numpy fails the whole
    batch if one matrix fails; then one eigvalsh gives each verdict.
    """
    shifted = H - DENSITY_EIG_FLOOR * np.eye(H.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(H)[:, 0] >= DENSITY_EIG_FLOOR
    return np.ones(len(H), dtype=bool)


@dataclass(frozen=True)
class Ensemble:
    """Convex mixture {(p_i, |v_i>)} of unit vectors in C^(mn).

    vectors holds |v_i> as columns; probs are strictly positive and sum to 1.
    """

    dims: BipartiteDims
    probs: np.ndarray
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        # held as read-only array copies, made before any check reads a shape
        object.__setattr__(self, "probs", np.array(self.probs, dtype=float, copy=True))
        self.probs.flags.writeable = False
        object.__setattr__(self, "vectors", freeze(self.vectors))
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.dims.total:
            raise ShapeMismatch(
                f"vectors must be {self.dims.total} x r, got {self.vectors.shape}"
            )
        if self.probs.shape != (self.vectors.shape[1],):
            raise ShapeMismatch("one probability per vector required")
        error = _ensemble_error(self.vectors, self.probs)
        if error is not None:
            raise ValueError(error)

    def __iter__(self):
        for p, v in zip(self.probs, self.vectors.T):
            yield float(p), v

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.dims, _mixture(self.vectors, self.probs))


def _ensemble_error(vectors: np.ndarray, probs: np.ndarray) -> str | None:
    """The checks of Ensemble on its vectors (d, r) and weights (r,), or on
    each ensemble of a stack (..., d, r) and (..., r): why they fail, or None.

    The weights must be strictly positive and sum to 1, the vectors unit
    length, each within 1e-12; written so that a NaN, for which every
    comparison is False, fails.
    """
    if not np.all(probs > 0.0):
        return "ensemble probabilities must be strictly positive"
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12):
        return "ensemble probabilities must sum to 1"
    if not np.all(np.abs(np.linalg.norm(vectors, axis=-2) - 1.0) <= 1e-12):
        return "ensemble vectors must be unit length"
    return None


def _mixture(vectors: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_i p_i |v_i><v_i|, hermitized, for the columns v_i of ``vectors``
    (d, r) and the weights ``probs`` (r,), or for each ensemble of a stack
    (..., d, r) and (..., r).  Unvalidated."""
    return hermitize((vectors * probs[..., None, :]) @ vectors.conj().swapaxes(-1, -2))


def partial_transpose(A: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose the second tensor factor of an mn x mn matrix, or of each
    matrix in a stack (..., mn, mn).

    Pure entry permutation: result[i*n+k, j*n+l] = A[i*n+l, j*n+k].
    Bit-exact, involutive, trace- and Hermiticity-preserving; a matrix
    comes out the same alone or in a stack.
    """
    m, n = dims.m, dims.n
    d = m * n
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-2:] != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrices for dims {dims}, got {A.shape}")
    lead = A.shape[:-2]
    return A.reshape(*lead, m, n, m, n).swapaxes(-3, -1).copy().reshape(A.shape)


def _pt_spectra(A: np.ndarray, dims: BipartiteDims) -> tuple[np.ndarray, np.ndarray]:
    """(A^Gamma, eigvalsh(A^Gamma)) of an exactly Hermitian A (mn, mn) or stack
    (..., mn, mn), from one eigvalsh over the stack; each spectrum is the one
    a lone eigvalsh call gives.  Unvalidated."""
    A_pt = partial_transpose(A, dims)
    return A_pt, np.linalg.eigvalsh(A_pt)


def count_negative_eigenvalues(A: np.ndarray) -> tuple[int, np.ndarray]:
    """Count eigenvalues below -max(NEGATIVE_ABS_FLOOR, NEGATIVE_REL * |lambda_max|),
    the package's one negativity rule, which keeps round-off from counting.
    Returns (count, the offending eigenvalues in ascending order); the 0 x 0
    matrix has none: (0, empty)."""
    w = eigvalsh(A)
    count = int(_negative_counts(w))
    return count, w[:count]


def _negative_counts(w: np.ndarray) -> np.ndarray:
    """Number of eigenvalues negative by the rule of ``count_negative_eigenvalues``
    in an ascending spectrum ``w`` (d,), or in each of a stack (..., d)."""
    if not w.shape[-1]:
        return np.zeros(w.shape[:-1], dtype=int)
    tau = np.maximum(NEGATIVE_ABS_FLOOR, NEGATIVE_REL * np.abs(w[..., -1:]))
    return (w < -tau).sum(axis=-1)


def is_ppt(rho: DensityMatrix) -> bool:
    """True iff the partial transpose of rho has no negative eigenvalues."""
    count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, rho.dims))
    return count == 0


def realign(v: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Reshape a bipartite vector into its n x m coefficient matrix.

    Sends |i>|j> to the matrix unit |j><i|, i.e. result[j, i] = v[i*n + j].
    A linear isometry.
    """
    v = np.asarray(v)
    if v.shape != (dims.total,):
        raise ShapeMismatch(f"expected vector of length {dims.total}, got {v.shape}")
    return v.reshape(dims.m, dims.n).T.copy()


def _check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is an integer of at least 0."""
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _generators(seeds) -> list[np.random.Generator]:
    """The generator of each seed: PCG64, as GENERATOR_NAME records.

    Raises ValueError for a seed that is not an integer of at least 0,
    before any draw.
    """
    _check_seed(min(seeds))
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds]


def _uniform_rows(rngs, count: int) -> np.ndarray:
    """One ``rng.random(count)`` draw from each generator, as the rows of a
    (len(rngs), count) array.  A generator yields its doubles in sequence,
    so one draw of a + b holds the draws of a and then b."""
    out = np.empty((len(rngs), count))
    for row, rng in zip(out, rngs):
        rng.random(out=row)
    return out


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1) from uniforms in [0, 1) by
    the Box-Muller transform: over the last axis of ``u`` (..., 2c), the
    first c values set the radii and the next c the phases of the c
    Gaussians (..., c).  Elementwise, so a value does not depend on the
    stack around it."""
    c = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :c]))  # 1 - u in (0, 1]
    return r * np.exp(2j * np.pi * u[..., c:]) / np.sqrt(2.0)


def complex_gaussians(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1) of the given shape, via Box-Muller.

    One ``rng.random`` call of two uniforms per value, so the stream is
    fully determined by the generator algorithm (see GENERATOR_NAME).  An
    int shape is a length: ``()`` gives one value (a 0-d array), while 0
    or (0,) gives an empty array and draws nothing.  Raises ValueError,
    before any draw, for a shape entry that is not an integer of at least 0.
    """
    shape = tuple(_integer("shape", s) for s in ((shape,) if np.ndim(shape) == 0 else shape))
    if min(shape, default=0) < 0:
        raise ValueError(f"shape must not be negative, got {shape}")
    return _box_muller(rng.random(2 * math.prod(shape))).reshape(shape)


def random_density_matrix(dims: BipartiteDims, rank: int, seed: int) -> DensityMatrix:
    """Sample rho = G G^dagger / Tr(G G^dagger), G an mn x rank Ginibre matrix.

    Deterministic: identical seed gives bit-identical output.  Raises
    BadRank unless ``rank`` is an integer in [1, mn] and ValueError unless
    ``seed`` is an integer of at least 0, before any draw.
    """
    return DensityMatrix(dims, _ginibre_states(dims, rank, [seed])[0])


def _ginibre_states(dims: BipartiteDims, rank: int, seeds) -> np.ndarray:
    """The matrices of ``random_density_matrix(dims, rank, s)`` for each s
    in ``seeds``, stacked (len(seeds), mn, mn) and unvalidated: one uniform
    draw per seed, then one Box-Muller transform and one stacked G G^dagger
    for all of them.  Each matrix is bit-identical to the one drawn alone."""
    d = dims.total
    if not 1 <= _integer("rank", rank, BadRank) <= d:
        raise BadRank(f"rank must be in [1, {d}], got {rank}")
    u = _uniform_rows(_generators(seeds), 2 * d * rank)
    G = _box_muller(u).reshape(-1, d, rank)
    rho = G @ G.conj().swapaxes(-1, -2)
    return hermitize(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])
