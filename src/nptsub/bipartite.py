"""Bipartite structure on vectors and operators.

Fixes the product-basis convention for the whole package: the index of
|j>|k> in C^m (x) C^n is j*n + k (first factor major).  The partial
transpose always acts on the second factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRank, ShapeMismatch
from .linalg import eigvalsh, hermitize, is_hermitian

#: Seedable generator + Gaussian recipe recorded in file metadata.
GENERATOR_NAME = "pcg64+box-muller"

DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


def freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only copy; value types hold these so instances stay immutable."""
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (m, n) of C^m (x) C^n."""

    m: int
    n: int

    def __post_init__(self):
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
    """Validated bipartite state: Hermitian, unit trace, PSD within tolerance."""

    dims: BipartiteDims
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.dims.total
        if self.mat.shape != (d, d):
            raise ShapeMismatch(f"expected {(d, d)} matrix, got {self.mat.shape}")
        if not is_hermitian(self.mat):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(self.mat).real)
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
        lo = float(eigvalsh(self.mat)[0])
        if lo < DENSITY_EIG_FLOOR:
            raise ValueError(f"minimum eigenvalue {lo:.3e} below PSD floor")
        object.__setattr__(self, "mat", freeze(self.mat))


@dataclass(frozen=True)
class Ensemble:
    """Convex mixture {(p_i, |v_i>)} of unit vectors in C^(mn).

    vectors holds |v_i> as columns; probs are strictly positive and sum to 1.
    """

    dims: BipartiteDims
    probs: np.ndarray
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.dims.total:
            raise ShapeMismatch(
                f"vectors must be {self.dims.total} x r, got {self.vectors.shape}"
            )
        if self.probs.shape != (self.vectors.shape[1],):
            raise ShapeMismatch("one probability per vector required")
        if np.any(self.probs <= 0.0):
            raise ValueError("ensemble probabilities must be strictly positive")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("ensemble probabilities must sum to 1")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("ensemble vectors must be unit length")
        object.__setattr__(self, "probs", np.array(self.probs, dtype=float, copy=True))
        self.probs.flags.writeable = False
        object.__setattr__(self, "vectors", freeze(self.vectors))

    def __iter__(self):
        for p, v in zip(self.probs, self.vectors.T):
            yield float(p), v

    def to_density_matrix(self) -> DensityMatrix:
        rho = (self.vectors * self.probs) @ self.vectors.conj().T
        return DensityMatrix(self.dims, hermitize(rho))


def partial_transpose(A: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose the second tensor factor of an mn x mn matrix.

    Pure entry permutation: result[i*n+k, j*n+l] = A[i*n+l, j*n+k].
    Bit-exact, involutive, trace- and Hermiticity-preserving.
    """
    m, n = dims.m, dims.n
    d = m * n
    A = np.asarray(A)
    if A.shape != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {dims}, got {A.shape}")
    return A.reshape(m, n, m, n).transpose(0, 3, 2, 1).copy().reshape(d, d)


def count_negative_eigenvalues(
    A: np.ndarray, abs_floor: float = 1e-10, rel: float = 1e-9
) -> tuple[int, np.ndarray]:
    """Count eigenvalues below the negativity threshold.

    The threshold tau = max(abs_floor, rel * |lambda_max|) guards against
    calling round-off negative.  Returns (count, the offending eigenvalues
    in ascending order).  The 0 x 0 matrix has none: (0, empty).
    """
    w = eigvalsh(A)
    tau = max(abs_floor, rel * abs(float(w[-1]))) if w.size else abs_floor
    neg = w[w < -tau]
    return int(neg.size), neg


def is_ppt(rho: DensityMatrix) -> bool:
    """True iff the partial transpose of rho has no negative eigenvalues."""
    count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, rho.dims))
    return count == 0


def realign(v: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Reshape a bipartite vector into its n x m coefficient matrix.

    Sends |i>|j> to the matrix unit |j><i|, i.e. result[j, i] = v[i*n + j].
    A linear isometry; ``unrealign`` is its exact inverse.
    """
    v = np.asarray(v)
    if v.shape != (dims.total,):
        raise ShapeMismatch(f"expected vector of length {dims.total}, got {v.shape}")
    return v.reshape(dims.m, dims.n).T.copy()


def unrealign(M: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Inverse of ``realign``: n x m coefficient matrix back to a vector."""
    M = np.asarray(M)
    if M.shape != (dims.n, dims.m):
        raise ShapeMismatch(f"expected {(dims.n, dims.m)} matrix, got {M.shape}")
    return M.T.reshape(dims.total).copy()


def complex_gaussians(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1) via Box-Muller.

    Uses only uniform 64-bit draws from ``rng`` so the stream is fully
    determined by the generator algorithm (see GENERATOR_NAME).
    """
    count = int(np.prod(shape)) if shape else 1
    u1 = 1.0 - rng.random(count)  # in (0, 1]
    u2 = rng.random(count)
    r = np.sqrt(-2.0 * np.log(u1))
    z = r * np.exp(2j * np.pi * u2) / np.sqrt(2.0)
    return z.reshape(shape)


def random_density_matrix(dims: BipartiteDims, rank: int, seed: int) -> DensityMatrix:
    """Sample rho = G G^dagger / Tr(G G^dagger), G an mn x rank Ginibre matrix.

    Deterministic: identical seed gives bit-identical output.
    """
    d = dims.total
    if not 1 <= rank <= d:
        raise BadRank(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.Generator(np.random.PCG64(seed))
    G = complex_gaussians((d, rank), rng)
    rho = G @ G.conj().T
    rho = hermitize(rho / np.trace(rho).real)
    return DensityMatrix(dims, rho)
