"""Dense complex Hermitian linear algebra used by every other module.

All matrices are plain ``numpy.ndarray`` objects of dtype complex128,
row-major.  The one tolerance here, HERMITICITY_RTOL = 1e-12, bounds the
largest entry of A - A^dagger relative to max(1, max |A[i,j]|), so it is
absolute for the package's O(1)-scaled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, ShapeMismatch

HERMITICITY_RTOL = 1e-12


def hermiticity_defect(A: np.ndarray):
    """Largest entrywise deviation of A from its conjugate transpose; for a
    stack (..., d, d), an array of one per matrix.  0 for an empty matrix."""
    if not A.size:
        return np.zeros(A.shape[:-2]) if A.ndim > 2 else 0.0
    out = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return out if A.ndim > 2 else float(out)


def is_hermitian(A: np.ndarray):
    """Check max |A[i,j] - conj(A[j,i])| <= HERMITICITY_RTOL * max(1, max |A[i,j]|);
    for a stack (..., d, d), an array of one check per matrix."""
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        return False
    ok = _hermiticity(A)[0]
    return ok if A.ndim > 2 else bool(ok)


def _hermiticity(A: np.ndarray):
    """(the check of ``is_hermitian``, ``hermiticity_defect``) of a square
    matrix or stack (..., d, d), from one A - A^dagger.  Unvalidated."""
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1))) if A.size else 1.0
    defect = hermiticity_defect(A)
    return defect <= HERMITICITY_RTOL * scale, defect


def hermitize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^dagger) / 2 of A, or of each matrix
    in a stack (..., d, d)."""
    return (A + A.conj().swapaxes(-1, -2)) / 2


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix that passes the Hermiticity check.

    Raises ShapeMismatch for a non-square input and NotHermitian if A fails
    the Hermiticity tolerance.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    H = hermitize(A)
    # an input equal to its Hermitian part has zero defect: skip the check
    if not (A == H).all() and not is_hermitian(A):
        raise NotHermitian(
            f"matrix is not Hermitian within tolerance "
            f"(defect {hermiticity_defect(A):.3e})"
        )
    return H


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is column-orthonormal
    with eigenvectors[:, k] belonging to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    The columns are unit vectors, so every pivot is nonzero.
    """
    if not V.size:
        return V
    cols = np.arange(V.shape[1])
    idx = np.abs(V).argmax(axis=0)
    pivot = V[idx, cols]
    V = V * (pivot.conj() / np.abs(pivot))
    V[idx, cols] = V[idx, cols].real  # kill residual imaginary dust
    return V


def eigh(A: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back ascending; eigenvector phases are normalized so
    the largest-magnitude component of each column is real and positive,
    which makes the output deterministic for identical input (up to
    rotations inside degenerate eigenspaces).

    Raises NotHermitian if A fails the Hermiticity tolerance, and
    NoConvergence if the underlying QR iteration gives up.
    """
    H = _hermitian_part(A)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    return Spectrum(eigenvalues=w, eigenvectors=_fix_phases(V))


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no vectors)."""
    return np.linalg.eigvalsh(_hermitian_part(A))


def _clamp_psd(H: np.ndarray) -> np.ndarray:
    """PSD part of each Hermitian matrix in a stack (..., d, d), unvalidated:
    the Frobenius-nearest PSD matrix, the solvers' one PSD projection.

    One batched ``np.linalg.eigh`` call, which reads only the lower
    triangle.  A stack with no negative eigenvalue comes back as it is;
    otherwise every matrix is rebuilt with its negative eigenvalues clamped
    at zero.  The 0 x 0 matrix is its own projection.
    """
    w, V = np.linalg.eigh(H)
    if (w >= 0.0).all():
        return H
    return hermitize((V * np.maximum(w, 0.0)[..., None, :]) @ V.conj().swapaxes(-1, -2))


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor major.

    (A (x) B)[i*rB + k, j*cB + l] = A[i, j] * B[k, l], so the product basis
    |j>|k> is ordered lexicographically with index j*n + k.
    """
    return np.kron(np.asarray(A), np.asarray(B))


def frob_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product Re Tr(A^dagger B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    return float(np.vdot(A, B).real)
