"""Block layout of the splitting iterates: sector blocks, mirror orbits
and the local frame that takes a locally rotated input onto them.

The iterates live on sector blocks when the input (P, or W) is real and
zero outside the j+k sectors, as the NPT projector is.  Every iterate is
then real and block-diagonal, by j+k sector in the input's picture and by
j-k sector in the partially transposed one: m+n-1 blocks of size at most
min(m, n).  A PSD projection is one batched real eigh over the padded
block stack, and the partial transpose is a fixed gather between the two
pictures.  The claim does not depend on the local basis: for
P' = (U (x) V) P (U (x) V)^dag, d, c and the count are those of P, and
states transfer as rho' = (U (x) conj(V)) rho (U (x) conj(V))^dag.  So an
input that is not sector-block is first searched for such a local frame
(``_local_frame``, recovered from the input alone), and if one takes it
to real sector blocks, the iterates live on P's blocks in that frame:
every local rotation of the NPT projector retraces the solve on P,
closed-form seed included (the Haar-rotated 7 x 7 certifies d > 1 at
iteration 0, as P does).  The only change of basis is at the layout's
boundary, where matrices are packed into and unpacked out of entry
vectors, so every dense recheck, count and returned matrix is in the
caller's basis.  Any other input runs the same code on one complex block
that holds all mn x mn entries (the Haar-rotated 7 x 7 there: its bracket
closes around 1 after 200 iterations, so at the default ``tol_gap`` the
route raises).

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
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteDims, partial_transpose
from .errors import ShapeMismatch

#: Largest entry of |M - M reflected| (relative to max(1, max |M|)) for
#: which the solvers treat M as reflection-invariant (the NPT projector: 0;
#: a numerical Q Q^dagger: about 4e-16), and largest entry (relative to
#: max |M|) that a local frame may drop from the rotated M (a Haar-rotated
#: NPT projector: at most about 4e-15); no certify step resolves 1e-14.
_MIRROR_TOL = 1e-14


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

    With ``mirror`` the matrices are taken to be reflection-invariant, and
    the first ceil(K/2) blocks represent the mirror orbits: their entries,
    a prefix of the entry vector, go to the slots ``rep`` of the
    (ceil(K/2), s, s) stack ``orbits``, and ``src`` holds, for every
    entry, the slot it is read back from.  Without ``mirror`` every block
    represents itself and ``src`` is ``stack``.

    With a ``frame`` F (a local U (x) V, see ``_local_frame``), the blocks
    are those of F^dag M F: ``pack`` and ``unpack`` rotate into and out of
    the frame, and everything else works on entries, in the frame.
    """

    def __init__(self, labels: np.ndarray, dtype, mirror: bool = False, frame=None):
        d = labels.size
        self.d, self.dtype, self.frame = d, dtype, frame
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
        """Entry vector of M, a matrix of the caller's basis; the rest of
        M in the frame (off the blocks, and its imaginary part on a real
        layout) is dropped."""
        M = np.asarray(M)
        if self.frame is not None:
            M = self.frame.conj().T @ M @ self.frame
        return (M.real if self.dtype is float else M).reshape(-1)[self.flat]

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The matrix of entry vector x, in the caller's basis."""
        M = np.zeros(self.d * self.d, dtype=complex)
        M[self.flat] = x
        M = M.reshape(self.d, self.d)
        return M if self.frame is None else self.frame @ M @ self.frame.conj().T

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


def _pictures(dims: BipartiteDims, M: np.ndarray) -> tuple[_Picture, _Picture]:
    """Layouts of M's picture and of the partially transposed picture, as
    the module docstring sets out: sector blocks, by j+k in M's picture and
    by j-k in the other (in the frame of ``_local_frame``, U (x) V and
    U (x) conj(V), if M needs one), mirror orbits when M is
    reflection-invariant to within ``_MIRROR_TOL``, or else one complex
    block.  Raises ShapeMismatch unless M is mn x mn.
    """
    d = dims.total
    M = np.asarray(M)
    if M.shape != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {dims}, got {M.shape}")
    j, k = np.divmod(np.arange(d), dims.n)
    off = (j + k)[:, None] != (j + k)[None, :]
    sector = not (np.iscomplexobj(M) and M.imag.any()) and not M[off].any()
    frame = None if sector else _local_frame(dims, M, off)
    if sector or frame is not None:
        F_a = F_b = None
        if frame is not None:
            U, V, M = frame
            F_a, F_b = np.kron(U, V), np.kron(U, V.conj())
        defect = np.abs(M - M[::-1, ::-1]).max(initial=0.0)
        mirror = bool(defect <= _MIRROR_TOL * np.abs(M).max(initial=1.0))
        a, b = _Picture(j + k, float, mirror, F_a), _Picture(j - k, float, mirror, F_b)
    else:
        one = np.zeros(d, dtype=int)
        a, b = _Picture(one, complex), _Picture(one, complex)
    perm = partial_transpose(np.arange(d * d).reshape(d, d), dims).ravel()
    for src, dst in ((a, b), (b, a)):
        position = np.empty(d * d, dtype=int)
        position[src.flat] = np.arange(src.flat.size)
        src.pt = position[perm[dst.flat]]
    return a, b


def _hermitian_generators(m: int, n: int):
    """(flip, g, h): the change of coordinates from the m^2 + n^2 matrix
    units (E_pq (x) I, then I (x) E_pq) to a real basis of Hermitian local
    generators, at the same positions: E_pp, (E_pq + E_qp)/sqrt2 at p < q
    and i(E_qp - E_pq)/sqrt2 at p > q, in each of the two blocks.  The
    unitary T whose rows give the generators in unit coordinates has its
    nonzeros at (a, a) and (a, flip[a]), flip the transposition pq -> qp,
    so each product with it is a gather: conj(T) V = g V + h V[flip] along
    axis 0.
    """
    flip, g, h = [], [], []
    for k, offset in ((m, 0), (n, m * m)):
        p, q = np.divmod(np.arange(k * k), k)
        flip.append(offset + q * k + p)
        g.append(np.where(p == q, 0.5, np.where(p < q, 1.0, 1j) / np.sqrt(2)))
        h.append(np.where(p == q, 0.5, np.where(p < q, 1.0, -1j) / np.sqrt(2)))
    return np.concatenate(flip), np.concatenate(g), np.concatenate(h)


def _local_frame(dims: BipartiteDims, M: np.ndarray, off: np.ndarray):
    """(U, V, M') with M' = (U (x) V)^dag M (U (x) V) real and zero on ``off``
    (outside the j+k sectors), or None when no such local frame is found.

    Data-driven symmetry reduction (Murota, Kanno, Kojima & Kojima, Japan
    J. Indust. Appl. Math. 27, 2010).  The NPT projector commutes with the
    local generator diag(j) (x) I + I (x) diag(k), so a local rotation
    (U (x) V) P (U (x) V)^dag commutes with that generator's rotation.  The
    Hermitian generators X = A (x) I + I (x) B that commute with M are the
    null space of the Gram matrix G_ij = <[X_i, M], [X_j, M]> of the
    commutator over a real basis of m^2 + n^2 Hermitian local generators
    X_i (``_hermitian_generators``).  Each [X_i, M] is anti-Hermitian, so G
    is real symmetric; it is formed from M's (m, n, m, n) reshape over the
    matrix units, without the (mn)^2-row commutator map, and taken to that
    basis by two gathers.  The two identities always lie in the null
    space; a frame is sought only when exactly one more direction does (an
    eigenvalue of G counts as null when it is at most 1e-10 of the
    largest).  That direction has real coordinates, so it is a Hermitian
    generator as it stands.  It is sharpened by one Gauss-Newton step on
    the residual [X, M] (G squares the commutator's conditioning, so its
    null vector alone leaves M' about 5e-14 off its sectors at 2 x 12;
    after the step, 4e-15).  The eigenvectors of A and B, eigenvalues
    ascending, are the columns of U and V, their phases fixed so that each
    (j, k), (j+1, k-1) entry of M' is real and negative, as in P.  The
    frame is returned only if the imaginary part and the off-sector
    entries that M' drops are at most ``_MIRROR_TOL`` max|M|.
    """
    m, n = dims.m, dims.n
    T = M.reshape(m, n, m, n)
    M2 = (M @ M).reshape(m, n, m, n)

    def units_block(T, M2):
        # <[E_pq (x) I, M], [E_rs (x) I, M]> at [(p, q), (r, s)]
        t, eye = np.einsum("ibjb->ij", M2), np.eye(T.shape[0])
        G = (np.einsum("pr,sq->pqrs", eye, t) + np.einsum("qs,pr->pqrs", eye, t)
             - 2.0 * np.einsum("sbqd,pdrb->pqrs", T, T, optimize=True))
        return G.reshape(t.size, t.size)

    swap = (1, 0, 3, 2)
    G_ab = 2.0 * (M2.transpose(0, 2, 3, 1) - np.einsum("asqd,pdar->pqrs", T, T, optimize=True))
    G_ab = G_ab.reshape(m * m, n * n)
    G = np.block([[units_block(T, M2), G_ab],
                  [G_ab.conj().T, units_block(T.transpose(swap), M2.transpose(swap))]])
    # conj(T) G T^T, T the generators' rows in unit coordinates
    flip, g, h = _hermitian_generators(m, n)
    G = g[:, None] * G + h[:, None] * G[flip]
    G = (G * g.conj() + G[:, flip] * h.conj()).real
    w, Z = np.linalg.eigh(G)
    null = w <= 1e-10 * w[-1]
    if null.sum() != 3:
        return None

    def generator(x):
        # the Hermitian A and B of real coordinates x: T^T x in unit coordinates
        v = g.conj() * x + h.conj()[flip] * x[flip]
        return v[:m * m].reshape(m, m), v[m * m:].reshape(n, n)

    ones = np.zeros((m * m + n * n, 2))
    ones[:m * m, 0] = np.eye(m).ravel() / np.sqrt(m)
    ones[m * m:, 1] = np.eye(n).ravel() / np.sqrt(n)
    Q = Z[:, null] - ones @ (ones.T @ Z[:, null])
    x = Q[:, np.argmax(np.linalg.norm(Q, axis=0))]
    A, B = generator(x)
    # Gauss-Newton on ||[X, M]||: G dx = the map's adjoint applied to
    # [X, M], whose A and B parts are partial traces of [[X, M], M]
    X = np.kron(A, np.eye(n)) + np.kron(np.eye(m), B)
    R = X @ M - M @ X
    C = (R @ M - M @ R).reshape(m, n, m, n)
    grad = np.concatenate((np.einsum("ibjb->ij", C).ravel(), np.einsum("aiaj->ij", C).ravel()))
    grad = (g * grad + h * grad[flip]).real
    live = Z[:, ~null]
    A, B = generator(x - live @ ((live.T @ grad) / w[~null]))
    U, V = np.linalg.eigh(A)[1], np.linalg.eigh(B)[1]
    K = np.kron(U, V)
    Mf = K.conj().T @ M @ K
    if m > 1 and n > 1:
        # phases: the (j, k), (j+1, k-1) entry gains
        # phi_{j+1} - phi_j - (psi_k - psi_{k-1}); fixed on row k = 1 and column j = 0
        theta = np.angle(np.einsum("jkjk->jk", Mf.reshape(m, n, m, n)[:-1, 1:, 1:, :-1]))
        phi = np.concatenate(([0.0], np.cumsum(np.pi - theta[:, 0])))
        psi = np.concatenate(([0.0], np.cumsum(theta[0] - np.pi + phi[1])))
        U, V = U * np.exp(1j * phi), V * np.exp(1j * psi)
        D = np.exp(1j * (phi[:, None] + psi).ravel())
        Mf = D.conj()[:, None] * Mf * D
    if max(np.abs(Mf.imag).max(), np.abs(Mf[off]).max()) > _MIRROR_TOL * np.abs(M).max():
        return None
    Mf = Mf.real
    Mf[off] = 0.0
    return U, V, Mf
