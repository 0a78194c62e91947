"""Build the maximal NPT subspace and certify states supported on it.

Every density matrix whose range lies in the (m-1)(n-1)-dimensional
subspace spanned by |j>|k+1> - |j+1>|k> has a non-positive partial
transpose.  The certificate is concrete: a 2x2 principal submatrix of
the partially transposed state with negative determinant.
"""

import numpy as np

from nptsub import (
    BipartiteDims,
    antidiag_sums,
    build_subspace,
    locate_witness,
    partial_transpose,
    realign,
    sample_mixture_in_subspace,
    subspace_projector,
)

# ---------------------------------------------------------------------
# The subspace at (m, n) = (3, 4): dimension (m-1)(n-1) = 6
# ---------------------------------------------------------------------
dims = BipartiteDims(3, 4)
basis = build_subspace(dims)
print(f"subspace dimension: {basis.dim} (expected {dims.npt_dim})")

# Each generator realigns into a coefficient matrix whose anti-diagonals
# all sum to zero; that sum rule is what forbids product states.
g = basis.generators[:, 0]
print("\nfirst generator |0>|1> - |1>|0> realigned (4 x 3):")
print(realign(g, dims).real)
print("anti-diagonal sums:", np.round(antidiag_sums(realign(g, dims)).real, 12))

P = subspace_projector(basis)
print(f"\nprojector trace: {np.trace(P.P).real:.6f}")

# ---------------------------------------------------------------------
# Witness certificates for random mixtures supported on the subspace
# ---------------------------------------------------------------------
rng = np.random.Generator(np.random.PCG64(42))
ens = sample_mixture_in_subspace(basis, rank=3, rng=rng)
rho = ens.to_density_matrix()

w = np.linalg.eigvalsh(partial_transpose(rho.mat, dims))
print(f"\nrandom rank-3 mixture: min PT eigenvalue = {w[0]:.6f} (negative)")

cert = locate_witness(ens, basis)
ai, bi = cert.flat_indices(dims)
print(f"witness rows/columns: |{cert.alpha[0]},{cert.alpha[1]}> (index {ai}) "
      f"and |{cert.beta[0]},{cert.beta[1]}> (index {bi})")
print("2x2 submatrix of the partial transpose:")
print(np.round(cert.submatrix, 6))
print(f"determinant  = {cert.determinant:.8f}")
print(f"-|mixture|^2 = {-abs(cert.mixture_sum) ** 2:.8f}  (identical; the mixture sum "
      "sum_i p_i conj(a_i) b_i is rho's (b, a) entry)")

# The smaller eigenvalue of the submatrix interlaces the full spectrum,
# so the determinant certificate really does prove NPT.
sub_min = np.linalg.eigvalsh(cert.submatrix)[0]
print(f"\nsubmatrix lower eigenvalue {sub_min:.6f} >= global minimum {w[0]:.6f}")
