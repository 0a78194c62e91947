"""Construct states whose partial transpose has the maximal number of
negative eigenvalues, by two independent routes and in closed form.

Direct route: maximize d subject to rho^G <= I - d P over density
matrices; any feasible point with d > 1 forces (m-1)(n-1) negative
partial-transpose eigenvalues.  The solve stops at the first certified
d > 1 whose state has them all, so it prints the certified bracket on the
optimum, not the optimum itself.

Dual-cone route: compute c = max Tr(P sigma) over PPT states sigma, form
X = I - (1/c) P (which lies in the dual cone of the PPT states), split it
as X1 + X2^G with both parts positive semidefinite, and normalize X2.

Closed form: rho proportional to T^G - lambda D, with binomial weights and
no solver; the direct route starts its bracket there.
"""

import numpy as np

from nptsub import (
    BipartiteDims,
    build_subspace,
    closed_form_state,
    construct_via_dual_cone,
    count_negative_eigenvalues,
    partial_transpose,
    solve_construction_sdp,
    subspace_projector,
)

for m, n in [(2, 2), (3, 3), (3, 4)]:
    dims = BipartiteDims(m, n)
    P = subspace_projector(build_subspace(dims))
    target = dims.npt_dim
    print(f"=== ({m}, {n}): target count {target} ===")

    sol = solve_construction_sdp(dims, P)
    count, negs = count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))
    print(f"direct    : d in [{sol.lower_bound:.6f}, {sol.upper_bound:.6f}], "
          f"negatives = {count}")
    print(f"            {np.round(negs, 5)}")

    dec = construct_via_dual_cone(dims, P)
    count, negs = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
    # X = X1 + X2^G holds by construction; lambda_min(X1) >= 0 is what
    # makes it a dual-cone split
    margin = np.linalg.eigvalsh(dec.X1)[0]
    print(f"dual cone : c in [{dec.c_lower:.6f}, {dec.c:.6f}], split margin = {margin:.1e}, "
          f"negatives = {count}")
    print(f"            {np.round(negs, 5)}")

    # the dual-cone output is itself feasible for the direct program at
    # d = 1 + (1/c - 1)/Tr(X2), so the direct optimum, and with it the
    # certified upper end of its bracket, must dominate it
    bound = 1.0 + (1.0 / dec.c - 1.0) / np.trace(dec.X2).real
    print(f"cross-check: direct upper bound {sol.upper_bound:.6f} >= dual-cone bound {bound:.6f}\n")

# At (2, 2) everything is known in closed form: the optimum of the direct
# program is d = 3/2 at the maximally entangled state, and c = 1/2.
dims = BipartiteDims(2, 2)
sol = solve_construction_sdp(dims, subspace_projector(build_subspace(dims)))
phi = np.zeros(4, dtype=complex)
phi[0] = phi[3] = 1 / np.sqrt(2)
overlap = float((phi.conj() @ sol.rho.mat @ phi).real)
print(f"(2, 2) closed form: d = {sol.d:.6f} (= 3/2), "
      f"overlap with maximally entangled = {overlap:.6f}")

# The closed-form state needs no solver.  At (7, 7) it has all 36
# negatives, and it certifies d > 1 before the direct route's first
# iteration.  With the finite product-state upper bound 1/c, that start
# is the route's first certify round, as at every size up to (10, 10), so
# the route stops there: after 0 iterations.
dims = BipartiteDims(7, 7)
count, negs = count_negative_eigenvalues(partial_transpose(closed_form_state(dims).mat, dims))
print(f"(7, 7) closed form: negatives = {count} of {dims.npt_dim}, "
      f"smallest |negative| = {np.abs(negs).min():.2e}")
sol = solve_construction_sdp(dims, subspace_projector(build_subspace(dims)))
print(f"(7, 7) direct     : d in [{sol.lower_bound:.10f}, {sol.upper_bound:.10f}] "
      f"after {sol.iterations} iterations")
