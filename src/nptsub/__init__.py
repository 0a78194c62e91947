"""Maximal NPT subspaces and extremal partial-transpose spectra.

Construct the (m-1)(n-1)-dimensional subspace of C^m (x) C^n on which
every supported state has non-positive partial transpose, certify that
property with 2x2 witness submatrices, and build density matrices whose
partial transpose attains the maximal number (m-1)(n-1) of negative
eigenvalues, by a direct semidefinite program or through the dual cone
of the PPT states.
"""

from .bipartite import (
    GENERATOR_NAME,
    BipartiteDims,
    DensityMatrix,
    Ensemble,
    complex_gaussians,
    count_negative_eigenvalues,
    is_ppt,
    partial_transpose,
    random_density_matrix,
    realign,
    unrealign,
)
from .errors import (
    BadRank,
    DegenerateSubspace,
    NoConvergence,
    NotHermitian,
    NotInSubspace,
    NoWitness,
    ShapeMismatch,
)
from .linalg import Spectrum, eigh, frob_inner, hermitize, is_hermitian, kron
from .sdp import (
    ConeDecomposition,
    PptOptimum,
    SdpSolution,
    construct_via_dual_cone,
    optimize_over_ppt,
    solve_construction_sdp,
)
from .subspace import (
    Projector,
    SubspaceBasis,
    WitnessCertificate,
    antidiag_sums,
    build_subspace,
    closed_form_state,
    contains,
    ensemble_from_density,
    locate_witness,
    range_in_subspace,
    sample_mixture_in_subspace,
    subspace_projector,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDims",
    "DensityMatrix",
    "Ensemble",
    "Spectrum",
    "SubspaceBasis",
    "Projector",
    "WitnessCertificate",
    "SdpSolution",
    "PptOptimum",
    "ConeDecomposition",
    "GENERATOR_NAME",
    "eigh",
    "kron",
    "frob_inner",
    "hermitize",
    "is_hermitian",
    "partial_transpose",
    "count_negative_eigenvalues",
    "is_ppt",
    "realign",
    "unrealign",
    "random_density_matrix",
    "complex_gaussians",
    "build_subspace",
    "subspace_projector",
    "closed_form_state",
    "contains",
    "range_in_subspace",
    "antidiag_sums",
    "locate_witness",
    "ensemble_from_density",
    "sample_mixture_in_subspace",
    "solve_construction_sdp",
    "optimize_over_ppt",
    "construct_via_dual_cone",
    "ShapeMismatch",
    "NotHermitian",
    "NoConvergence",
    "BadRank",
    "NotInSubspace",
    "NoWitness",
    "DegenerateSubspace",
    "__version__",
]
