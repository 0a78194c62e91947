"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(ValueError):
    """Matrix fails the Hermiticity tolerance check."""


class NoConvergence(RuntimeError):
    """An iterative routine exhausted its budget before reaching tolerance.

    Solvers attach their best iterate as the ``partial`` attribute so
    callers can inspect (and report) the non-converged result.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BadRank(ValueError):
    """Requested rank is outside [1, dimension]."""


class NotInSubspace(ValueError):
    """Vector or state range is not contained in the subspace."""


class NoWitness(RuntimeError):
    """Witness search failed; only reachable on numerically void input."""


class DegenerateSubspace(ValueError):
    """The subspace is zero-dimensional (m = 1 or n = 1)."""
