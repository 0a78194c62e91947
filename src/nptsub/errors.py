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
    """Witness search failed on a state in the subspace: no entry of the
    first nonzero anti-diagonal pairs with its position a, or the 2x2 block
    found has a determinant that is not negative.  Reachable only where
    the state's weight on an anti-diagonal is near the zero scale."""


class DegenerateSubspace(ValueError):
    """The subspace is zero-dimensional (m = 1 or n = 1)."""
