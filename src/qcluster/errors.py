"""Exception types shared across the package."""


class QClusterError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QClusterError):
    """Operands live over different skew forms / lattice ranks."""


class NotDivisible(QClusterError):
    """Exact torus division failed; carries the irreducible remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class IncompatiblePair(QClusterError):
    """B~^t Lambda != I~_n."""


class NotSkewSymmetric(QClusterError):
    pass


class NoGVector(QClusterError):
    """Element is not of cluster-monomial shape."""


class InconsistentLattice(QClusterError):
    """F-polynomial extraction met an exponent outside g + B~ Z^n_{>=0},
    or the g-vectors of a mutation sequence do not invert its C-matrix."""


class LoopAtVertex(QClusterError):
    pass


class DegreeCapExceeded(QClusterError):
    pass


class RelationViolation(QClusterError):
    """A decorated representation failed the Jacobi relations."""


class SignAmbiguous(QClusterError):
    """A c-vector with mixed signs; would contradict sign coherence."""


class BoundTooSmall(QClusterError):
    pass


class TailNotVanishing(QClusterError):
    """Conjugation output does not become finite within the cone bound."""

    def __init__(self, message, suggested_bound=None):
        super().__init__(message)
        self.suggested_bound = suggested_bound


class BudgetExceeded(QClusterError):
    pass


class NotPolynomialCount(QClusterError):
    pass


class ChecksNotRun(QClusterError):
    """Some checks of a run did not run; the report is still printed."""
