"""Exception types shared across the package."""


class QvelabError(Exception):
    """Base class for all qvelab errors.

    ``exit_code`` is the CLI exit status: 2 (bad usage or input) unless a
    subclass marks a numerical failure with 1.
    """

    exit_code = 2


class ExactTooLarge(QvelabError):
    """Exact enumeration beyond its supported part count or tree edge count."""


class PartMeasureMismatch(QvelabError):
    """Operation requires equal (or matching) part measures."""


class AsymmetricInput(QvelabError):
    """A symmetric matrix was expected."""


class NotConverged(QvelabError):
    """Iterative solver or root search failed to reach tolerance.

    Carries the list of offending points in ``points`` when applicable.
    """

    exit_code = 1

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


class GridTooNarrow(QvelabError):
    """Spectral grid captured less than the required mass."""


class PreconditionViolated(QvelabError):
    """Input outside the admissible region of the operation."""


class PartitionMismatch(QvelabError):
    """Kernels were expected to share a partition."""


class DomainError(QvelabError):
    """Argument outside the function's domain (a tilting kernel included)."""


class DivisibilityError(QvelabError):
    """Block count must divide the matrix dimension."""


class SolveFailure(QvelabError):
    """Dense linear solve failed."""

    exit_code = 1


class EigFailure(QvelabError):
    """Symmetric eigendecomposition failed."""

    exit_code = 1
