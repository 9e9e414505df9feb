"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: configuration problems (including
precondition/domain violations) exit with 2, numerical instability with 3,
verification failures with 1.
"""


class FbpError(Exception):
    """Base class for all package errors."""


class DomainViolationError(FbpError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigurationError(FbpError):
    """Inconsistent grids, shapes, or scenario configuration."""


class GridMismatchError(ConfigurationError):
    """Fields that must share a grid do not."""


class InstabilityError(FbpError):
    """A computation would overflow or amplify noise beyond recovery."""


class NearSingularError(InstabilityError):
    """A denominator (the branch gap) is too close to zero."""
