"""Exception types shared across the package."""


class QSpecialError(Exception):
    """Base class for all library errors."""


class DomainError(QSpecialError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(QSpecialError):
    """A truncated product/series failed to meet its tail bound in budget."""


class OutOfRangeError(QSpecialError):
    """A value exists but lies outside the normal range of a double."""


class UnknownPath(DomainError):
    """Requested limit path is not in the catalog."""
