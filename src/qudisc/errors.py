"""Exception types shared across the toolkit."""


class ShapeError(ValueError):
    """An operand has the wrong shape (non-square matrix, dimension mismatch)."""


class DomainError(ValueError):
    """A value lies outside the operation's documented domain."""


class IndistinguishableError(DomainError):
    """The two operations have zero eigenphase spread; no finite query count separates them."""


class CapacityError(ValueError):
    """A requested dimension exceeds the global dense-matrix cap."""


class ValidationError(ValueError):
    """A structured object (POVM, protocol, config, JSON payload) violates its invariants,
    or a count is not an integer or is below its floor (``linalg.check_integer``)."""


class UsageError(ValueError):
    """An API or CLI call combines options that make no sense together."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""
