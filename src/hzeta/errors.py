"""Exception hierarchy shared by all hzeta modules."""


class HZetaError(Exception):
    """Base class for all hzeta errors."""


class DomainError(HZetaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonAdmissible(DomainError):
    """A composition with first part 1 was passed where convergence requires
    a first part >= 2."""


class DimensionMismatch(DomainError):
    """Two sequences that must have equal length do not."""


class PoleError(DomainError):
    """A shifted denominator n + a - 1 vanished; the value is a pole."""


class ToleranceNotReached(HZetaError):
    """The requested tolerance could not be certified within the truncation
    budget.  ``best`` carries the best available estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoConvergence(HZetaError):
    """A series diverges, so it has no value to approximate."""


class UnknownIdentity(HZetaError, KeyError):
    """An identity id that is not present in the registry."""

    def __str__(self):
        # KeyError wraps its message in repr quotes; undo that
        return self.args[0] if self.args else ""
