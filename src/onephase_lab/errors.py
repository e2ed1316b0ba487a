"""Exception types shared across the lab."""


class LabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(LabError, ValueError):
    """An argument violates a documented precondition; ``name`` is the argument to blame, if one is."""

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name


class DomainTruncationError(LabError):
    """An integration left the representable range before the domain ended."""


class NonconvergenceError(LabError):
    """An iterative solver stagnated.

    Carries the last iterate (``last``) and the residual/eigenvalue trace
    (``trace``) so callers can inspect the failure.
    """

    def __init__(self, message, last=None, trace=None):
        super().__init__(message)
        self.last = last
        self.trace = list(trace) if trace is not None else []


class InconclusiveClassificationError(LabError):
    """Profile tails are not affine at the requested tolerance."""


class NonIntegrableTailError(LabError):
    """The first-integral quadrature diverges (primitive not increasing)."""


class GeometryMismatchError(LabError):
    """A prescribed boundary does not track the field's zero level set."""


class CurvatureSingularityError(LabError):
    """A generator touches the axis with a nonvertical tangent."""


class PreconditionViolationError(LabError):
    """A field does not satisfy the boundary conditions an identity needs."""


class ConfigError(LabError):
    """An experiment configuration failed to parse or validate."""
