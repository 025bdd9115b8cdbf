"""Exception types shared across the package."""


class PolekitError(Exception):
    """Base class for all package errors."""


class EvaluationError(PolekitError):
    """An elementary operation was applied outside its domain.

    Carries the name of the offending operation so callers can report
    which primitive failed (e.g. "div", "sqrt").
    """

    def __init__(self, op, message):
        super().__init__(f"{op}: {message}")
        self.op = op


class DerivativeUnavailable(PolekitError):
    """A derivative of a numerically-backed function was requested but
    no exact rule for it is known (finite differences are never used as
    a fallback)."""


class DomainError(PolekitError):
    """A point lies outside a chart's declared domain, a parameter lies
    outside a worldline's interval, or an input violates a documented
    precondition."""


class QuadratureError(PolekitError):
    """Adaptive quadrature failed to reach the requested tolerance, or
    its integrand returned a value that is not finite.

    ``worst_interval`` is the (a, b) subinterval with the largest
    remaining error estimate.
    """

    def __init__(self, message, worst_interval=None):
        super().__init__(message)
        self.worst_interval = worst_interval


class SymmetryError(PolekitError):
    """Declared multipole components violate their symmetry constraints.

    ``index`` is the offending component index tuple and ``tau`` the
    parameter value at which the violation was detected.
    """

    def __init__(self, message, index=None, tau=None):
        super().__init__(message)
        self.index = index
        self.tau = tau


class RegistryError(PolekitError):
    """Unknown chart name or invalid chart parameters."""


class SceneError(PolekitError):
    """Scene text failed to parse or validate.

    ``problems`` is a list of human-readable strings, each locating the
    error (JSON line/column or scene path plus expression column).
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = list(problems)
