"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition (sign, shape, structure)."""


class ValidationError(ValueError):
    """A candidate system failed validation.

    Carries the full list of violations so callers can report every
    problem at once instead of the first one hit.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConvergenceError(RuntimeError):
    """A solver stopped without meeting its tolerance or its check.

    `estimate` and `iterate` hold the last value/vector produced, so a
    caller can inspect how far the iteration got.
    """

    def __init__(self, message, estimate=None, iterate=None):
        super().__init__(message)
        self.estimate = estimate
        self.iterate = iterate


class IntegrationError(RuntimeError):
    """The ODE integrator aborted (step underflow or invariant breach).

    `start` is the index of the failing start within its batch, and `t`
    and `state` are that start's time and state when the run aborted.
    """

    def __init__(self, message, t=None, state=None, start=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.start = start
