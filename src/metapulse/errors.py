"""Exception types shared across the package."""


class MetapulseError(Exception):
    """Base class for all package-specific errors."""


class SingularFrequencyError(MetapulseError, ValueError):
    """A material response was requested at omega = 0 where it diverges."""


class EvanescentBandError(MetapulseError, ValueError):
    """Frequency lies between the plasma frequencies where a^2 < 0."""


class InadmissibleGridError(MetapulseError, ValueError):
    """The frequency grid violates a precondition of the requested operator."""


class GridMismatchError(MetapulseError, ValueError):
    """Two objects that must share a time grid do not."""


class ParameterError(MetapulseError, ValueError):
    """A constructor refused its arguments ``names`` for ``reason``."""

    def __init__(self, names, reason):
        self.names, self.reason = names, reason
        super().__init__(f"{'/'.join(names)}: {reason}")


class BlowUpError(MetapulseError, RuntimeError):
    """A marching solver produced non-finite values.

    Carries the partial record up to the last finite station in
    ``self.record`` when available.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(MetapulseError, ValueError):
    """Scenario configuration is invalid; ``self.violations`` lists all problems."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
