import math


class ConfigError(ValueError):
    """Raised when a simulation parameter is missing, malformed or out of its valid range."""


def check_finite(**values) -> None:
    """Reject a NaN or infinite parameter, named by its config key; None passes."""
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError("%s must be finite, got %r" % (key, value))
