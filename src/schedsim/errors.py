import math


class ConfigError(ValueError):
    """Raised when a simulation parameter is missing, malformed or out of its valid range."""


def check_floats(**values) -> None:
    """Reject a parameter that is not a finite float or int, named by its config key; None passes.  A bool
    and numpy's scalars other than float64, a float, are rejected: ``config.txt`` would not give them back."""
    for key, value in values.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("%s must be a float or an int, got %r" % (key, value))
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError("%s must be finite, got an int past the float range" % key) from None
        if not finite:
            raise ConfigError("%s must be finite, got %r" % (key, value))


def check_bools(**values) -> None:
    """Reject a parameter that is not a bool, named by its config key."""
    for key, value in values.items():
        if not isinstance(value, bool):
            raise ConfigError("%s must be true or false, got %r" % (key, value))
