"""Exception types shared across the package, and the one seed check.

The CLI maps these onto exit codes: config/parameter problems exit 2,
data problems exit 3, numeric failures exit 4.
"""


class ParameterError(ValueError):
    """An argument or configuration value is out of its valid range."""


class ConfigError(ParameterError):
    """A config file could not be parsed; the message names the key."""


class DataError(ValueError):
    """Input data is malformed or inconsistent with the model."""


class NumericError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def check_seed(name: str, value) -> int:
    """``value`` if it is a non-negative int (not a bool), else ParameterError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    return value
