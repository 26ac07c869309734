"""Exception types shared across the package, and the two input checks.

The CLI maps these onto exit codes: config/parameter problems exit 2,
data problems exit 3, numeric failures exit 4.

Every probability table and vector goes through ``check_rows`` and every
integer setting or file field through ``check_int``; both raise
ParameterError naming the value.
"""

import numpy as np


class ParameterError(ValueError):
    """An argument or configuration value is out of its valid range."""


class ConfigError(ParameterError):
    """A config file could not be parsed; the message names the key."""


class DataError(ValueError):
    """Input data is malformed or inconsistent with the model."""


class NumericError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (numpy's too, never a bool or a
    float) of at least ``minimum``, else ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_rows(name: str, x) -> np.ndarray:
    """``x`` as floats if it is non-negative and sums to 1 within 1e-9 along
    its last axis, else ParameterError."""
    x = np.asarray(x, dtype=np.float64)
    # written so that NaN fails it, since NaN also passes the row sum test
    if not np.all(x >= 0):
        raise ParameterError(f"{name} has negative or non-finite entries")
    if np.any(np.abs(x.sum(axis=-1) - 1.0) > 1e-9):
        raise ParameterError(f"rows of {name} must sum to 1")
    return x
