"""Exception types shared across the package, and the three input checks.

The CLI maps these onto exit codes: config/parameter problems exit 2,
data problems exit 3, numeric failures exit 4.

Every probability table and vector goes through ``check_rows``, every
integer setting or file field through ``check_int`` and every real-valued
one through ``check_real``; each raises ParameterError naming the value.
"""

import math

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


def check_real(name: str, value, interval: str | None = None):
    """``value`` unchanged if it is a finite int or float (numpy's too, never a
    bool) inside ``interval``, written like ``"(0, 1]"`` with ``inf`` for an
    open end, else ParameterError."""
    # an int is finite however large, and math.isfinite cannot convert a huge one
    ok = not isinstance(value, bool) and (isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and math.isfinite(value)))
    if ok and interval is not None:
        low, high = (float(end) for end in interval[1:-1].split(","))
        ok = (low < value or interval[0] == "[" and low == value) and (
            value < high or interval[-1] == "]" and value == high)
    if not ok:
        where = f" in {interval}" if interval else ""
        raise ParameterError(f"{name} must be a finite number{where}, got {value!r}")
    return value


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
