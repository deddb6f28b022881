"""Exception types shared across the lab, and the input checks every layer makes."""

import math
import operator


class ParameterError(ValueError):
    """A distribution or mechanism parameter is out of its valid range."""


class DomainError(ValueError):
    """An operation was invoked on an input outside its domain."""


class SolverLimitError(RuntimeError):
    """Exact knapsack requested on an instance above the exhaustive limit."""


class MiningTimeoutError(RuntimeError):
    """The nonce search exhausted its trial budget without mining a block."""


class ConfigError(ValueError):
    """An experiment or mechanism config is malformed."""


def _check_int(name: str, value, lo: int = 0, hi=None) -> int:
    """`value` as an int from `lo` to `hi` (no bound when None); any other value,
    2.5 and "7" included, raises ParameterError naming `name`."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if number < lo:
        raise ParameterError(f"{name} must be at least {lo}, got {number}")
    if hi is not None and number > hi:
        raise ParameterError(f"{name} must be at most {hi}, got {number}")
    return number


def _check_capacity(capacity) -> None:
    if not capacity >= 0:  # NaN fails too; inf is an unbounded block
        raise ParameterError(f"capacity must be non-negative, got {capacity}")


def _check_gamma(gamma) -> None:
    if gamma is None or not 0 < gamma < math.inf:
        raise ParameterError(f"gamma must be finite and above 0, got {gamma}")
