"""Exception types shared across the lab, and the input checks every layer makes."""

import math
import numbers
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


def _check_real(name: str, value):
    """`value` itself, when it is a real number: an int, float, Fraction or numpy scalar.
    Anything else, "2" and None included, raises ParameterError naming `name`."""
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return value


def _finite(value) -> bool:
    """Whether `value` converts to a finite double: an int or Fraction can overflow."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_capacity(capacity) -> None:
    """A capacity is a number at least 0 (NaN is not) that converts to a double: a float
    passes on one comparison, and float inf is an unbounded block, but an int or
    Fraction no double holds is refused, since the walks and the knapsack read doubles."""
    if not _check_real("capacity", capacity) >= 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity}")
    if type(capacity) is not float:
        try:
            float(capacity)
        except OverflowError:
            raise ParameterError(f"capacity must convert to a double, got {capacity}") from None


def _check_gamma(gamma) -> None:
    if gamma is None or not 0 < _check_real("gamma", gamma) < math.inf:
        raise ParameterError(f"gamma must be finite and above 0, got {gamma}")
