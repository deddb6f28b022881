"""Exception types shared across the lab."""


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
