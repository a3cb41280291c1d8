"""Exception taxonomy shared across the package."""


class CreditNetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CreditNetError):
    """Array dimensions do not satisfy an operation's contract."""


class ConfigError(CreditNetError):
    """A configuration value is invalid or inconsistent."""


class SchemaError(CreditNetError):
    """A dataset does not match the declared column schema."""


class DataError(CreditNetError, ValueError):
    """A row or column of the dataset is unusable (bad cell, all-missing column)."""


class NumericError(CreditNetError):
    """A computation produced NaN/Inf or otherwise diverged."""


class LeakageError(CreditNetError):
    """Statistics fitted on one split were applied where they would leak information."""


class UndefinedMetricError(CreditNetError):
    """The requested metric is undefined for the given labels (e.g. single-class AUC)."""


class StateError(CreditNetError):
    """An object was used outside its valid lifecycle (e.g. a forward trace reused)."""
