"""Error types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies instead of a bare Exception.
"""


class BacktestError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BacktestError, ValueError):
    """Invalid or inconsistent run configuration.

    ``key`` names the offending config key (or flag) when known, so error
    output stays machine-parsable.  The config dataclasses raise it where
    each rule is checked, and it is a ``ValueError`` for callers that
    expect one.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key

    def __str__(self) -> str:
        base = super().__str__()
        if self.key:
            return f"[{self.key}] {base}"
        return base


class DataError(BacktestError):
    """Malformed or out-of-domain input data (price series, timestamps)."""


class CalibrationUnreachableError(BacktestError):
    """The calibration target cannot be reached anywhere on the search grid."""

    def __init__(self, message: str, fee_min: float | None = None,
                 fee_max: float | None = None):
        super().__init__(message)
        self.fee_min = fee_min
        self.fee_max = fee_max
