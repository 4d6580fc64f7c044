"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError means the run never started
(exit 2), everything else is a runtime failure (exit 1).
"""


class WavepoolError(Exception):
    """Base of every error the package raises on purpose."""


class ContractViolationError(WavepoolError, ValueError):
    """An operation was called with inputs that break its contract."""


class IngestionError(WavepoolError, OSError):
    """A dataset directory is missing mandatory files."""


class FormatError(WavepoolError, ValueError):
    """A dataset file exists but its contents are malformed."""


class DomainError(WavepoolError, ValueError):
    """A numeric argument lies outside the validity window of a routine."""


class NumericError(WavepoolError, ArithmeticError):
    """A numerical routine (SVD, eigendecomposition) failed to converge."""


class PoolingDegenerateError(WavepoolError, ValueError):
    """Requested pooled size is not smaller than the current graph."""


class ConfigError(WavepoolError, ValueError):
    """User-supplied configuration is invalid; no computation was started."""
