"""Exception hierarchy shared across the toolkit.

Each class carries the process exit code the command line returns for
it: config/usage problems exit 2, data/parse problems exit 3, and
numerical failures exit 4.
"""


class TerraGpError(Exception):
    """Base class for all toolkit errors; numerical failures keep its code."""

    exit_code = 4


class InvalidConfigError(TerraGpError):
    """A configuration value is out of range or inconsistent."""

    exit_code = 2


class InvalidInputError(TerraGpError):
    """Input data violates a precondition (non-finite, nonpositive, ...)."""

    exit_code = 3


class DataFormatError(TerraGpError):
    """A file could not be parsed or grids disagree on geometry."""

    exit_code = 3


class EmptyDatasetError(DataFormatError):
    """No usable samples remain after masking nodata cells."""


class IllConditionedKernelError(TerraGpError):
    """Cholesky factorization failed even at the jitter ceiling."""


class TrainingDivergedError(TerraGpError):
    """A loss or gradient became non-finite during optimization."""
