"""Exception hierarchy shared across the toolkit.

The command line maps these onto exit codes: configuration-type errors
(ConfigurationError, DimensionError, PreconditionError) exit with 2,
numerical failures (DegenerateDataError, FactorizationError,
OverRegularizationError, IterationBudgetError) with 3, and file problems
(FormatError, OSError) with 4.

Input is refused at three boundaries: `ExperimentConfig.validate` (each
key, re-run after every override), `io.load_*` (each artifact) and
`pipeline._check_fit` (each record a step reads). Types keep their own
invariants; nothing behind a boundary checks again, so `rom` and
`lippmann` fail only numerically.
"""


class LslError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(LslError):
    """Invalid configuration value or incompatible grids/settings."""


class DimensionError(LslError):
    """Mismatched array shapes, grids, or time axes."""


class PreconditionError(LslError):
    """Required data entries are missing or inconsistent."""


class DegenerateDataError(LslError):
    """Data admits no positive-definite or no finite interpretation."""


class FactorizationError(LslError):
    """Matrix factorization failed; regularization may be required."""


class OverRegularizationError(LslError):
    """Truncation removed every usable singular value."""


class IterationBudgetError(LslError):
    """Time axis exhausted by the halving schedule."""


class FormatError(LslError):
    """Malformed or truncated artifact file."""


CONFIG_ERRORS = (ConfigurationError, DimensionError, PreconditionError)
NUMERICAL_ERRORS = (
    DegenerateDataError,
    FactorizationError,
    OverRegularizationError,
    IterationBudgetError,
)
