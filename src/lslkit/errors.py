"""Exception hierarchy shared across the toolkit.

The command line maps these onto exit codes: configuration-type errors
(ConfigurationError, DimensionError, DomainError, PreconditionError)
exit with 2, numerical failures (DegenerateDataError, FactorizationError,
OverRegularizationError, IterationBudgetError) with 3, and file problems
(FormatError, OSError) with 4.
"""


class LslError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(LslError):
    """Invalid configuration value or incompatible grids/settings."""


class DimensionError(LslError):
    """Mismatched array shapes, grids, or time axes."""


class DomainError(LslError):
    """Input violates a mathematical precondition (e.g. negative potential)."""


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


CONFIG_ERRORS = (ConfigurationError, DimensionError, DomainError, PreconditionError)
NUMERICAL_ERRORS = (
    DegenerateDataError,
    FactorizationError,
    OverRegularizationError,
    IterationBudgetError,
)
