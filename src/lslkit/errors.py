"""Exception hierarchy shared across the toolkit: one class per exit code.

The command line reads an error for its exit code alone:
ConfigurationError exits with 2, DegenerateDataError with 3 and
FormatError (or an OSError) with 4.

Input is refused at three boundaries: `ExperimentConfig.validate` (each
key, re-run after every override), `io.load_*` (each artifact) and
`pipeline._check_fit` (each record a step reads). Types keep their own
invariants; nothing behind a boundary checks again, so `rom` and
`lippmann` fail only numerically.
"""


class LslError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(LslError):
    """Input that does not fit the config or the toolkit's invariants (exit 2)."""


class DegenerateDataError(LslError):
    """A numerical step failed (exit 3)."""


class FormatError(LslError):
    """Malformed or truncated artifact file (exit 4)."""
