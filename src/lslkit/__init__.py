"""Wave-equation imaging from monostatic boundary data.

The toolkit reconstructs a nonnegative scattering potential from
collocated source/receiver time series: reduced-order models turn the
measured data into approximate internal wavefields, a linearized
Lippmann-Schwinger system is inverted by truncated SVD, and a forward
evaluation of the same integral completes the unmeasured off-diagonal
data so the whole loop can be iterated.
"""

from .core import (
    Grid2D,
    MaskState,
    Potential,
    SourceSet,
    TimeAxis,
    TransferData,
    inner_product,
    prolong,
    restrict,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
    DomainError,
    FactorizationError,
    FormatError,
    IterationBudgetError,
    LslError,
    OverRegularizationError,
    PreconditionError,
)
from .lippmann import LSSystem, assemble_system, forward_lift, solve_tsvd
from .pipeline import (
    ErrorReport,
    PipelineContext,
    Region,
    StageRecord,
    internal_transform,
    invert_born,
    metrics,
    run_lift_step,
    run_lsl_step,
    stage_round,
    stages,
)
from .rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    regularize_spd,
)
from .wavesim import (
    BackgroundBands,
    SolverSettings,
    add_noise,
    background_stacks,
    simulate_background,
    simulate_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "MaskState",
    "Potential",
    "SourceSet",
    "TimeAxis",
    "TransferData",
    "inner_product",
    "prolong",
    "restrict",
    "ConfigurationError",
    "DegenerateDataError",
    "DimensionError",
    "DomainError",
    "FactorizationError",
    "FormatError",
    "IterationBudgetError",
    "LslError",
    "OverRegularizationError",
    "PreconditionError",
    "LSSystem",
    "assemble_system",
    "forward_lift",
    "solve_tsvd",
    "ErrorReport",
    "PipelineContext",
    "Region",
    "StageRecord",
    "internal_transform",
    "invert_born",
    "metrics",
    "run_lift_step",
    "run_lsl_step",
    "stage_round",
    "stages",
    "block_mass_from_data",
    "cholesky_upper",
    "field_transform",
    "regularize_spd",
    "BackgroundBands",
    "SolverSettings",
    "add_noise",
    "background_stacks",
    "simulate_background",
    "simulate_transfer",
    "__version__",
]
