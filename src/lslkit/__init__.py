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
    SnapshotSet,
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
    PipelineState,
    Region,
    internal_fields,
    invert_born,
    metrics,
    run_algorithm,
    run_lift_step,
    run_mimo_step,
    run_siso_step,
)
from .rom import (
    MassMatrix,
    OrthogonalizedBasis,
    block_mass_from_data,
    cholesky_upper,
    regularize_spd,
    siso_mass_from_data,
    synthesize_internal,
)
from .wavesim import (
    BackgroundArtifacts,
    SolverSettings,
    add_noise,
    simulate_background,
    simulate_snapshots,
    simulate_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "MaskState",
    "Potential",
    "SnapshotSet",
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
    "PipelineState",
    "Region",
    "internal_fields",
    "invert_born",
    "metrics",
    "run_algorithm",
    "run_lift_step",
    "run_mimo_step",
    "run_siso_step",
    "MassMatrix",
    "OrthogonalizedBasis",
    "block_mass_from_data",
    "cholesky_upper",
    "regularize_spd",
    "siso_mass_from_data",
    "synthesize_internal",
    "BackgroundArtifacts",
    "SolverSettings",
    "add_noise",
    "simulate_background",
    "simulate_snapshots",
    "simulate_transfer",
    "__version__",
]
