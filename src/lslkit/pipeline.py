"""End-to-end inversion: SISO step, data completion, MIMO step, iteration.

Stage schedule: the SISO step works with the first n field samples; each
completion round lifts a record of the current length N and the block
mass matrix then halves it to floor((N-1)/2) + 1. Every inversion,
including post-completion ones, fits measured diagonal data only; lifted
entries exist solely to synthesize better internal fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Grid2D,
    Potential,
    SnapshotSet,
    SourceSet,
    TimeAxis,
    TransferData,
    inner_product,
    restrict,
)
from .errors import FactorizationError, IterationBudgetError, PreconditionError
from .lippmann import assemble_system, forward_lift, residual_norm, solve_tsvd
from .rom import (
    block_mass_from_data,
    cholesky_upper,
    regularize_spd,
    siso_mass_from_data,
    synthesize_internal,
)
from .wavesim import BackgroundArtifacts, SolverSettings


def halved_length(n: int) -> int:
    return (n - 1) // 2 + 1


@dataclass(frozen=True)
class PipelineContext:
    """Immutable inputs shared by every stage of one inversion run."""

    sim_grid: Grid2D
    inv_grid: Grid2D
    sources: SourceSet
    axis: TimeAxis
    settings: SolverSettings
    measured: TransferData
    background: BackgroundArtifacts
    tsvd_siso: float = 1.0e-2
    tsvd_mimo: float = 1.0e-2
    tsvd_born: float = 1.0e-2
    threads: int = 1


@dataclass(frozen=True)
class StageRecord:
    name: str
    active_length: int
    potential: Potential
    residual: float
    rel_error: float | None = None


@dataclass
class PipelineState:
    """Mutable carrier threaded through the stages."""

    iteration: int
    data: TransferData
    q_est: Potential | None
    fields: tuple[SnapshotSet, ...] | None
    active_length: int
    history: list[StageRecord] = field(default_factory=list)


def _factor_with_fallback(mass):
    """Scalar factors are regularized only when factorization fails."""
    try:
        return cholesky_upper(mass)
    except FactorizationError:
        return cholesky_upper(regularize_spd(mass))


def internal_fields(ctx: PipelineContext, data: TransferData) -> list[SnapshotSet]:
    """Data-generated internal fields of a transfer record, one set per source.

    A diagonal-only record gets the scalar ROM of each source over n
    samples. A completed record gets the block ROM over its whole length,
    which leaves floor((N-1)/2) + 1 samples per field.
    """
    if not data.is_full:
        data.require_measured_diagonal()
        n, tau = ctx.axis.n, ctx.axis.tau
        fields = []
        for j in range(ctx.sources.count):
            basis = _factor_with_fallback(siso_mass_from_data(data.diagonal(j), n, tau))
            basis0 = _factor_with_fallback(
                siso_mass_from_data(ctx.background.data.diagonal(j), n, tau)
            )
            fields.extend(synthesize_internal(basis, basis0, [ctx.background.fields[j]]))
        return fields
    record = data.num_samples
    if halved_length(record) < 2:
        raise IterationBudgetError(
            f"time axis exhausted: {record} samples leave no usable equations"
        )
    mass = regularize_spd(block_mass_from_data(data, record))
    mass0 = regularize_spd(block_mass_from_data(_truncated(ctx.background.data, record)))
    return synthesize_internal(
        cholesky_upper(mass), cholesky_upper(mass0), list(ctx.background.fields)
    )


def run_siso_step(ctx: PipelineContext) -> PipelineState:
    """Per-source ROM internal fields and the first reconstruction."""
    n = ctx.axis.n
    fields = internal_fields(ctx, ctx.measured)
    system = assemble_system(
        list(ctx.background.antiderivatives),
        fields,
        ctx.measured,
        ctx.background.data,
        ctx.inv_grid,
        ctx.tsvd_siso,
    )
    q_est = solve_tsvd(system)
    state = PipelineState(0, ctx.measured, q_est, tuple(fields), n)
    state.history.append(StageRecord("siso", n, q_est, residual_norm(system, q_est)))
    return state


def run_lift_step(ctx: PipelineContext, state: PipelineState) -> PipelineState:
    """Populate off-diagonal data from the current estimate and fields."""
    if state.q_est is None or state.fields is None:
        raise PreconditionError("lifting requires a prior inversion stage")
    state.data = forward_lift(
        list(state.fields),
        state.q_est,
        list(ctx.background.antiderivatives),
        ctx.background.data,
        state.active_length,
        ctx.measured,
        threads=ctx.threads,
    )
    return state


def run_mimo_step(ctx: PipelineContext, state: PipelineState) -> PipelineState:
    """Block ROM on completed data, then re-invert measured diagonals."""
    state.data.require_full()
    fields = internal_fields(ctx, state.data)
    steps = fields[0].num_samples
    system = assemble_system(
        list(ctx.background.antiderivatives),
        fields,
        ctx.measured,
        ctx.background.data,
        ctx.inv_grid,
        ctx.tsvd_mimo,
    )
    q_est = solve_tsvd(system)
    state.iteration += 1
    state.q_est = q_est
    state.fields = tuple(fields)
    state.active_length = steps
    state.history.append(
        StageRecord(f"mimo-{state.iteration}", steps, q_est, residual_norm(system, q_est))
    )
    return state


def _truncated(data: TransferData, count: int) -> TransferData:
    return TransferData(data.values[:, :, :count], data.mask, data.tau)


def run_algorithm(
    ctx: PipelineContext,
    iterations: int = 1,
    q_true: Potential | None = None,
    regions: tuple[Region, ...] = (),
) -> PipelineState:
    """SISO step followed by `iterations` rounds of lift + MIMO.

    With a reference potential the history records the relative error of
    every stage alongside its data residual.
    """
    if iterations < 0:
        raise IterationBudgetError("iteration count must be nonnegative")
    state = run_siso_step(ctx)
    for _ in range(iterations):
        state = run_lift_step(ctx, state)
        state = run_mimo_step(ctx, state)
    if q_true is not None:
        state.history = [
            replace(rec, rel_error=metrics(rec.potential, q_true, regions).global_rel_l2)
            for rec in state.history
        ]
    return state


def invert_born(ctx: PipelineContext) -> tuple[Potential, float]:
    """Reconstruction with background fields in place of internal ones."""
    system = assemble_system(
        list(ctx.background.antiderivatives),
        list(ctx.background.fields),
        ctx.measured,
        ctx.background.data,
        ctx.inv_grid,
        ctx.tsvd_born,
    )
    q_est = solve_tsvd(system)
    return q_est, residual_norm(system, q_est)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle used for localized error reporting."""

    name: str
    x0: float
    x1: float
    y0: float
    y1: float

    def node_mask(self, grid: Grid2D) -> np.ndarray:
        x, y = grid.meshgrid()
        return (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)


@dataclass(frozen=True)
class ErrorReport:
    global_rel_l2: float
    region_rel_l2: dict[str, float]
    peak_offsets: dict[str, float]


def _align(q_est: Potential, q_true: Potential) -> tuple[Grid2D, np.ndarray, np.ndarray]:
    """Bring both potentials onto the coarser of the two nested grids."""
    if q_est.grid == q_true.grid:
        return q_est.grid, q_est.values, q_true.values
    if q_est.grid.num_nodes <= q_true.grid.num_nodes:
        coarse, est = q_est.grid, np.asarray(q_est.values)
        true = restrict(q_true.values, q_true.grid, coarse)
    else:
        coarse, true = q_true.grid, np.asarray(q_true.values)
        est = restrict(q_est.values, q_est.grid, coarse)
    return coarse, est, true


def _rel_l2(grid, diff, reference, where=None) -> float:
    if where is not None:
        diff = np.where(where, diff, 0.0)
        reference = np.where(where, reference, 0.0)
    num = inner_product(grid, diff, diff)
    den = inner_product(grid, reference, reference)
    return float(np.sqrt(num / den)) if den > 0.0 else float(np.sqrt(num))


def _peak(grid, values, where) -> tuple[float, float]:
    masked = np.where(where, values, -np.inf)
    iy, ix = np.unravel_index(np.argmax(masked), values.shape)
    return grid.xs()[ix], grid.ys()[iy]


def metrics(q_est: Potential, q_true: Potential, regions: tuple[Region, ...] = ()) -> ErrorReport:
    """Relative L2 error globally and per region, plus peak offsets."""
    grid, est, true = _align(q_est, q_true)
    diff = est - true
    region_err = {}
    offsets = {}
    for region in regions:
        mask = region.node_mask(grid)
        if not mask.any():
            continue
        region_err[region.name] = _rel_l2(grid, diff, true, mask)
        px_t, py_t = _peak(grid, true, mask)
        px_e, py_e = _peak(grid, est, mask)
        offsets[region.name] = float(np.hypot(px_e - px_t, py_e - py_t))
    return ErrorReport(_rel_l2(grid, diff, true), region_err, offsets)

