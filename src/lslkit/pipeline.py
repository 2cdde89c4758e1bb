"""End-to-end inversion: one LSL step, data completion, iteration.

An LSL step builds internal fields from the ROM of one transfer record,
puts them into the Lippmann-Schwinger system and fits the measured
diagonal. The SISO step runs it on the measured record (one ROM per
source); each completion round lifts the previous estimate to a full
record and runs it again (one ROM of all sources). Every inversion,
including post-completion ones, fits measured diagonal data only; lifted
entries exist solely to synthesize better internal fields. Each step
returns a frozen `StageRecord`, and `stages` is the one loop over rounds.

Stage schedule: the SISO step works with the first n field samples; each
completion round lifts a record of the current length N and the block
mass matrix then halves it to floor((N-1)/2) + 1.

A data-generated internal field is the background times one matrix,
u = u0 * T (`rom.field_transform`), and a stage carries only T, in the
source-major order of the (K, N, ...) background stacks, as the stack
of its diagonal blocks that `lippmann` describes; the Born inversion is
K identity blocks. Assembly and the lift both take the background
stacks and T: assembly gets them injected onto the inversion grid as
`[:, :, ::r, ::r]` views (injection commutes with T), the lift gets the
fine stacks, which are never copied.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid2D,
    Potential,
    SourceSet,
    TimeAxis,
    TransferData,
    inner_product,
    refinement_ratio,
    restrict,
)
from .errors import DimensionError, IterationBudgetError
from .lippmann import assemble_system, forward_lift, residual_norm, solve_tsvd
from .rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    halved_length,
    regularize_spd,
)
from .wavesim import BackgroundArtifacts


@dataclass(frozen=True)
class PipelineContext:
    """Immutable inputs shared by every stage of one inversion run."""

    sim_grid: Grid2D
    inv_grid: Grid2D
    sources: SourceSet
    axis: TimeAxis
    measured: TransferData
    background: BackgroundArtifacts
    tsvd_siso: float
    tsvd_mimo: float
    tsvd_born: float
    positivity: bool


@dataclass(frozen=True)
class StageRecord:
    """One LSL step: the record its internal fields came from, their ROM
    transform T as a (B, G N, G N) stack of diagonal blocks, and the fit
    of the measured diagonal.

    Round 0 is the SISO step on a diagonal-only record. Round r >= 1 is
    the MIMO step on a full record: the first r whose lift length L_r
    fits in it, L_1 = n and L_(r+1) = `halved_length(L_r)`.
    """

    round: int
    data: TransferData
    transform: np.ndarray
    potential: Potential
    residual: float

    @property
    def name(self) -> str:
        return f"mimo-{self.round}" if self.round else "siso"

    @property
    def active_length(self) -> int:
        """Samples per internal field: a block's side over its G = K / B sources."""
        return self.transform.shape[-1] * len(self.transform) // self.data.num_sources


def internal_transform(ctx: PipelineContext, data: TransferData) -> np.ndarray:
    """ROM transform T of a transfer record: its internal fields are u0 * T.

    A diagonal-only record of at least 2n-1 samples gets the ROM of each
    source's 1 x 1 record over 2n-1 samples, so T is the (K, n, n) stack
    of their blocks. A full record of N <= 2n-1 samples gets the block
    ROM over all N, leaving N' = floor((N-1)/2) + 1 samples per field,
    and T is one (K N', K N') block. The ROM works on plain arrays: every
    mass matrix is passed through `regularize_spd`, which returns
    (matrix, record), and its matrix is factored; no stage keeps the
    record yet. A record that
    does not fit the context raises DimensionError naming the config key.
    """
    n, tau, K = ctx.axis.n, ctx.axis.tau, ctx.sources.count
    if data.num_sources != K:
        raise DimensionError(f"record has {data.num_sources} sources, sources.count is {K}")
    if not abs(data.tau - tau) <= 1e-12 * tau:
        raise DimensionError(f"record sample interval {data.tau} differs from time.tau {tau}")
    length, limit, full = data.num_samples, ctx.axis.total_samples, data.is_full
    if (length > limit) if full else (length < limit):
        bound = "at most" if full else "at least"
        raise DimensionError(f"record holds {length} samples, time.n {n} takes {bound} {limit}")
    background = ctx.background.data
    if not full:
        data.require_measured_diagonal()
        return np.stack(
            [_rom_transform(_source(data, j), _source(background, j), limit) for j in range(K)]
        )
    if halved_length(length) < 2:
        raise IterationBudgetError(
            f"time axis exhausted: {length} samples leave no usable equations"
        )
    return _rom_transform(data, background, length)[np.newaxis]


def _source(data: TransferData, j: int) -> TransferData:
    """The 1 x 1 record of source j's diagonal series."""
    pair = (slice(j, j + 1), slice(j, j + 1))
    return TransferData(data.values[pair], data.mask[pair], data.tau)


def _rom_transform(data: TransferData, data0: TransferData, length: int) -> np.ndarray:
    """T of the block ROM of `data` against the background record `data0`
    over the same sources and their first `length` samples."""
    upper = _factor(block_mass_from_data(data, length))
    upper0 = _factor(block_mass_from_data(data0, length))
    return field_transform(upper, upper0, data.num_sources)


def _round(ctx: PipelineContext, data: TransferData) -> int:
    """The `StageRecord.round` of an LSL step on `data`."""
    round_index, lift_length = 1, ctx.axis.n
    while lift_length > data.num_samples:
        round_index, lift_length = round_index + 1, halved_length(lift_length)
    return round_index if data.is_full else 0


def _injected(ctx: PipelineContext, stack: np.ndarray) -> np.ndarray:
    """A fine-grid stack injected onto the inversion grid, as a view."""
    ratio = refinement_ratio(ctx.sim_grid, ctx.inv_grid)
    return stack[:, :, ::ratio, ::ratio]


def _factor(mass: np.ndarray) -> np.ndarray:
    matrix, _record = regularize_spd(mass)
    return cholesky_upper(matrix)


def _invert(ctx: PipelineContext, transform: np.ndarray, threshold: float):
    """TSVD fit of the measured diagonal with the internal fields u0 * T,
    clamped to q >= 0 under `ctx.positivity` before its residual is taken."""
    system = assemble_system(
        _injected(ctx, ctx.background.antiderivatives),
        _injected(ctx, ctx.background.fields),
        transform,
        ctx.measured,
        ctx.background.data,
        ctx.inv_grid,
        threshold,
    )
    q_est = solve_tsvd(system)
    if ctx.positivity:
        q_est = Potential(q_est.grid, np.maximum(q_est.values, 0.0))
    return q_est, residual_norm(system, q_est)


def run_lsl_step(ctx: PipelineContext, data: TransferData) -> StageRecord:
    """Internal fields from the ROM of `data`, then the TSVD fit of the measured diagonal.

    A diagonal-only record takes the per-source ROM and `tsvd_siso`; a
    completed record takes the block ROM and `tsvd_mimo`.
    """
    transform = internal_transform(ctx, data)
    threshold = ctx.tsvd_mimo if data.is_full else ctx.tsvd_siso
    potential, residual = _invert(ctx, transform, threshold)
    return StageRecord(_round(ctx, data), data, transform, potential, residual)


def run_lift_step(
    ctx: PipelineContext, potential: Potential, transform: np.ndarray
) -> TransferData:
    """The full record of an estimate whose internal fields are u0 * T."""
    return forward_lift(
        ctx.background.fields,
        transform,
        potential,
        ctx.background.antiderivatives,
        ctx.background.data,
        ctx.measured,
        ctx.sim_grid,
    )


def stages(ctx: PipelineContext, iterations: int = 1) -> Iterator[StageRecord]:
    """The stage schedule: the SISO step, then `iterations` rounds of lift + MIMO step.

    Yields one record per inversion. Round r's `.data` is the record
    lifted from round r-1's estimate and internal fields.
    """
    if iterations < 0:
        raise IterationBudgetError("iteration count must be nonnegative")
    record = run_lsl_step(ctx, ctx.measured)
    yield record
    for _ in range(iterations):
        lifted = run_lift_step(ctx, record.potential, record.transform)
        record = run_lsl_step(ctx, lifted)
        yield record


def invert_born(ctx: PipelineContext) -> tuple[Potential, float]:
    """Reconstruction with background fields in place of internal ones:
    T is K identity blocks, a read-only view of one n x n identity."""
    n = ctx.axis.n
    return _invert(ctx, np.broadcast_to(np.eye(n), (ctx.sources.count, n, n)), ctx.tsvd_born)


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

