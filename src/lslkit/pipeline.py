"""End-to-end inversion: one LSL step, data completion, iteration.

An LSL step builds internal fields from the ROM of one transfer record,
puts them into the Lippmann-Schwinger system and fits that record's
measured diagonal. The SISO step runs it on the measured record (one ROM
per source); each completion round lifts the previous estimate to a full
record, whose diagonal is copied from the record its fields came from,
and runs it again (one ROM of all sources). So every inversion fits
measured diagonal data only; lifted entries exist solely to synthesize
better internal fields. Each step returns a frozen `StageRecord`, and
`stages` is the one loop over rounds.

Stage schedule: the SISO step works with the first n field samples; each
completion round lifts a record of the current length N and the block
mass matrix then halves it to floor((N-1)/2) + 1.

A data-generated internal field is the background times one matrix,
u = u0 * T (`rom.field_transform`), and a stage carries only T, in the
source-major order of the (K, N, ...) background, as the stack of its
diagonal blocks that `lippmann` describes; the Born inversion is K
identity blocks. Assembly and the lift both take T and the background
as `wavesim.BackgroundBands`, which they evaluate one band of rows at a
time: assembly on the inversion grid (injection commutes with T), the
lift on the simulation grid. Every step passes the closed form on the
grid it reads, over the N samples its T reads, so every band holds
exactly those N samples and `lippmann` cuts no background by sample. No
(K, N, ...) stack exists on either grid. A context holds F0 and no
background, so nothing outlives its step, and `stages` makes exactly the
calls of chaining the steps by hand.

Every record a step reads passes one gate, `_check_fit`, before any ROM
or background is evaluated: its sample interval must be the config's, it
must hold the samples the step reads, and its diagonal must be measured.
Its source count and its length of at most 2n-1 samples are the loader's
to refuse (`io.load_transfer`); a record the steps make has both. Nothing
behind the gate checks again (`errors`): `rom` and `lippmann` take what
it passes.
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
    restrict,
)
from .errors import ConfigurationError, DegenerateDataError
from .lippmann import assemble_system, field_samples, forward_lift, residual_norm, solve_tsvd
from .rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    halved_length,
    regularize_spd,
)
from .wavesim import BackgroundBands, SolverSettings


@dataclass(frozen=True)
class PipelineContext:
    """Immutable inputs of every step of one inversion run, no record among
    them (a step is handed the one it reads), and no background (a step
    evaluates its own bands); every inversion truncates its TSVD at `tsvd`.
    `background` is the zero-potential record F0."""

    sim_grid: Grid2D
    inv_grid: Grid2D
    sources: SourceSet
    axis: TimeAxis
    settings: SolverSettings
    background: TransferData
    tsvd: float
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
        """Samples per internal field (`lippmann.field_samples`)."""
        return field_samples(self.transform, self.data.num_sources)


def internal_transform(ctx: PipelineContext, data: TransferData) -> np.ndarray:
    """ROM transform T of a transfer record: its internal fields are u0 * T.

    A diagonal-only record of 2n-1 samples gets the ROM of each source's
    1 x 1 record, so T is the (K, n, n) stack of their blocks. A full
    record of N <= 2n-1 samples gets the block ROM over all N, leaving N'
    = floor((N-1)/2) + 1 samples per field, and T is one (K N', K N')
    block. The ROM works on plain arrays: it reads the records' values,
    every mass matrix is passed through `regularize_spd`, which returns
    (matrix, record), and its matrix is factored; no stage keeps the
    record yet. A record that does not fit the context, or whose diagonal
    is not measured, raises ConfigurationError (exit 2, `_check_fit`), and
    one too short to halve DegenerateDataError (exit 3).
    """
    K, limit, length = ctx.sources.count, ctx.axis.total_samples, data.num_samples
    _check_fit(ctx, data, 0 if data.is_full else limit)
    values, values0 = data.values, ctx.background.values
    if not data.is_full:
        return np.stack([
            _rom_transform(values[j : j + 1, j : j + 1], values0[j : j + 1, j : j + 1], limit)
            for j in range(K)
        ])
    if halved_length(length) < 2:
        raise DegenerateDataError(
            f"time axis exhausted: {length} samples leave no usable equations"
        )
    return _rom_transform(values, values0, length)[np.newaxis]


def _check_fit(ctx: PipelineContext, data: TransferData, fewest: int) -> None:
    """The gate of every record a step reads, before any ROM or background is
    evaluated: refuse one whose sample interval is not the config's, or
    that holds fewer than `fewest` samples, naming the key, and then one
    whose diagonal is not measured, each with ConfigurationError (exit 2)."""
    tau, n, length = ctx.axis.tau, ctx.axis.n, data.num_samples
    if not abs(data.tau - tau) <= 1e-12 * tau:
        raise ConfigurationError(f"record sample interval {data.tau} differs from time.tau {tau}")
    if length < fewest:
        raise ConfigurationError(
            f"record holds {length} samples, time.n {n} takes at least {fewest}"
        )
    data.require_measured_diagonal()


def _rom_transform(values: np.ndarray, values0: np.ndarray, length: int) -> np.ndarray:
    """T of the block ROM of record values `values` against the background's
    `values0`, both (K, K, T), over their first `length` samples."""
    upper = _factor(block_mass_from_data(values, length))
    upper0 = _factor(block_mass_from_data(values0, length))
    return field_transform(upper, upper0, len(values))


def stage_round(ctx: PipelineContext, data: TransferData) -> int:
    """The `StageRecord.round` of an LSL step on `data`, 0 for a diagonal-only record."""
    round_index, lift_length = 1, ctx.axis.n
    while lift_length > max(data.num_samples, 1):
        round_index, lift_length = round_index + 1, halved_length(lift_length)
    return round_index if data.is_full else 0


def _factor(mass: np.ndarray) -> np.ndarray:
    matrix, _record = regularize_spd(mass)
    return cholesky_upper(matrix)


def _background(ctx: PipelineContext, transform: np.ndarray, grid: Grid2D) -> BackgroundBands:
    """u0 and w0 on `grid` over the samples T = `transform` reads."""
    axis = TimeAxis(ctx.axis.tau, field_samples(transform, ctx.sources.count))
    return BackgroundBands(ctx.sim_grid, ctx.sources, axis, ctx.settings, grid)


def _invert(ctx: PipelineContext, data: TransferData, transform: np.ndarray):
    """TSVD fit of the measured diagonal of `data` at `ctx.tsvd` with the fields
    u0 * T, clamped to q >= 0 under `ctx.positivity` before its residual is taken."""
    bands = _background(ctx, transform, ctx.inv_grid)
    system = assemble_system(bands, transform, data, ctx.background, ctx.inv_grid, ctx.tsvd)
    q_est = solve_tsvd(system)
    if ctx.positivity:
        q_est = Potential(q_est.grid, np.maximum(q_est.values, 0.0))
    return q_est, residual_norm(system, q_est)


def run_lsl_step(ctx: PipelineContext, data: TransferData) -> StageRecord:
    """Internal fields from the ROM of `data`, then the TSVD fit of the measured diagonal.

    A diagonal-only record takes the per-source ROM, a completed record
    the block ROM; both fits cut at `ctx.tsvd`.
    """
    transform = internal_transform(ctx, data)
    potential, residual = _invert(ctx, data, transform)
    return StageRecord(stage_round(ctx, data), data, transform, potential, residual)


def run_lift_step(
    ctx: PipelineContext, potential: Potential, data: TransferData, transform: np.ndarray
) -> TransferData:
    """The full record of an estimate whose internal fields are u0 * T, T the
    ROM transform of `data`, whose measured diagonal the record copies."""
    bands = _background(ctx, transform, ctx.sim_grid)
    return forward_lift(bands, transform, potential, ctx.background, data, ctx.sim_grid)


def stages(
    ctx: PipelineContext, measured: TransferData, iterations: int = 1
) -> Iterator[StageRecord]:
    """The SISO step on `measured`, then `iterations` rounds of lift + MIMO step.

    Yields one record per inversion. Round r's `.data` is the record
    lifted from round r-1's estimate and internal fields. Every step
    evaluates the background it reads and only the record passes on, so the
    rounds make the calls of `lslkit invert` and `lslkit lift` chained by hand.
    """
    record = run_lsl_step(ctx, measured)
    yield record
    for _ in range(iterations):
        lifted = run_lift_step(ctx, record.potential, record.data, record.transform)
        record = run_lsl_step(ctx, lifted)
        yield record


def invert_born(ctx: PipelineContext, data: TransferData) -> tuple[Potential, float]:
    """Reconstruction of the measured diagonal of `data` with background
    fields in place of internal ones: T is K identity blocks, a read-only
    view of one n x n identity."""
    n = ctx.axis.n
    _check_fit(ctx, data, n)
    return _invert(ctx, data, np.broadcast_to(np.eye(n), (ctx.sources.count, n, n)))


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
    coarse = min(q_est.grid, q_true.grid, key=lambda grid: grid.num_nodes)
    est = restrict(q_est.values, q_est.grid, coarse)
    return coarse, est, restrict(q_true.values, q_true.grid, coarse)


def _rel_l2(grid, diff, reference, where=None) -> float:
    """||diff|| / ||reference||, or ||diff|| for a zero reference; as in
    `lippmann.residual_norm`, one that overflows raises, never reported."""
    if where is not None:
        diff = np.where(where, diff, 0.0)
        reference = np.where(where, reference, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        num = inner_product(grid, diff, diff)
        den = inner_product(grid, reference, reference)
    error = float(np.sqrt(num / den)) if den > 0.0 else float(np.sqrt(num))
    if not (np.isfinite(error) and np.isfinite(den)):
        raise DegenerateDataError("the relative L2 error is not finite: values overflow its norm")
    return error


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

