import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lslkit.pipeline
from lslkit.core import (Grid2D, MaskState, Potential, SourceSet, TimeAxis, TransferData,
                         refinement_ratio)
from lslkit.errors import DegenerateDataError, DimensionError, IterationBudgetError
from lslkit.lippmann import assemble_system, field_samples, residual_norm, solve_tsvd
from lslkit.pipeline import (
    ErrorReport,
    PipelineContext,
    Region,
    internal_transform,
    invert_born,
    metrics,
    run_lift_step,
    run_lsl_step,
    stage_round,
    stages,
)
from lslkit.rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    halved_length,
    regularize_spd,
)
from lslkit.wavesim import SolverSettings, background_stacks, simulate_background, simulate_transfer
from conftest import source_values
from reference import (apply_transform, background, convolution_rows, diagonal_record,
                       zero_potential)


def tiny_context(q_amp=0.05, n=16, K=3, nx=40, ny=20):
    grid = Grid2D(nx, ny, 1.0, 1.0)
    inv_grid = grid.coarsen(2)
    x, y = grid.meshgrid()
    values = np.where((np.abs(x - nx / 2) <= 6) & (np.abs(y - ny / 2) <= 2), q_amp, 0.0)
    potential = Potential(grid, values)
    sources = SourceSet(
        np.column_stack([np.linspace(8, nx - 8, K), np.full(K, ny - 4.0)]), 2.0
    )
    axis = TimeAxis(2.0, n)
    settings = SolverSettings(substeps=4)
    data = diagonal_record(simulate_transfer(potential, sources, axis, settings))
    f0 = simulate_background(grid, sources, axis, settings)
    ctx = PipelineContext(grid, inv_grid, sources, axis, settings, f0, 1e-2, False)
    return ctx, data


def inversion_stacks(ctx, transform):
    """u0 and w0 as an inversion with T = `transform` evaluates them: on the
    inversion grid, over the samples T reads."""
    axis = TimeAxis(ctx.axis.tau, field_samples(transform, ctx.sources.count))
    return background_stacks(ctx.sim_grid, ctx.sources, axis, ctx.settings, ctx.inv_grid)


class TestSchedule:
    def test_halved_length(self):
        assert halved_length(80) == 40
        assert halved_length(16) == 8
        assert halved_length(5) == 3
        assert halved_length(3) == 2

    def test_history_matches_recurrence(self):
        ctx, measured = tiny_context(n=16)
        lengths = [rec.active_length for rec in stages(ctx, measured, iterations=2)]
        expected = [16]
        while len(expected) < 3:
            expected.append(halved_length(expected[-1]))
        assert lengths == expected

    def test_stages_yield_every_step(self):
        ctx, measured = tiny_context(n=16)
        records = list(stages(ctx, measured, iterations=2))
        assert [(rec.round, rec.name) for rec in records] == [
            (0, "siso"), (1, "mimo-1"), (2, "mimo-2")
        ]
        assert records[0].data is measured
        assert all(rec.data.is_full for rec in records[1:])

    def test_stage_round_follows_the_record_length(self):
        ctx, measured = tiny_context(n=16)
        records = list(stages(ctx, measured, iterations=2))
        assert [stage_round(ctx, rec.data) for rec in records] == [0, 1, 2]
        # lift lengths 16, 8, 4, 2, 1: a full record belongs to the first
        # round whose lift length it holds; an empty one ends the search too
        K = ctx.sources.count
        full = np.full((K, K), MaskState.LIFTED, np.int8)
        rounds = {31: 1, 16: 1, 15: 2, 8: 2, 5: 3, 2: 4, 1: 5, 0: 5}
        for length, expected in rounds.items():
            record = TransferData(np.zeros((K, K, length)), full, ctx.axis.tau)
            assert stage_round(ctx, record) == expected, length

    def test_budget_exhaustion(self):
        ctx, measured = tiny_context(n=4)
        # n=4 -> 2 -> halved 2... next round leaves a single usable sample
        with pytest.raises(IterationBudgetError):
            list(stages(ctx, measured, iterations=3))


class TestInternalFields:
    @staticmethod
    def assert_restricted(ctx, measured, transform, reference):
        """The system assembled from the injected background over the
        samples T reads, as `run_lsl_step` assembles it, against the rows
        of the fine reference fields injected onto the inversion grid."""
        ratio = refinement_ratio(ctx.sim_grid, ctx.inv_grid)
        steps = len(reference[0])
        bg = background(ctx.sim_grid, ctx.sources, ctx.axis, ctx.settings)
        w0 = bg.antiderivatives[:, :steps, ::ratio, ::ratio]
        u0 = np.ascontiguousarray(bg.fields[:, :steps, ::ratio, ::ratio])
        system = assemble_system(
            w0, u0, transform, measured, ctx.background, ctx.inv_grid, 1e-2
        )
        rows = np.vstack([
            convolution_rows(
                w0[j].reshape(steps, -1),
                ref[:, ::ratio, ::ratio].reshape(steps, -1),
                ctx.inv_grid.node_weights.ravel(),
                ctx.axis.tau,
                steps,
            )[1:]
            for j, ref in enumerate(reference)
        ])
        assert len(reference) == ctx.sources.count
        assert np.abs(system.matrix - rows).max() <= 1e-13 * np.abs(rows).max()
        return steps

    def test_assembly_mixes_restricted_reference(self):
        # u0 * T mixed on the inversion grid equals u0 * T materialized
        # on the fine grid and injected onto that grid
        ctx, measured = tiny_context()
        bg = background(ctx.sim_grid, ctx.sources, ctx.axis, ctx.settings)
        K, length = ctx.sources.count, ctx.axis.total_samples
        factor = lambda mass: cholesky_upper(regularize_spd(mass).matrix)
        reference = []
        for j in range(K):
            basis, basis0 = (
                factor(block_mass_from_data(source_values(d, j), length))
                for d in (measured, ctx.background)
            )
            transform = field_transform(basis, basis0, 1)
            reference.append(apply_transform(transform, bg.fields[j : j + 1])[0])
        self.assert_restricted(ctx, measured, internal_transform(ctx, measured), reference)

        siso = run_lsl_step(ctx, measured)
        lifted = run_lift_step(ctx, siso.potential, measured, siso.transform)
        record = lifted.num_samples
        basis = factor(block_mass_from_data(lifted.values, record))
        basis0 = factor(block_mass_from_data(ctx.background.values, record))
        reference = apply_transform(field_transform(basis, basis0, K), bg.fields)
        steps = self.assert_restricted(ctx, measured, internal_transform(ctx, lifted), reference)
        assert steps == halved_length(record)

    def test_diagonal_record_transform_is_block_diagonal(self):
        # one n x n block per source, block j the field transform of
        # source j's own factors over 2n-1 samples; blocks between two
        # sources are not stored
        ctx, measured = tiny_context()
        K, n, length = ctx.sources.count, ctx.axis.n, ctx.axis.total_samples
        factor = lambda mass: cholesky_upper(regularize_spd(mass).matrix)
        blocks = internal_transform(ctx, measured)
        assert blocks.shape == (K, n, n)
        for j in range(K):
            basis, basis0 = (
                factor(block_mass_from_data(source_values(d, j), length))
                for d in (measured, ctx.background)
            )
            assert np.array_equal(blocks[j], field_transform(basis, basis0, 1))

    def test_transform_is_zero_below_its_time_diagonal(self):
        # field sample b mixes background samples a' <= b only: T of the
        # per-source ROM and of the block ROM is exactly zero where a' > b
        ctx, measured = tiny_context()
        siso, mimo = stages(ctx, measured, iterations=1)
        K, n, steps = ctx.sources.count, siso.active_length, mimo.active_length
        below = lambda size: np.tril(np.ones((size, size), dtype=bool), -1)  # a' > b
        assert siso.transform.shape == (K, n, n)
        assert (siso.transform[:, below(n)] == 0.0).all()
        assert mimo.transform.shape == (1, K * steps, K * steps)
        blocks = mimo.transform[0].reshape(K, steps, K, steps).transpose(0, 2, 1, 3)
        assert (blocks[:, :, below(steps)] == 0.0).all()  # [l, i, a', b]


class TestGate:
    @pytest.mark.parametrize("step", [run_lsl_step, invert_born], ids=["lsl", "born"])
    def test_nan_sample_interval_refused_before_any_stack(self, monkeypatch, step):
        # NaN compares false both ways, so the gate must not pass it: a NaN
        # tau forced past the record's own check is refused, naming the
        # config key, before a stack is evaluated
        ctx, measured = tiny_context()
        record = TransferData(measured.values, measured.mask, measured.tau)
        object.__setattr__(record, "tau", np.nan)

        def forbidden(*args):
            raise AssertionError("a background stack was evaluated")

        monkeypatch.setattr(lslkit.pipeline, "background_stacks", forbidden)
        with pytest.raises(DimensionError) as refused:
            step(ctx, record)
        assert str(refused.value) == "record sample interval nan differs from time.tau 2.0"


class TestZeroPotential:
    def test_everything_stays_zero(self):
        ctx, measured = tiny_context(q_amp=0.0)
        first, final = stages(ctx, measured, iterations=1)
        assert np.abs(np.asarray(first.potential.values)).max() <= 1e-8
        assert np.abs(np.asarray(final.potential.values)).max() <= 1e-8

    def test_lift_reproduces_background(self):
        # the reconstructed estimate is zero only to roundoff, so the lifted
        # record matches the background one to roundoff as well
        ctx, measured = tiny_context(q_amp=0.0)
        siso = run_lsl_step(ctx, measured)
        lifted = run_lift_step(ctx, siso.potential, measured, siso.transform)
        n = lifted.num_samples
        reference = ctx.background.values[:, :, :n]
        scale = np.abs(reference).max()
        assert np.abs(lifted.values - reference).max() <= 1e-12 * scale


class TestStages:
    def test_iterations_zero_is_siso_step(self):
        ctx, measured = tiny_context()
        alone = run_lsl_step(ctx, measured)
        ran = list(stages(ctx, measured, iterations=0))
        assert len(ran) == 1
        assert np.array_equal(alone.potential.values, ran[0].potential.values)

    def test_deterministic(self):
        ctx, measured = tiny_context()
        *_, a = stages(ctx, measured, iterations=1)
        *_, b = stages(ctx, measured, iterations=1)
        assert np.array_equal(a.potential.values, b.potential.values)

    def test_lift_fills_every_pair(self):
        ctx, measured = tiny_context()
        siso = run_lsl_step(ctx, measured)
        lifted = run_lift_step(ctx, siso.potential, measured, siso.transform)
        assert lifted.is_full
        assert lifted.num_samples == ctx.axis.n

    def test_final_inversion_uses_measured_data_only(self):
        # rebuilding the last stage from its transform and the measured record
        # reproduces the reconstruction: lifted values never enter the fit
        ctx, measured = tiny_context()
        *_, final = stages(ctx, measured, iterations=1)
        u0, w0 = inversion_stacks(ctx, final.transform)
        system = assemble_system(
            w0,
            u0,
            final.transform,
            measured,
            ctx.background,
            ctx.inv_grid,
            ctx.tsvd,
        )
        again = solve_tsvd(system)
        assert np.array_equal(again.values, final.potential.values)

    def test_every_stage_fits_at_the_one_level(self):
        # the Born, the SISO and every MIMO fit cut at ctx.tsvd, each on the
        # fields of its own transform (Born: K identity blocks); 0.05 is not
        # tiny_context's level, so a stage cutting elsewhere shows
        ctx, measured = tiny_context()
        ctx = replace(ctx, tsvd=0.05)
        n, K = ctx.axis.n, ctx.sources.count
        born, _ = invert_born(ctx, measured)
        fits = [(np.broadcast_to(np.eye(n), (K, n, n)), born)]
        fits += [(r.transform, r.potential) for r in stages(ctx, measured, iterations=2)]
        assert len(fits) == 4
        for transform, potential in fits:
            u0, w0 = inversion_stacks(ctx, transform)
            system = assemble_system(
                w0,
                u0,
                transform,
                measured,
                ctx.background,
                ctx.inv_grid,
                ctx.tsvd,
            )
            assert np.array_equal(solve_tsvd(system).values, potential.values)
            # the default level would give another estimate: the level is read
            system = replace(system, tsvd_threshold=1e-2)
            assert not np.array_equal(solve_tsvd(system).values, potential.values)

    def test_every_step_hands_exactly_the_samples_t_reads(self, monkeypatch):
        # `pipeline` evaluates each background over the N = field_samples(T, K)
        # samples its T reads and hands it over as it is: every u0 stack, w0
        # history and lift band holds exactly N samples, and u0 is C-contiguous,
        # so assembly and the lift read it without a cut or a copy
        ctx, measured = tiny_context(n=16)
        K = ctx.sources.count
        assemble, lift = lslkit.pipeline.assemble_system, lslkit.pipeline.forward_lift
        handed = []  # (step, N, the samples of every array it was handed)

        def recorded(items, sizes, samples):
            """`items` handed on one by one, with their length, appending the
            samples of each item the consumer reads to `sizes`."""
            class Recorded:
                def __len__(self):
                    return len(items)

                def __iter__(self):
                    for item in items:
                        sizes.extend(samples(item))
                        yield item
            return Recorded()

        def assembling(w0, u0, transform, *args):
            assert u0.flags.c_contiguous
            sizes = [u0.shape[1]]
            system = assemble(recorded(w0, sizes, lambda h: [len(h)]), u0, transform, *args)
            handed.append(("assemble", field_samples(transform, K), sizes))
            return system

        def lifting(fields, transform, *args):
            sizes = []
            bands = recorded(fields, sizes, lambda band: [band[1].shape[-1], band[2].shape[-1]])
            record = lift(bands, transform, *args)
            handed.append(("lift", field_samples(transform, K), sizes))
            return record

        monkeypatch.setattr(lslkit.pipeline, "assemble_system", assembling)
        monkeypatch.setattr(lslkit.pipeline, "forward_lift", lifting)
        invert_born(ctx, measured)
        list(stages(ctx, measured, iterations=2))
        # born, siso, lift, mimo-1, lift, mimo-2: N halves after each lift
        assert [(step, num) for step, num, _ in handed] == [
            ("assemble", 16), ("assemble", 16), ("lift", 16),
            ("assemble", 8), ("lift", 8), ("assemble", 4),
        ]
        for step, num, sizes in handed:  # u0 and each history, or u0 and w0 of each band
            assert len(sizes) >= 2 and sizes == [num] * len(sizes), step

    def test_positivity_clamps_each_estimate_before_its_residual(self):
        # the clamped estimate is the one a stage reports, fits and lifts from
        ctx, measured = tiny_context()
        plain = list(stages(ctx, measured, iterations=1))
        clamped = list(stages(replace(ctx, positivity=True), measured, iterations=1))
        siso = clamped[0]
        assert plain[0].potential.values.min() < 0.0
        assert np.array_equal(siso.potential.values, np.maximum(plain[0].potential.values, 0.0))
        u0, w0 = inversion_stacks(ctx, siso.transform)
        system = assemble_system(
            w0,
            u0,
            siso.transform,
            measured,
            ctx.background,
            ctx.inv_grid,
            ctx.tsvd,
        )
        assert siso.residual == residual_norm(system, siso.potential)
        lifted = run_lift_step(ctx, siso.potential, measured, siso.transform)
        assert np.array_equal(clamped[1].data.values, lifted.values)
        assert clamped[1].potential.values.min() >= 0.0

    @pytest.mark.parametrize("step", ["siso", "born"])
    def test_lsl_step_holds_no_field_stack(self, two_target_run, monkeypatch, step):
        # S is one (K, n) stack on the inversion grid. The SISO and the
        # Born step each hold the system (K (n-1) rows, about S); at the
        # peak they also hold the TSVD's K (n-1) square Gram matrix and
        # its eigenvectors (together about S at n = 80). Assembly holds
        # only one source's mixed field and anti-diagonal scratch (n
        # rows each); T is K n x n blocks. A copy of the whole injected
        # u0, a dense (K n)^2 T, a mixed (K, n) field stack or a stacked
        # copy of the system would each add up to about S more. The step's
        # u0 (S) is evaluated before tracing starts; its w0 histories are
        # evaluated during assembly, one source at a time, below the TSVD's
        # peak, so only the step's own arrays and one history are traced
        ctx, measured = two_target_run.ctx, two_target_run.measured
        stack = ctx.sources.count * ctx.axis.n * ctx.inv_grid.num_nodes * 8
        stacks = background_stacks(ctx.sim_grid, ctx.sources, ctx.axis, ctx.settings, ctx.inv_grid)
        monkeypatch.setattr(lslkit.pipeline, "background_stacks", lambda *args: stacks)
        tracemalloc.start()
        try:
            if step == "siso":
                run_lsl_step(ctx, measured)
            else:
                invert_born(ctx, measured)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * stack, f"traced peak {peak / stack:.2f} S"

    def test_mimo_with_true_data_beats_siso(self, two_target_run):
        # controlled comparison: completed step fed the exact record
        ctx = two_target_run.ctx
        truth = two_target_run.true_mimo
        first_n = TransferData(truth.values[:, :, : ctx.axis.n], truth.mask, ctx.axis.tau)
        record = run_lsl_step(ctx, first_n)
        assert record.name == "mimo-1"
        err_true = metrics(record.potential, two_target_run.q_ref).global_rel_l2
        assert err_true <= two_target_run.errors["siso"]


class TestMetrics:
    def test_trivial_values(self):
        grid = Grid2D(10, 10, 1.0, 1.0)
        rng = np.random.default_rng(0)
        truth = Potential(grid, rng.random(grid.shape))
        same = metrics(truth, truth)
        assert same.global_rel_l2 == 0.0
        zero = metrics(zero_potential(grid), truth)
        assert zero.global_rel_l2 == pytest.approx(1.0)

    def test_homogeneity(self):
        grid = Grid2D(10, 10, 1.0, 1.0)
        rng = np.random.default_rng(1)
        est = Potential(grid, rng.standard_normal(grid.shape))
        double = Potential(grid, 2.0 * np.asarray(est.values))
        zero = zero_potential(grid)
        assert metrics(double, zero).global_rel_l2 == pytest.approx(
            2.0 * metrics(est, zero).global_rel_l2
        )

    def test_cross_grid_alignment(self):
        fine = Grid2D(8, 8, 0.5, 0.5)
        coarse = fine.coarsen(2)
        x, y = fine.meshgrid()
        truth = Potential(fine, x + y)
        xc, yc = coarse.meshgrid()
        est = Potential(coarse, xc + yc)
        assert metrics(est, truth).global_rel_l2 <= 1e-14

    def test_regions_and_peaks(self):
        grid = Grid2D(20, 20, 1.0, 1.0)
        truth_vals = np.zeros(grid.shape)
        truth_vals[5, 5] = 1.0
        est_vals = np.zeros(grid.shape)
        est_vals[5, 7] = 1.0
        region = Region("spot", 2.0, 12.0, 2.0, 12.0)
        report = metrics(Potential(grid, est_vals), Potential(grid, truth_vals), (region,))
        assert report.peak_offsets["spot"] == pytest.approx(2.0)
        assert report.region_rel_l2["spot"] == pytest.approx(np.sqrt(2.0))

    def test_overflowing_norm_raises(self):
        # finite values whose squares overflow: no inf or 0 is reported
        grid = Grid2D(4, 4, 1.0, 1.0)
        huge, ones = np.zeros(grid.shape), np.ones(grid.shape)
        huge[2, 2] = 1e200
        for est, truth in ((huge, ones), (ones, huge)):
            with pytest.raises(DegenerateDataError, match="relative L2 error is not finite"):
                metrics(Potential(grid, est), Potential(grid, truth))

    def test_report_type(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        report = metrics(zero_potential(grid), zero_potential(grid))
        assert isinstance(report, ErrorReport)


def test_born_residual_smaller_than_one(two_target_run):
    assert 0.0 < two_target_run.born_residual < 10.0

