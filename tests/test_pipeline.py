import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lslkit as lk
from lslkit.core import Grid2D, Potential, SourceSet, TimeAxis, TransferData, refinement_ratio
from lslkit.errors import IterationBudgetError
from lslkit.lippmann import assemble_system, residual_norm, solve_tsvd
from lslkit.pipeline import (
    ErrorReport,
    PipelineContext,
    Region,
    internal_transform,
    invert_born,
    metrics,
    run_lift_step,
    run_lsl_step,
    stages,
)
from lslkit.rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    halved_length,
    regularize_spd,
)
from lslkit.wavesim import SolverSettings, simulate_background, simulate_transfer
from conftest import source_record
from reference import apply_transform, convolution_rows, diagonal_record, zero_potential


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
    background = simulate_background(grid, sources, axis, settings)
    ctx = PipelineContext(grid, inv_grid, sources, axis, data, background, 1e-2, 1e-2, 1e-2, False)
    return ctx, potential


class TestSchedule:
    def test_halved_length(self):
        assert halved_length(80) == 40
        assert halved_length(16) == 8
        assert halved_length(5) == 3
        assert halved_length(3) == 2

    def test_history_matches_recurrence(self):
        ctx, _ = tiny_context(n=16)
        lengths = [rec.active_length for rec in stages(ctx, iterations=2)]
        expected = [16]
        while len(expected) < 3:
            expected.append(halved_length(expected[-1]))
        assert lengths == expected

    def test_stages_yield_every_step(self):
        ctx, _ = tiny_context(n=16)
        records = list(stages(ctx, iterations=2))
        assert [(rec.round, rec.name) for rec in records] == [
            (0, "siso"), (1, "mimo-1"), (2, "mimo-2")
        ]
        assert records[0].data is ctx.measured
        assert all(rec.data.is_full for rec in records[1:])

    def test_budget_exhaustion(self):
        ctx, _ = tiny_context(n=4)
        # n=4 -> 2 -> halved 2... next round leaves a single usable sample
        with pytest.raises(IterationBudgetError):
            list(stages(ctx, iterations=3))
        with pytest.raises(IterationBudgetError):
            list(stages(ctx, iterations=-1))


class TestInternalFields:
    @staticmethod
    def assert_restricted(ctx, transform, reference):
        """The system assembled from the injected background and T, as
        `run_lsl_step` assembles it, against the rows of the fine
        reference fields injected onto the inversion grid."""
        ratio = refinement_ratio(ctx.sim_grid, ctx.inv_grid)
        w0 = ctx.background.antiderivatives[:, :, ::ratio, ::ratio]
        u0 = ctx.background.fields[:, :, ::ratio, ::ratio]
        system = assemble_system(
            w0, u0, transform, ctx.measured, ctx.background.data, ctx.inv_grid, 1e-2
        )
        steps = len(reference[0])
        rows = np.vstack([
            convolution_rows(
                w0[j, :steps].reshape(steps, -1),
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
        ctx, _ = tiny_context()
        K, length = ctx.sources.count, ctx.axis.total_samples
        factor = lambda mass: cholesky_upper(regularize_spd(mass).matrix)
        reference = []
        for j in range(K):
            basis, basis0 = (
                factor(block_mass_from_data(source_record(d, j), length))
                for d in (ctx.measured, ctx.background.data)
            )
            transform = field_transform(basis, basis0, 1)
            reference.append(apply_transform(transform, ctx.background.fields[j : j + 1])[0])
        self.assert_restricted(ctx, internal_transform(ctx, ctx.measured), reference)

        siso = run_lsl_step(ctx, ctx.measured)
        lifted = run_lift_step(ctx, siso.potential, siso.transform)
        record = lifted.num_samples
        bg = ctx.background.data
        basis = factor(block_mass_from_data(lifted, record))
        basis0 = factor(
            block_mass_from_data(TransferData(bg.values[:, :, :record], bg.mask, bg.tau))
        )
        reference = apply_transform(field_transform(basis, basis0, K), ctx.background.fields)
        steps = self.assert_restricted(ctx, internal_transform(ctx, lifted), reference)
        assert steps == halved_length(record)

    def test_diagonal_record_transform_is_block_diagonal(self):
        # one n x n block per source, block j the field transform of
        # source j's own factors over 2n-1 samples; blocks between two
        # sources are not stored
        ctx, _ = tiny_context()
        K, n, length = ctx.sources.count, ctx.axis.n, ctx.axis.total_samples
        factor = lambda mass: cholesky_upper(regularize_spd(mass).matrix)
        blocks = internal_transform(ctx, ctx.measured)
        assert blocks.shape == (K, n, n)
        for j in range(K):
            basis, basis0 = (
                factor(block_mass_from_data(source_record(d, j), length))
                for d in (ctx.measured, ctx.background.data)
            )
            assert np.array_equal(blocks[j], field_transform(basis, basis0, 1))


class TestZeroPotential:
    def test_everything_stays_zero(self):
        ctx, _ = tiny_context(q_amp=0.0)
        first, final = stages(ctx, iterations=1)
        assert np.abs(np.asarray(first.potential.values)).max() <= 1e-8
        assert np.abs(np.asarray(final.potential.values)).max() <= 1e-8

    def test_lift_reproduces_background(self):
        # the reconstructed estimate is zero only to roundoff, so the lifted
        # record matches the background one to roundoff as well
        ctx, _ = tiny_context(q_amp=0.0)
        siso = run_lsl_step(ctx, ctx.measured)
        lifted = run_lift_step(ctx, siso.potential, siso.transform)
        n = lifted.num_samples
        reference = ctx.background.data.values[:, :, :n]
        scale = np.abs(reference).max()
        assert np.abs(lifted.values - reference).max() <= 1e-12 * scale


class TestStages:
    def test_iterations_zero_is_siso_step(self):
        ctx, _ = tiny_context()
        alone = run_lsl_step(ctx, ctx.measured)
        ran = list(stages(ctx, iterations=0))
        assert len(ran) == 1
        assert np.array_equal(alone.potential.values, ran[0].potential.values)

    def test_deterministic(self):
        ctx, _ = tiny_context()
        *_, a = stages(ctx, iterations=1)
        *_, b = stages(ctx, iterations=1)
        assert np.array_equal(a.potential.values, b.potential.values)

    def test_lift_fills_every_pair(self):
        ctx, _ = tiny_context()
        siso = run_lsl_step(ctx, ctx.measured)
        lifted = run_lift_step(ctx, siso.potential, siso.transform)
        assert lifted.is_full
        assert lifted.num_samples == ctx.axis.n

    def test_final_inversion_uses_measured_data_only(self):
        # rebuilding the last stage from its transform and the measured record
        # reproduces the reconstruction: lifted values never enter the fit
        ctx, _ = tiny_context()
        *_, final = stages(ctx, iterations=1)
        system = assemble_system(
            ctx.background.antiderivatives[:, :, ::2, ::2],
            ctx.background.fields[:, :, ::2, ::2],
            final.transform,
            ctx.measured,
            ctx.background.data,
            ctx.inv_grid,
            ctx.tsvd_mimo,
        )
        again = solve_tsvd(system)
        assert np.array_equal(again.values, final.potential.values)

    def test_each_step_fits_at_its_own_threshold(self):
        # distinct levels: the SISO step cuts at tsvd_siso, every MIMO step
        # at tsvd_mimo, each on the fields of its own record's transform
        ctx, _ = tiny_context()
        ctx = replace(ctx, tsvd_siso=0.05, tsvd_mimo=1e-3)
        records = list(stages(ctx, iterations=2))
        for record in records:
            threshold = ctx.tsvd_mimo if record.round else ctx.tsvd_siso
            system = assemble_system(
                ctx.background.antiderivatives[:, :, ::2, ::2],
                ctx.background.fields[:, :, ::2, ::2],
                record.transform,
                ctx.measured,
                ctx.background.data,
                ctx.inv_grid,
                threshold,
            )
            assert np.array_equal(solve_tsvd(system).values, record.potential.values)

    def test_positivity_clamps_each_estimate_before_its_residual(self):
        # the clamped estimate is the one a stage reports, fits and lifts from
        ctx, _ = tiny_context()
        plain = list(stages(ctx, iterations=1))
        clamped = list(stages(replace(ctx, positivity=True), iterations=1))
        siso = clamped[0]
        assert plain[0].potential.values.min() < 0.0
        assert np.array_equal(siso.potential.values, np.maximum(plain[0].potential.values, 0.0))
        system = assemble_system(
            ctx.background.antiderivatives[:, :, ::2, ::2],
            ctx.background.fields[:, :, ::2, ::2],
            siso.transform,
            ctx.measured,
            ctx.background.data,
            ctx.inv_grid,
            ctx.tsvd_siso,
        )
        assert siso.residual == residual_norm(system, siso.potential)
        lifted = run_lift_step(ctx, siso.potential, siso.transform)
        assert np.array_equal(clamped[1].data.values, lifted.values)
        assert clamped[1].potential.values.min() >= 0.0

    @pytest.mark.parametrize("step", ["siso", "born"])
    def test_lsl_step_holds_no_field_stack(self, two_target_run, step):
        # S is one (K, n) stack on the inversion grid. The SISO and the
        # Born step each hold the system (K (n-1) rows, about S); at the
        # peak they also hold the TSVD's K (n-1) square Gram matrix and
        # its eigenvectors (together about S at n = 80). Assembly holds
        # only one source's mixed field and anti-diagonal scratch (n
        # rows each); T is K n x n blocks. A copy of the whole injected
        # u0, a dense (K n)^2 T, a mixed (K, n) field stack or a stacked
        # copy of the system would each add up to about S more
        ctx = two_target_run.ctx
        stack = ctx.sources.count * ctx.axis.n * ctx.inv_grid.num_nodes * 8
        tracemalloc.start()
        try:
            if step == "siso":
                run_lsl_step(ctx, ctx.measured)
            else:
                invert_born(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * stack, f"traced peak {peak / stack:.2f} S"

    def test_mimo_with_true_data_beats_siso(self, two_target_run):
        # controlled comparison: completed step fed the exact record
        ctx = two_target_run.ctx
        truth = two_target_run.true_mimo
        first_n = lk.TransferData(truth.values[:, :, : ctx.axis.n], truth.mask, ctx.axis.tau)
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

    def test_report_type(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        report = metrics(zero_potential(grid), zero_potential(grid))
        assert isinstance(report, ErrorReport)


def test_born_residual_smaller_than_one(two_target_run):
    assert 0.0 < two_target_run.born_residual < 10.0

