import numpy as np
import pytest
import scipy.linalg

from lslkit.core import Grid2D, MaskState, Potential, SourceSet, TimeAxis, TransferData
from lslkit.errors import DegenerateDataError, DimensionError, FactorizationError, PreconditionError
from lslkit.rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    regularize_spd,
)
from lslkit.wavesim import SolverSettings, simulate_transfer
from conftest import source_record
from reference import apply_transform, leapfrog_snapshots, snapshot_gram, zero_potential


def series_record(series):
    return TransferData(np.reshape(series, (1, 1, -1)), np.ones((1, 1), dtype=np.int8), 1.0)


def wave_setup(nx=40, ny=20, K=3, n=10, tau=2.0, q_amp=0.25):
    grid = Grid2D(nx, ny, 1.0, 1.0)
    x, y = grid.meshgrid()
    values = q_amp * np.exp(-((x - nx / 2) ** 2 + (y - ny / 3) ** 2) / 12.0)
    potential = Potential(grid, values)
    xs = np.linspace(8.0, nx - 8.0, K)
    sources = SourceSet(np.column_stack([xs, np.full(K, ny - 4.0)]), 2.0)
    axis = TimeAxis(tau, n)
    settings = SolverSettings(substeps=4)
    return grid, potential, sources, axis, settings


class TestSisoMass:
    def test_first_entries_match_series(self):
        series = np.arange(1.0, 12.0)
        mass = block_mass_from_data(series_record(series), 7)
        assert mass.shape == (4, 4)
        assert mass[0, 0] == series[0]
        assert mass[0, 1] == series[1]
        assert mass[2, 3] == 0.5 * (series[1] + series[5])
        assert np.array_equal(mass, mass.T)

    def test_too_few_samples(self):
        with pytest.raises(DimensionError):
            block_mass_from_data(series_record(np.ones(6)), 7)

    def test_matches_snapshot_gram(self):
        grid, potential, sources, axis, settings = wave_setup()
        data = simulate_transfer(potential, sources, axis, settings)
        for j in range(sources.count):
            mass = block_mass_from_data(source_record(data, j), axis.total_samples)
            snaps = leapfrog_snapshots(potential, sources, j, axis, settings, axis.n)
            gram = snapshot_gram(snaps[None], grid)
            dev = np.abs(mass - gram).max()
            assert dev <= 1e-9 * np.abs(mass).max()


class TestBlockMass:
    def test_first_block_is_symmetrized_matrix(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((3, 3, 8))
        mask = np.full((3, 3), MaskState.MEASURED, dtype=np.int8)
        data = TransferData(values, mask, 1.0)
        mass = block_mass_from_data(data, 5)
        sym0 = 0.5 * (values[:, :, 0] + values[:, :, 0].T)
        assert mass[:3, :3] == pytest.approx(sym0)
        assert mass.shape == (9, 9)
        assert np.array_equal(mass, mass.T)

    def test_single_source_reduces_to_scalar_formula(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal(15)
        block = block_mass_from_data(series_record(series), 15)
        k = np.arange(8)
        scalar = 0.5 * (series[np.abs(k[:, None] - k[None, :])] + series[k[:, None] + k[None, :]])
        assert np.array_equal(block, scalar)

    def test_matches_double_loop_reference(self):
        # the index-array blocks against the block-by-block angle-sum rule
        rng = np.random.default_rng(7)
        K, n = 3, 9
        values = rng.standard_normal((K, K, 11))
        data = TransferData(values, np.full((K, K), MaskState.LIFTED, dtype=np.int8), 1.0)
        mass = block_mass_from_data(data, n)
        nb = (n - 1) // 2 + 1
        sym = 0.5 * (values[:, :, :n] + values[:, :, :n].transpose(1, 0, 2))
        reference = np.empty((nb * K, nb * K))
        for k in range(nb):
            for l in range(nb):
                reference[k * K : (k + 1) * K, l * K : (l + 1) * K] = 0.5 * (
                    sym[:, :, abs(k - l)] + sym[:, :, k + l]
                )
        assert np.array_equal(mass, reference)

    def test_absent_entries_rejected(self):
        values = np.zeros((2, 2, 5))
        mask = np.diag([1, 1]).astype(np.int8)
        with pytest.raises(PreconditionError):
            block_mass_from_data(TransferData(values, mask, 1.0), 5)

    def test_matches_mimo_gram(self):
        grid, potential, sources, axis, settings = wave_setup(K=3, n=9)
        data = simulate_transfer(potential, sources, axis, settings)
        mass = block_mass_from_data(data, axis.n)
        steps = mass.shape[0] // sources.count
        snaps = np.stack([
            leapfrog_snapshots(potential, sources, j, axis, settings, steps)
            for j in range(sources.count)
        ])
        gram = snapshot_gram(snaps, grid)
        dev = np.abs(mass - gram).max()
        assert dev <= 1e-9 * np.abs(mass).max()


class TestRegularize:
    def test_direct_formula_example(self):
        out = regularize_spd(np.diag([3.0, -1.0]))
        lam = np.sort(np.linalg.eigvalsh(out.matrix))
        assert lam[1] == pytest.approx(3.0)
        assert lam[0] == pytest.approx(3.0e-6, rel=1e-12)
        # read by attribute: perfbench/tracer.py counts clips from `.regularization.applied`
        assert out.regularization.applied
        assert out.regularization.eps0 == pytest.approx(3.0e-6, rel=1e-12)

    def test_spd_input_untouched(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        spd = a @ a.T + 8.0 * np.eye(8)
        matrix, record = regularize_spd(spd)
        assert np.abs(matrix - 0.5 * (spd + spd.T)).max() <= 1e-15 * np.abs(spd).max()
        assert not record.applied

    def test_random_indefinite_against_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((20, 20))
            sym = 0.5 * (a + a.T)
            matrix, _ = regularize_spd(sym)
            lam_in = np.linalg.eigvalsh(sym)
            positive = lam_in[lam_in > 0]
            eps0 = np.sqrt(1e-12 * positive.max() * positive.min())
            expected = np.sort(np.maximum(lam_in, eps0))
            got = np.sort(np.linalg.eigvalsh(matrix))
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((15, 15))
        once, _ = regularize_spd(0.5 * (a + a.T))
        twice, _ = regularize_spd(once)
        assert np.abs(twice - once).max() <= 1e-12 * np.abs(once).max()

    def test_eps0_scales_past_overflow(self):
        # eps0 is homogeneous of degree one; at 1e200 the product
        # lambda_max * lambda_min would overflow although eps0 does not
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 12))
        sym = 0.5 * (a + a.T)
        _, record = regularize_spd(sym)
        matrix, scaled = regularize_spd(1e200 * sym)
        assert np.isfinite(scaled.eps0) and np.isfinite(matrix).all()
        assert scaled.eps0 == pytest.approx(1e200 * record.eps0, rel=1e-14)

    def test_no_positive_eigenvalue(self):
        with pytest.raises(DegenerateDataError):
            regularize_spd(-np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        matrix = np.eye(4)
        matrix[1, 2] = matrix[2, 1] = bad
        with pytest.raises(DegenerateDataError, match="non-finite"):
            regularize_spd(matrix)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_upper(np.eye(5)), np.eye(5))

    def test_hand_example(self):
        upper = cholesky_upper(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert upper == pytest.approx(np.array([[2.0, 1.0], [0.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        spd = a @ a.T + 30.0 * np.eye(30)
        upper = cholesky_upper(spd)
        err = np.linalg.norm(upper.T @ upper - spd)
        assert err <= 1e-12 * np.linalg.norm(spd)

    def test_matches_scipy_upper_factor(self):
        a = np.random.default_rng(7).standard_normal((12, 12))
        spd = a @ a.T + 0.5 * np.eye(12)
        upper = cholesky_upper(spd)
        expected = scipy.linalg.cholesky(spd, lower=False)
        assert np.abs(upper - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_failure_advises_regularization(self):
        with pytest.raises(FactorizationError, match="regularize"):
            cholesky_upper(np.diag([1.0, -1.0]))

    def test_block_diagonal_decouples(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        block_a = a @ a.T + 2.0 * np.eye(2)
        block_b = b @ b.T + 2.0 * np.eye(2)
        full = scipy.linalg.block_diag(block_a, block_b)
        upper = cholesky_upper(full)
        assert upper[:2, 2:] == pytest.approx(0.0)
        assert upper[:2, :2] == pytest.approx(scipy.linalg.cholesky(block_a))
        assert upper[2:, 2:] == pytest.approx(scipy.linalg.cholesky(block_b))


class TestSynthesize:
    def test_identity_transform(self):
        grid, potential, sources, axis, settings = wave_setup(q_amp=0.0)
        bg = leapfrog_snapshots(potential, sources, 0, axis, settings, 6)
        data = simulate_transfer(potential, sources, axis, settings)
        basis = cholesky_upper(block_mass_from_data(source_record(data, 0), 11))
        out = apply_transform(field_transform(basis, basis, 1), bg[None])[0]
        scale = np.abs(bg).max()
        assert np.abs(out - bg).max() <= 1e-13 * scale

    def test_first_snapshot_preserved(self):
        # same pulse in both factors pins the leading Cholesky entry
        grid, potential, sources, axis, settings = wave_setup(q_amp=0.3, n=8)
        data = simulate_transfer(potential, sources, axis, settings)
        bg_pot = zero_potential(grid)
        data0 = simulate_transfer(bg_pot, sources, axis, settings)
        bg = leapfrog_snapshots(bg_pot, sources, 0, axis, settings, axis.n)
        basis = cholesky_upper(block_mass_from_data(source_record(data, 0), axis.total_samples))
        basis0 = cholesky_upper(block_mass_from_data(source_record(data0, 0), axis.total_samples))
        out = apply_transform(field_transform(basis, basis0, 1), bg[None])[0]
        g = sources.field(grid, 0)
        assert np.abs(out[0] - g).max() <= 1e-10 * np.abs(g).max()

    def test_dimension_mismatch(self):
        grid, potential, sources, axis, settings = wave_setup(q_amp=0.0)
        data = simulate_transfer(potential, sources, axis, settings)
        b6 = cholesky_upper(block_mass_from_data(source_record(data, 0), 11))
        b5 = cholesky_upper(block_mass_from_data(source_record(data, 0), 9))
        with pytest.raises(DimensionError, match="factor shapes differ"):
            field_transform(b6, b5, 1)
        # a side of 6 holds no whole number of samples of 4 sources
        with pytest.raises(DimensionError, match="factor shapes differ"):
            field_transform(b6, b6, 4)

    def test_source_major_transform_matches_time_major_sum(self):
        # u_i(b) = sum over (a, l) of X[a K + l, b K + i] u0_l(a) with X
        # the time-major triangular solve: T is X permuted, nothing more
        rng = np.random.default_rng(12)
        K, steps = 3, 5
        m = K * steps

        def random_basis():
            upper = np.triu(rng.standard_normal((m, m)), 1) * (0.3 / np.sqrt(m))
            return upper + np.diag(rng.uniform(0.5, 1.5, m))

        basis, basis0 = random_basis(), random_basis()
        stack = rng.standard_normal((K, steps + 2, 4, 6))
        got = apply_transform(field_transform(basis, basis0, K), stack)
        time_major = scipy.linalg.solve_triangular(basis0, basis, lower=False)
        expected = np.zeros((K, steps, 4, 6))
        for i in range(K):
            for b in range(steps):
                for l in range(K):
                    for a in range(steps):
                        expected[i, b] += time_major[a * K + l, b * K + i] * stack[l, a]
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_spherical_averages_improve_on_background(self, two_target_run):
        # circular averages around the source: the data-generated field
        # tracks the true one much closer than the background does
        ctx = two_target_run.ctx
        grid = ctx.sim_grid
        settings = two_target_run.cfg.settings()
        K, n = ctx.sources.count, ctx.axis.n
        j = K // 2
        # the fine field through the reference path, from the bases the
        # SISO step factors; the stage itself carries only their transform
        basis, basis0 = (
            cholesky_upper(regularize_spd(block_mass_from_data(source_record(d, j), 2 * n - 1))[0])
            for d in (ctx.measured, ctx.background.data)
        )
        transform = field_transform(basis, basis0, 1)
        assert np.array_equal(two_target_run.siso_transform[j], transform)
        generated = apply_transform(transform, ctx.background.fields[j : j + 1])[0]
        true_snaps = leapfrog_snapshots(
            two_target_run.q_true, ctx.sources, j, ctx.axis, settings, ctx.axis.n
        )
        cx, cy = ctx.sources.centers[j]
        x, y = grid.meshgrid()
        bins = np.clip((np.hypot(x - cx, y - cy) / 2.0).astype(int), 0, 24).ravel()
        counts = np.maximum(np.bincount(bins, minlength=25), 1)

        def radial(samples):
            rows = samples.reshape(samples.shape[0], -1)
            return np.stack(
                [np.bincount(bins, weights=row, minlength=25) / counts for row in rows]
            )

        picks = list(range(8, ctx.axis.n, 8))
        ra_true = radial(true_snaps[picks])
        ra_bg = radial(ctx.background.fields[j][picks])
        ra_gen = radial(generated[picks])
        err_bg = np.linalg.norm(ra_bg - ra_true)
        err_gen = np.linalg.norm(ra_gen - ra_true)
        assert err_gen < 0.5 * err_bg

    def test_zero_potential_pipeline_identity(self):
        # mass matrices from identical data give back background snapshots
        grid, _, sources, axis, settings = wave_setup(q_amp=0.0, K=2, n=8)
        zero = zero_potential(grid)
        data = simulate_transfer(zero, sources, axis, settings)
        mass, _ = regularize_spd(block_mass_from_data(data, axis.n))
        basis = cholesky_upper(mass)
        bg = np.stack([
            leapfrog_snapshots(zero, sources, j, axis, settings, mass.shape[0] // 2)
            for j in range(2)
        ])
        out = apply_transform(field_transform(basis, basis, 2), bg)
        for got, ref in zip(out, bg):
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= 1e-10 * scale
