import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import lslkit.wavesim
from lslkit.config import bundled_config_path, parse_config
from lslkit.core import (Grid2D, MaskState, Potential, SourceSet, TimeAxis, TransferData,
                         inner_product)
from lslkit.errors import ConfigurationError
from lslkit.rom import halved_length
from lslkit.wavesim import (
    CFL_SAFETY,
    BackgroundBands,
    SolverSettings,
    _dct1_matrix,
    _leapfrog,
    add_noise,
    apply_operator,
    background_stacks,
    check_cfl,
    simulate_transfer,
)
from reference import (background, injected_stacks, leapfrog_snapshots, reciprocity_defect,
                       stack_record, whole_stacks, zero_potential)


def small_setup(nx=40, ny=20, K=3, sigma=2.0, tau=2.0, n=8, q_amp=0.0, seed=1):
    grid = Grid2D(nx, ny, 1.0, 1.0)
    values = np.zeros(grid.shape)
    if q_amp:
        x, y = grid.meshgrid()
        values = q_amp * np.exp(-((x - nx / 2) ** 2 + (y - ny / 3) ** 2) / 15.0)
    potential = Potential(grid, values)
    xs = np.linspace(8.0, nx - 8.0, K)
    sources = SourceSet(np.column_stack([xs, np.full(K, ny - 4.0)]), sigma)
    axis = TimeAxis(tau, n)
    settings = SolverSettings(substeps=4)
    return grid, potential, sources, axis, settings


class TestOperator:
    def test_constant_in_kernel(self):
        grid = Grid2D(10, 8, 0.5, 0.25)
        ones = np.ones(grid.shape)
        assert apply_operator(grid, np.zeros(grid.shape), ones) == pytest.approx(0.0)

    def test_self_adjoint_under_weights(self):
        grid = Grid2D(9, 7, 0.4, 0.6)
        rng = np.random.default_rng(2)
        q = rng.random(grid.shape)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        left = inner_product(grid, apply_operator(grid, q, f), g)
        right = inner_product(grid, f, apply_operator(grid, q, g))
        assert left == pytest.approx(right, rel=1e-12)

    def test_batched_matches_padded_stencil(self):
        # reference: the mirror-Neumann stencil through np.pad, one field at a time
        grid = Grid2D(13, 8, 0.7, 0.45)
        rng = np.random.default_rng(5)
        q = rng.random(grid.shape)
        stack = rng.standard_normal((3,) + grid.shape)

        def padded(f):
            p = np.pad(f, 1, mode="reflect")
            lap = (p[1:-1, 2:] - 2.0 * f + p[1:-1, :-2]) / grid.hx**2 + (
                p[2:, 1:-1] - 2.0 * f + p[:-2, 1:-1]
            ) / grid.hy**2
            return q * f - lap

        reference = np.stack([padded(f) for f in stack])
        out = np.full_like(stack, np.nan)
        assert apply_operator(grid, q, stack, out=out) is out
        scale = np.abs(reference).max()
        assert np.abs(out - reference).max() <= 1e-14 * scale
        assert np.abs(apply_operator(grid, q, stack[1]) - reference[1]).max() <= 1e-14 * scale

    def operands(self):
        grid = Grid2D(13, 8, 0.7, 0.45)
        rng = np.random.default_rng(6)
        return grid, rng.random(grid.shape), rng.standard_normal((3,) + grid.shape)

    def test_scratch_path_is_exact(self):
        grid, q, stack = self.operands()
        scratch = np.full_like(stack, np.nan)
        for f in (stack, stack[::-1] * 3.0):
            expected = apply_operator(grid, q, f)
            assert np.array_equal(apply_operator(grid, q, f, scratch=scratch), expected)
            out = np.full_like(stack, np.nan)
            assert apply_operator(grid, q, f, out=out, scratch=scratch) is out
            assert np.array_equal(out, expected)


class TestSnapshots:
    def test_constant_initial_state_stays_constant(self):
        # A_h 1 = 0, so the recurrence keeps a constant field exactly
        grid = Grid2D(12, 10, 1.0, 1.0)
        q = np.zeros(grid.shape)
        g = np.ones(grid.shape)
        dt = 0.3
        start1 = g - 0.5 * dt * dt * apply_operator(grid, q, g)
        seen = [u.copy() for u in _leapfrog(grid, q, g, start1, dt, 3, 5)]
        assert len(seen) == 5
        for state in seen:
            assert np.array_equal(state, g)

    def test_cosine_start_is_source(self):
        grid, potential, sources, axis, settings = small_setup()
        snaps = leapfrog_snapshots(potential, sources, 1, axis, settings, 4)
        assert snaps.shape == (4,) + grid.shape
        assert np.array_equal(snaps[0], sources.field(grid, 1))

    def test_antiderivative_start_is_zero(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.2)
        w = leapfrog_snapshots(potential, sources, 0, axis, settings, 4, "antiderivative")
        assert np.all(w[0] == 0.0)

    def test_chebyshev_recursion_oracle(self):
        # sampled snapshots must equal T_{k p}(S) g via the three-term recursion
        grid, potential, sources, axis, settings = small_setup(q_amp=0.15, n=6)
        snaps = leapfrog_snapshots(potential, sources, 0, axis, settings, 6)
        dt = axis.tau / settings.substeps
        g = sources.field(grid, 0)
        apply_s = lambda f: f - 0.5 * dt * dt * apply_operator(grid, potential.values, f)
        prev, cur = g, apply_s(g)
        states = [prev.copy(), cur.copy()]
        for _ in range(2, 5 * settings.substeps + 1):
            prev, cur = cur, 2.0 * apply_s(cur) - prev
            states.append(cur.copy())
        scale = np.abs(snaps).max()
        for k in range(6):
            oracle = states[k * settings.substeps]
            assert np.abs(snaps[k] - oracle).max() <= 1e-10 * scale

    def test_energy_conservation(self):
        # with one substep the samples are the fine steps themselves
        grid, potential, sources, axis, settings = small_setup(q_amp=0.3, tau=0.4, n=20)
        settings = SolverSettings(substeps=1)
        snaps = leapfrog_snapshots(potential, sources, 0, axis, settings, 20)
        dt = axis.tau
        energies = []
        for k in range(19):
            u0, u1 = snaps[k], snaps[k + 1]
            diff = (u1 - u0) / dt
            energies.append(
                inner_product(grid, diff, diff)
                + inner_product(grid, apply_operator(grid, potential.values, u1), u0)
            )
        energies = np.array(energies)
        assert np.abs(energies - energies[0]).max() <= 1e-12 * abs(energies[0])

    def test_zero_potential_matches_background_path(self):
        grid, potential, sources, axis, settings = small_setup()
        direct = leapfrog_snapshots(potential, sources, 0, axis, settings, axis.n)
        bg = background(grid, sources, axis, settings)
        scale = np.abs(direct).max()
        assert np.abs(bg.fields[0] - direct).max() <= 1e-12 * scale


class TestClosedFormBackground:
    """The DCT-I background against the leapfrog it replaces, to 1e-12."""

    @pytest.fixture(scope="class")
    def anisotropic(self):
        grid = Grid2D(36, 22, 1.1, 0.8)
        xs = np.linspace(10.0, 32.0, 3)
        sources = SourceSet(np.column_stack([xs, np.full(3, 13.0)]), 2.0)
        axis = TimeAxis(1.5, 10)
        settings = SolverSettings(substeps=3)
        return grid, sources, axis, settings, background(grid, sources, axis, settings)

    @staticmethod
    def rel_dev(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    def test_dct1_matrices_match_scipy(self):
        # the cosine-matrix products against scipy's DCT-I on a non-square grid
        ny, nx = 22, 36
        f = np.random.default_rng(4).standard_normal((ny + 1, nx + 1))
        cy, cx = _dct1_matrix(ny + 1), _dct1_matrix(nx + 1)
        assert self.rel_dev(cy @ f @ cx.T, scipy.fft.dctn(f, type=1)) <= 1e-13
        assert self.rel_dev(cy @ f @ cx.T / (4 * nx * ny), scipy.fft.idctn(f, type=1)) <= 1e-13

    def test_transfer_record(self, anisotropic):
        grid, sources, axis, settings, bg = anisotropic
        leapfrog = simulate_transfer(zero_potential(grid), sources, axis, settings)
        assert bg.data.num_samples == axis.total_samples
        assert np.array_equal(bg.data.mask, leapfrog.mask)
        assert self.rel_dev(bg.data.values, leapfrog.values) <= 1e-12

    def test_field_histories(self, anisotropic):
        grid, sources, axis, settings, bg = anisotropic
        zero = zero_potential(grid)
        for stack in (bg.fields, bg.antiderivatives):
            assert stack.shape == (sources.count, axis.n) + grid.shape
        assert not bg.fields.flags.writeable
        for i in range(sources.count):
            u0 = leapfrog_snapshots(zero, sources, i, axis, settings, axis.n)
            w0 = leapfrog_snapshots(zero, sources, i, axis, settings, axis.n, "antiderivative")
            assert self.rel_dev(bg.fields[i], u0) <= 1e-12
            assert self.rel_dev(bg.antiderivatives[i], w0) <= 1e-12


class TestNestedBackground:
    """Stacks on a nested coarsening of the simulation grid, and F0 from the modal states."""

    @pytest.fixture(scope="class")
    def fine(self):
        # non-square cells and cell counts, and counts that 2 and 3 divide
        grid = Grid2D(36, 24, 1.1, 0.8)
        xs = np.linspace(10.0, 32.0, 3)
        sources = SourceSet(np.column_stack([xs + 2.0, np.full(3, 14.0)]), 2.0)
        axis = TimeAxis(1.5, 9)
        settings = SolverSettings(substeps=3)
        return grid, sources, axis, settings, background(grid, sources, axis, settings)

    def test_record_matches_the_fine_stack_angle_sum(self, fine):
        grid, _, _, _, bg = fine
        oracle = stack_record(bg.fields, grid)
        assert np.abs(bg.data.values - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("ratio", [1, 2, 3])
    def test_stacks_match_injected_whole_histories(self, fine, ratio):
        grid, sources, axis, settings, _ = fine
        coarse = grid.coarsen(ratio)
        stacks = whole_stacks(background_stacks(grid, sources, axis, settings, coarse))
        assert not stacks[0].flags.writeable
        for stack, expected in zip(stacks, injected_stacks(grid, sources, axis, settings, coarse)):
            assert stack.shape == (sources.count, axis.n) + coarse.shape
            assert np.abs(stack - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_stacks_match_injected_whole_histories_at_desk_scale(self):
        cfg = parse_config(bundled_config_path("two_targets"))
        args = (cfg.sim_grid(), cfg.sources(), cfg.axis(), cfg.settings())
        for stack_grid in (cfg.sim_grid(), cfg.inv_grid()):
            stacks = whole_stacks(background_stacks(*args, stack_grid))
            for stack, expected in zip(stacks, injected_stacks(*args, stack_grid)):
                assert np.abs(stack - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("steps", [2, 5, 8])
    @pytest.mark.parametrize("ratio", [1, 2, 3])
    def test_fewer_samples_are_the_first_ones_bitwise(self, fine, ratio, steps):
        # a step evaluates only the samples its T reads: an evaluation over
        # fewer samples gives the first samples of a longer one bitwise, so
        # each round's stacks are those of the first round, cut short
        grid, sources, axis, settings, _ = fine
        coarse = grid.coarsen(ratio)
        short = whole_stacks(
            background_stacks(grid, sources, TimeAxis(axis.tau, steps), settings, coarse)
        )
        whole = whole_stacks(background_stacks(grid, sources, axis, settings, coarse))
        for stack, full in zip(short, whole):
            assert stack.shape == (sources.count, steps) + coarse.shape
            assert np.array_equal(stack, full[:, :steps])

    @pytest.mark.parametrize("name", ["two_targets", "three_objects", "box"])
    def test_fewer_samples_are_the_first_ones_bitwise_at_desk_scale(self, name):
        # the samples a second-round step reads, on both grids a pipeline reads
        cfg = parse_config(bundled_config_path(name))
        axis = cfg.axis()
        args = (cfg.sim_grid(), cfg.sources())
        short_axis = TimeAxis(axis.tau, halved_length(axis.n))
        for stack_grid in (cfg.sim_grid(), cfg.inv_grid()):
            short = whole_stacks(background_stacks(*args, short_axis, cfg.settings(), stack_grid))
            whole = whole_stacks(background_stacks(*args, axis, cfg.settings(), stack_grid))
            for stack, full in zip(short, whole):
                assert np.array_equal(stack, full[:, : short_axis.n])

    def test_refuses_a_grid_that_is_not_nested(self, fine):
        grid, sources, axis, settings, _ = fine
        other = Grid2D(10, 8, 3.96, 2.4)  # the same extent; 10 cells do not divide 36
        with pytest.raises(ConfigurationError, match="not nested"):
            background_stacks(grid, sources, axis, settings, other)

    def test_inversion_grid_background_holds_no_fine_stack(self):
        # S is one (K, n) stack on box's inversion grid (ratio 2), and a
        # fine stack is 3.9 S. u0 and w0 on the inversion grid hold 2 S;
        # the build's three (n, modes) coefficient and scratch arrays,
        # about 4 S / K each, and its row block of half that come on top
        # at the peak. Two fine stacks hold 7.8 S
        cfg = parse_config(bundled_config_path("box"))
        grid, inv_grid = cfg.sim_grid(), cfg.inv_grid()
        args = (grid, cfg.sources(), cfg.axis(), cfg.settings())
        stack = cfg.source_count * cfg.n * inv_grid.num_nodes * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stacks = whole_stacks(background_stacks(*args, inv_grid))
            held, peak = (value - before for value in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert all(s.shape == (cfg.source_count, cfg.n) + inv_grid.shape for s in stacks)
        assert peak < 5.0 * stack, f"traced peak {peak / stack:.2f} S"
        assert held <= 2.1 * stack, f"held {held / stack:.2f} S"


class TestBackgroundBands:
    """The lift's row bands against `background_stacks`' u0 and stacked w0
    on the simulation grid, whatever the budget cuts the rows into."""

    @staticmethod
    def banded_stacks(bands, grid):
        """The bands put back into (K, N, ny+1, nx+1) stacks, and each band's row count."""
        shape = (len(bands), bands.axis.n) + grid.shape
        fields, antiderivatives = np.full(shape, np.nan), np.full(shape, np.nan)
        sizes = []
        for rows, u0, w0 in bands:
            sizes.append(rows.stop - rows.start)
            fields[:, :, rows] = u0.transpose(2, 3, 1, 0)
            antiderivatives[:, :, rows] = w0.transpose(2, 3, 1, 0)
        return fields, antiderivatives, sizes

    @staticmethod
    def flat():
        # three rows of nodes: ny = 2
        grid = Grid2D(16, 2, 1.0, 0.9)
        sources = SourceSet(np.column_stack([[4.0, 8.5, 12.0], [1.0, 0.5, 1.2]]), 1.5)
        return grid, sources, TimeAxis(1.0, 6), SolverSettings(substeps=3)

    @staticmethod
    def desk():
        cfg = parse_config(bundled_config_path("two_targets"))
        return cfg.sim_grid(), cfg.sources(), cfg.axis(), cfg.settings()

    @pytest.mark.parametrize("shape, rows, sizes", [
        ("desk", 0.5, [1] * 51),  # a budget below one row still takes one
        ("desk", 1, [1] * 51),
        ("desk", 4, [4] * 12 + [3]),  # a partial last band
        ("desk", 60, [51]),  # a budget above the grid: one band
        ("flat", 1, [1, 1, 1]),
        ("flat", 2, [2, 1]),
        ("flat", 4, [3]),
    ])
    def test_bands_match_the_stacks(self, monkeypatch, shape, rows, sizes):
        grid, sources, axis, settings = getattr(self, shape)()
        row_bytes = 8 * (grid.nx + 1) * sources.count * max(axis.n, grid.ny + 1)
        monkeypatch.setattr(lslkit.wavesim, "BAND_BYTES", int(rows * row_bytes))
        bands = BackgroundBands(grid, sources, axis, settings)
        assert len(bands) == sources.count
        *banded, band_rows = self.banded_stacks(bands, grid)
        assert band_rows == sizes
        stacks = whole_stacks(background_stacks(grid, sources, axis, settings, grid))
        for band, stack in zip(banded, stacks):
            assert np.abs(band - stack).max() <= 1e-14 * np.abs(stack).max()


class TestTransfer:
    def test_first_sample_is_pulse_energy(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.1)
        data = simulate_transfer(potential, sources, axis, settings)
        for j in range(sources.count):
            g = sources.field(grid, j)
            assert data.values[j, j, 0] == pytest.approx(inner_product(grid, g, g))
            assert data.values[j, j, 0] > 0.0
        assert data.num_samples == axis.total_samples
        assert (np.asarray(data.mask) == MaskState.MEASURED).all()

    def test_mimo_reciprocity(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.25, K=4)
        data = simulate_transfer(potential, sources, axis, settings)
        assert data.is_full
        assert reciprocity_defect(data) <= 1e-10

    def test_determinism(self):
        _, potential, sources, axis, settings = small_setup(q_amp=0.2)
        a = simulate_transfer(potential, sources, axis, settings)
        b = simulate_transfer(potential, sources, axis, settings)
        assert np.array_equal(a.values, b.values)

    def test_mimo_matches_per_source_snapshots(self):
        # the batched record against <g_j, u_i(k tau)> from one-source runs
        grid = Grid2D(30, 18, 1.1, 0.8)
        x, y = grid.meshgrid()
        potential = Potential(grid, 0.2 * np.exp(-((x - 16.0) ** 2 + (y - 6.0) ** 2) / 20.0))
        xs = np.linspace(8.0, 26.0, 4)
        sources = SourceSet(np.column_stack([xs, np.full(4, 10.0)]), 2.0)
        axis = TimeAxis(1.5, 7)
        settings = SolverSettings(substeps=3)
        data = simulate_transfer(potential, sources, axis, settings)
        expected = np.empty_like(data.values)
        for i in range(sources.count):
            snaps = leapfrog_snapshots(potential, sources, i, axis, settings, axis.total_samples)
            for j in range(sources.count):
                g = sources.field(grid, j)
                expected[i, j] = [inner_product(grid, g, u) for u in snaps]
        assert np.abs(data.values - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("n, substeps", [(3, 1), (5, 3)])
    def test_steps_n_samples_only(self, monkeypatch, n, substeps):
        # one operator call for the cosine start, then (n-1) p - 1 leapfrog steps
        grid, potential, sources, _, _ = small_setup(q_amp=0.2, K=2)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return apply_operator(*args, **kwargs)

        monkeypatch.setattr("lslkit.wavesim.apply_operator", counting)
        settings = SolverSettings(substeps=substeps)
        simulate_transfer(potential, sources, TimeAxis(0.4 * substeps, n), settings)
        assert len(calls) == (n - 1) * substeps

    def test_leapfrog_allocates_nothing_per_step(self):
        # Minor page faults of a fresh process around one call: a step that
        # allocates a state-sized temporary (above glibc's 128 KiB mmap
        # threshold, hence K = 4) faults it in again every step, so the
        # count would grow with n.
        pytest.importorskip("resource")
        probe = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from lslkit.core import Grid2D, Potential, SourceSet, TimeAxis\n"
            "from lslkit.wavesim import SolverSettings, simulate_transfer\n"
            "grid = Grid2D(100, 50, 1.0, 1.0)\n"
            "sources = SourceSet(np.column_stack([np.linspace(20, 80, 4), np.full(4, 40.0)]), 2.0)\n"
            "args = (Potential(grid, np.zeros(grid.shape)), sources,\n"
            "        TimeAxis(2.5, int(sys.argv[1])), SolverSettings(substeps=5))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "simulate_transfer(*args)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = Path(lslkit.__file__).parents[1]

        def faults(n):
            result = subprocess.run(
                [sys.executable, "-c", probe, str(n)],
                cwd=src, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            return int(result.stdout)

        assert faults(32) - faults(8) < 200

    @pytest.mark.parametrize("n, substeps", [(2, 1), (2, 3), (3, 1), (3, 3)])
    def test_short_records_match_per_source_snapshots(self, n, substeps):
        # the m = 1 branch and the last odd sample of the angle-sum fill
        grid = Grid2D(24, 14, 1.1, 0.8)
        x, y = grid.meshgrid()
        potential = Potential(grid, 0.3 * np.exp(-((x - 12.0) ** 2 + (y - 5.0) ** 2) / 10.0))
        sources = SourceSet(np.array([[6.0, 8.0], [14.0, 8.5], [20.0, 7.5]]), 1.5)
        axis = TimeAxis(0.5 * substeps, n)
        settings = SolverSettings(substeps=substeps)
        data = simulate_transfer(potential, sources, axis, settings)
        expected = np.empty_like(data.values)
        for i in range(sources.count):
            snaps = leapfrog_snapshots(potential, sources, i, axis, settings, axis.total_samples)
            for j in range(sources.count):
                g = sources.field(grid, j)
                expected[i, j] = [inner_product(grid, g, u) for u in snaps]
        assert data.values.shape == (3, 3, 2 * n - 1)
        assert np.abs(data.values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_exact_angle_sum_identity(self):
        # <u_k, u_l> = (F((k+l)tau) + F(|k-l|tau)) / 2 to roundoff
        grid, potential, sources, axis, settings = small_setup(q_amp=0.3, n=6)
        data = simulate_transfer(potential, sources, axis, settings)
        snaps = leapfrog_snapshots(potential, sources, 0, axis, settings, 6)
        series = data.values[0, 0]
        scale = np.abs(series).max()
        for k in range(6):
            for l in range(6):
                gram = inner_product(grid, snaps[k], snaps[l])
                formula = 0.5 * (series[k + l] + series[abs(k - l)])
                assert abs(gram - formula) <= 1e-10 * scale


class TestNoise:
    def make_data(self, K=4, T=300):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((K, K, T))
        mask = np.full((K, K), MaskState.MEASURED, dtype=np.int8)
        return TransferData(values, mask, 1.0)

    def test_zero_level_identity(self):
        data = self.make_data()
        assert add_noise(data, 0.0, 123) is data

    def test_determinism(self):
        data = self.make_data()
        a = add_noise(data, 0.05, 42)
        b = add_noise(data, 0.05, 42)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, add_noise(data, 0.05, 43).values)

    def test_relative_perturbation_scale(self):
        data = self.make_data(K=4, T=300)  # 4800 samples >= 1e3
        noisy = add_noise(data, 0.05, 7)
        rel = np.linalg.norm(noisy.values - data.values) / np.linalg.norm(data.values)
        assert 0.04 <= rel <= 0.06
        assert np.array_equal(noisy.mask, data.mask)

    def test_only_measured_entries_perturbed(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((3, 3, 50))
        mask = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]], dtype=np.int8)
        data = TransferData(values, mask, 1.0)
        noisy = add_noise(data, 0.1, 9)
        changed = ~np.isclose(noisy.values, data.values)
        touched_pairs = {(i, j) for i, j, _ in zip(*np.nonzero(changed))}
        assert touched_pairs <= {(0, 0), (1, 1), (2, 2)}


def test_cfl_limit_scaling():
    grid = Grid2D(10, 10, 0.5, 0.5)
    # the bare bound 2 / sqrt(rho), rho <= 4/hx^2 + 4/hy^2 + qmax; check_cfl
    # keeps every fine step below CFL_SAFETY = 0.9 of it. At qmax = 8 the
    # last step refused would pass a bound that left qmax out
    assert CFL_SAFETY == 0.9
    for qmax, rho in ((0.0, 32.0), (8.0, 40.0)):
        limit = 2.0 / np.sqrt(4.0 / grid.hx**2 + 4.0 / grid.hy**2 + qmax)
        assert limit == pytest.approx(2.0 / np.sqrt(rho))
        check_cfl(grid, qmax, 0.9 * limit * 3.9, SolverSettings(substeps=4))
        with pytest.raises(ConfigurationError):
            check_cfl(grid, qmax, 0.9 * limit * 4.1, SolverSettings(substeps=4))
