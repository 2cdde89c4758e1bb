import numpy as np
import pytest

import lslkit as lk
from lslkit.core import Grid2D, MaskState, Potential, SourceSet, TimeAxis, inner_product
from lslkit.errors import ConfigurationError, DomainError
from lslkit.wavesim import (
    SolverSettings,
    _leapfrog,
    _starts,
    add_noise,
    apply_operator,
    check_cfl,
    max_stable_dt,
    simulate_background,
    simulate_snapshots,
    simulate_transfer,
)


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


class TestSnapshots:
    def test_constant_initial_state_stays_constant(self):
        # A_h 1 = 0, so the recurrence keeps a constant field exactly
        grid = Grid2D(12, 10, 1.0, 1.0)
        q = np.zeros(grid.shape)
        g = np.ones(grid.shape)
        dt = 0.3
        start0, start1 = _starts(grid, q, g, dt, "cosine")
        seen = []
        _leapfrog(grid, q, start0, start1, dt, 3, 5, lambda k, u: seen.append(u.copy()))
        for state in seen:
            assert np.array_equal(state, g)

    def test_cosine_start_is_source(self):
        grid, potential, sources, axis, settings = small_setup()
        snaps = simulate_snapshots(potential, sources, 1, axis, settings, "cosine", 4)
        assert np.array_equal(snaps.samples[0], sources.field(grid, 1))
        assert snaps.kind == "background"

    def test_kind_tags(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.2)
        assert simulate_snapshots(potential, sources, 0, axis, settings).kind == "true"
        w = simulate_snapshots(potential, sources, 0, axis, settings, "antiderivative", 4)
        assert w.kind == "background-antiderivative"
        assert np.all(w.samples[0] == 0.0)

    def test_chebyshev_recursion_oracle(self):
        # sampled snapshots must equal T_{k p}(S) g via the three-term recursion
        grid, potential, sources, axis, settings = small_setup(q_amp=0.15, n=6)
        snaps = simulate_snapshots(potential, sources, 0, axis, settings, "cosine", 6)
        dt = axis.tau / settings.substeps
        g = sources.field(grid, 0)
        apply_s = lambda f: f - 0.5 * dt * dt * apply_operator(grid, potential.values, f)
        prev, cur = g, apply_s(g)
        states = [prev.copy(), cur.copy()]
        for _ in range(2, 5 * settings.substeps + 1):
            prev, cur = cur, 2.0 * apply_s(cur) - prev
            states.append(cur.copy())
        scale = np.abs(snaps.samples).max()
        for k in range(6):
            oracle = states[k * settings.substeps]
            assert np.abs(snaps.samples[k] - oracle).max() <= 1e-10 * scale

    def test_energy_conservation(self):
        # with one substep the samples are the fine steps themselves
        grid, potential, sources, axis, settings = small_setup(q_amp=0.3, tau=0.4, n=20)
        settings = SolverSettings(substeps=1)
        snaps = simulate_snapshots(potential, sources, 0, axis, settings, "cosine", 20)
        dt = axis.tau
        energies = []
        for k in range(19):
            u0, u1 = snaps.samples[k], snaps.samples[k + 1]
            diff = (u1 - u0) / dt
            energies.append(
                inner_product(grid, diff, diff)
                + inner_product(grid, apply_operator(grid, potential.values, u1), u0)
            )
        energies = np.array(energies)
        assert np.abs(energies - energies[0]).max() <= 1e-12 * abs(energies[0])

    def test_cfl_and_domain_errors(self):
        grid, potential, sources, axis, _ = small_setup()
        with pytest.raises(ConfigurationError, match="substeps"):
            simulate_snapshots(potential, sources, 0, axis, SolverSettings(substeps=1))
        bad = Potential(potential.grid, potential.values - 1.0)
        with pytest.raises(DomainError):
            simulate_snapshots(bad, sources, 0, axis, SolverSettings(substeps=8))

    def test_zero_potential_matches_background_path(self):
        grid, potential, sources, axis, settings = small_setup()
        direct = simulate_snapshots(potential, sources, 0, axis, settings, "cosine", axis.n)
        bg = simulate_background(grid, sources, axis, settings)
        scale = np.abs(direct.samples).max()
        assert np.abs(bg.fields[0].samples - direct.samples).max() <= 1e-12 * scale


class TestClosedFormBackground:
    """The DCT-I background against the leapfrog it replaces, to 1e-12."""

    @pytest.fixture(scope="class")
    def anisotropic(self):
        grid = Grid2D(36, 22, 1.1, 0.8, origin=(2.0, -1.0))
        xs = np.linspace(10.0, 32.0, 3)
        sources = SourceSet(np.column_stack([xs, np.full(3, 13.0)]), 2.0)
        axis = TimeAxis(1.5, 10)
        settings = SolverSettings(substeps=3)
        return grid, sources, axis, settings, simulate_background(grid, sources, axis, settings)

    @staticmethod
    def rel_dev(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    def test_transfer_record(self, anisotropic):
        grid, sources, axis, settings, bg = anisotropic
        leapfrog = simulate_transfer(Potential.zeros(grid), sources, axis, settings, mode="mimo")
        assert bg.data.num_samples == axis.total_samples
        assert np.array_equal(bg.data.mask, leapfrog.mask)
        assert self.rel_dev(bg.data.values, leapfrog.values) <= 1e-12

    def test_field_histories(self, anisotropic):
        grid, sources, axis, settings, bg = anisotropic
        zero = Potential.zeros(grid)
        for i in range(sources.count):
            u0 = simulate_snapshots(zero, sources, i, axis, settings, "cosine", axis.n)
            w0 = simulate_snapshots(zero, sources, i, axis, settings, "antiderivative", axis.n)
            assert bg.fields[i].kind == u0.kind == "background"
            assert bg.antiderivatives[i].kind == w0.kind
            assert self.rel_dev(bg.fields[i].samples, u0.samples) <= 1e-12
            assert self.rel_dev(bg.antiderivatives[i].samples, w0.samples) <= 1e-12


class TestTransfer:
    def test_first_sample_is_pulse_energy(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.1)
        data = simulate_transfer(potential, sources, axis, settings, mode="siso")
        for j in range(sources.count):
            g = sources.field(grid, j)
            assert data.values[j, j, 0] == pytest.approx(inner_product(grid, g, g))
            assert data.values[j, j, 0] > 0.0
        assert data.num_samples == axis.total_samples
        offdiag = ~np.eye(sources.count, dtype=bool)
        assert (np.asarray(data.mask)[offdiag] == MaskState.ABSENT).all()

    def test_mimo_reciprocity(self):
        grid, potential, sources, axis, settings = small_setup(q_amp=0.25, K=4)
        data = simulate_transfer(potential, sources, axis, settings, mode="mimo")
        assert data.is_full
        assert data.reciprocity_defect() <= 1e-10

    def test_determinism_and_threads(self):
        _, potential, sources, axis, settings = small_setup(q_amp=0.2)
        a = simulate_transfer(potential, sources, axis, settings, mode="mimo")
        b = simulate_transfer(potential, sources, axis, settings, mode="mimo")
        c = simulate_transfer(potential, sources, axis, settings, mode="mimo", threads=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_exact_angle_sum_identity(self):
        # <u_k, u_l> = (F((k+l)tau) + F(|k-l|tau)) / 2 to roundoff
        grid, potential, sources, axis, settings = small_setup(q_amp=0.3, n=6)
        data = simulate_transfer(potential, sources, axis, settings, mode="siso")
        snaps = simulate_snapshots(potential, sources, 0, axis, settings, "cosine", 6)
        series = data.diagonal(0)
        scale = np.abs(series).max()
        for k in range(6):
            for l in range(6):
                gram = inner_product(grid, snaps.samples[k], snaps.samples[l])
                formula = 0.5 * (series[k + l] + series[abs(k - l)])
                assert abs(gram - formula) <= 1e-10 * scale


class TestNoise:
    def make_data(self, K=4, T=300):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((K, K, T))
        mask = np.full((K, K), MaskState.MEASURED, dtype=np.int8)
        return lk.TransferData(values, mask, 1.0)

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
        data = lk.TransferData(values, mask, 1.0)
        noisy = add_noise(data, 0.1, 9)
        changed = ~np.isclose(noisy.values, data.values)
        touched_pairs = {(i, j) for i, j, _ in zip(*np.nonzero(changed))}
        assert touched_pairs <= {(0, 0), (1, 1), (2, 2)}


def test_cfl_limit_scaling():
    grid = Grid2D(10, 10, 0.5, 0.5)
    q = np.zeros(grid.shape)
    limit = max_stable_dt(grid, q)
    assert limit == pytest.approx(2.0 / np.sqrt(32.0))
    check_cfl(grid, q, limit * 3.9, SolverSettings(substeps=4, cfl_safety=1.0))
    with pytest.raises(ConfigurationError):
        check_cfl(grid, q, limit * 4.1, SolverSettings(substeps=4, cfl_safety=1.0))
