import numpy as np
import pytest

import lslkit as lk
from lslkit.core import (
    Grid2D,
    Potential,
    SourceSet,
    TimeAxis,
    TransferData,
    prolong,
    restrict,
)
from lslkit.errors import DimensionError, OverRegularizationError, PreconditionError
from lslkit.lippmann import (
    LIFT_CHUNK_NODES,
    TSVD_MIN_THRESHOLD,
    LSSystem,
    assemble_system,
    forward_lift,
    residual_norm,
    solve_tsvd,
)
from lslkit.rom import field_transform
from lslkit.wavesim import SolverSettings, simulate_background, simulate_transfer
from reference import (
    apply_transform,
    convolution_rows,
    dense_transform,
    diagonal_record,
    identity_blocks,
    leapfrog_snapshots,
    zero_potential,
)


def wave_setup(nx=60, ny=30, K=4, n=20, tau=2.0, sigma=2.5, amp=0.05, smooth=True):
    grid = Grid2D(nx, ny, 1.0, 1.0)
    inv_grid = grid.coarsen(2)
    if smooth:
        xc, yc = inv_grid.meshgrid()
        q_c = amp * np.exp(-(((xc - nx / 2) / 8.0) ** 2 + ((yc - ny * 0.4) / 5.0) ** 2))
        q_c[q_c < 1e-10 * amp] = 0.0
        values = prolong(q_c, inv_grid, grid)
    else:
        x, y = grid.meshgrid()
        values = np.where(
            (np.abs(x - nx / 2) <= 7) & (np.abs(y - ny * 0.5) <= 2.5), amp, 0.0
        )
    potential = Potential(grid, values)
    xs = np.linspace(8.0, nx - 8.0, K)
    sources = SourceSet(np.column_stack([xs, np.full(K, ny - 4.0)]), sigma)
    axis = TimeAxis(tau, n)
    settings = SolverSettings(substeps=5)
    data = diagonal_record(simulate_transfer(potential, sources, axis, settings))
    background = simulate_background(grid, sources, axis, settings)
    return grid, inv_grid, potential, sources, axis, settings, data, background


def on_inversion_grid(bg):
    """The w0 and u0 stacks injected onto `wave_setup`'s inversion grid."""
    return bg.antiderivatives[:, :, ::2, ::2], bg.fields[:, :, ::2, ::2]


def born_inputs(bg):
    """The injected w0 and u0 stacks and T = I: the Born system's inputs."""
    return (*on_inversion_grid(bg), identity_blocks(*bg.fields.shape[:2]))


def random_basis(rng, block_size, steps):
    """A well-conditioned random upper-triangular factor."""
    m = block_size * steps
    upper = np.triu(rng.standard_normal((m, m)), 1) * (0.3 / np.sqrt(m))
    return upper + np.diag(rng.uniform(0.5, 1.5, m))


def assert_per_pair_lift(lifted, fields, kernels, q_est, data0, grid):
    """Every off-diagonal series of `lifted` against the reciprocal mean of
    the per-pair quadratures of `convolution_rows` with the materialized
    fields, to 1e-12 of the larger of the pair's two integrals."""
    n_out, tau = lifted.num_samples, lifted.tau
    q_fine = prolong(q_est.values, q_est.grid, grid).ravel()
    weights = grid.node_weights.ravel()
    K = len(fields)
    integral = np.zeros((K, K, n_out))
    for i in range(K):
        for j in range(K):
            rows = convolution_rows(
                kernels[j, :n_out].reshape(n_out, -1),
                fields[i, :n_out].reshape(n_out, -1),
                weights,
                tau,
                n_out,
            )
            integral[i, j] = rows @ q_fine
    predicted = data0.values[:, :, :n_out] - integral
    for i in range(K):
        for j in range(K):
            if i == j:
                continue
            deviation = lifted.values[i, j] - 0.5 * (predicted[i, j] + predicted[j, i])
            scale = max(np.abs(integral[i, j]).max(), np.abs(integral[j, i]).max())
            assert np.abs(deviation).max() <= 1e-12 * scale


class TestConvolutionRows:
    # the FFT route of the tests' oracle against brute-force sums
    def test_against_direct_trapezoid(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((6, 11))
        u = rng.standard_normal((6, 11))
        weights = rng.random(11) + 0.5
        tau = 0.7
        rows = convolution_rows(w, u, weights, tau, 6)
        assert np.array_equal(rows[0], np.zeros(11))
        for k in range(1, 6):
            direct = np.zeros(11)
            for t in range(k + 1):
                c = 0.5 if t in (0, k) else 1.0
                direct += c * w[k - t] * u[t] * weights
            direct *= tau
            assert rows[k] == pytest.approx(direct, rel=1e-12, abs=1e-14)

    # 7, 64 and 65 put the power-of-two FFT length at 16, 128 and 256
    @pytest.mark.parametrize("num_out", [1, 2, 7, 13, 64, 65, 88])
    def test_matches_np_convolve(self, num_out):
        rng = np.random.default_rng(num_out)
        w = rng.standard_normal((num_out, 7))
        u = rng.standard_normal((num_out, 7))
        weights = rng.random(7) + 0.5
        tau = 0.7
        rows = convolution_rows(w, u, weights, tau, num_out)
        reference = np.zeros((num_out, 7))
        for c in range(7):
            wc = w[:, c] * weights[c]
            full = np.convolve(wc, u[:, c])[:num_out]
            reference[:, c] = tau * (full - 0.5 * (wc * u[0, c] + wc[0] * u[:, c]))
        reference[0] = 0.0
        assert np.abs(rows - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            convolution_rows(np.ones((3, 4)), np.ones((3, 5)), np.ones(4), 1.0, 3)
        with pytest.raises(DimensionError):
            convolution_rows(np.ones((2, 4)), np.ones((3, 4)), np.ones(4), 1.0, 3)


class TestAssemble:
    def test_zero_potential_zero_rhs(self):
        grid, inv_grid, _, sources, axis, settings, _, bg = wave_setup(amp=0.0)
        system = assemble_system(
            *born_inputs(bg), bg.data, bg.data, inv_grid, 1e-2
        )
        assert np.all(system.rhs == 0.0)
        q = solve_tsvd(system)
        assert np.all(q.values == 0.0)

    def test_row_layout_drops_k0(self):
        grid, inv_grid, _, sources, axis, settings, data, bg = wave_setup(n=10)
        system = assemble_system(
            *born_inputs(bg), data, bg.data, inv_grid, 1e-2
        )
        K, n = sources.count, axis.n
        assert system.matrix.shape == (K * (n - 1), inv_grid.num_nodes)

    def test_missing_diagonal_rejected(self):
        grid, inv_grid, _, _, axis, _, data, bg = wave_setup(n=10)
        broken = TransferData(
            data.values, np.zeros_like(np.asarray(data.mask)), data.tau
        )
        with pytest.raises(PreconditionError):
            assemble_system(
                *born_inputs(bg), broken, bg.data, inv_grid, 1e-2
            )

    def test_time_axis_mismatch(self):
        grid, inv_grid, _, _, axis, _, data, bg = wave_setup(n=10)
        shifted = TransferData(data.values, data.mask, data.tau * 2.0)
        with pytest.raises(DimensionError):
            assemble_system(
                *born_inputs(bg), shifted, bg.data, inv_grid, 1e-2
            )
        # stacks must already live on the inversion grid
        w0, fields, identity = born_inputs(bg)
        for stacks in ((bg.antiderivatives, fields), (w0, bg.fields)):
            with pytest.raises(DimensionError, match="stack has shape"):
                assemble_system(*stacks, identity, data, bg.data, inv_grid, 1e-2)

    def test_nan_sample_interval_rejected(self):
        # NaN compares false both ways, so the check must not pass it
        grid, inv_grid, _, _, axis, _, data, bg = wave_setup(n=10)
        nan_data = TransferData(data.values, data.mask, np.nan)
        nan_data0 = TransferData(bg.data.values, bg.data.mask, np.nan)
        for measured, data0 in ((nan_data, bg.data), (data, nan_data0)):
            with pytest.raises(DimensionError, match="sample intervals differ"):
                assemble_system(
                    *born_inputs(bg), measured, data0, inv_grid, 1e-2
                )

    def test_born_error_decreases_with_amplitude(self):
        errors = {}
        for amp in (0.04, 0.02, 0.01):
            grid, inv_grid, potential, _, axis, _, data, bg = wave_setup(K=6, n=24, amp=amp)
            system = assemble_system(
                *born_inputs(bg), data, bg.data, inv_grid, 1e-2
            )
            q_hat = solve_tsvd(system)
            truth = restrict(potential.values, grid, inv_grid)
            errors[amp] = np.linalg.norm(q_hat.values - truth) / np.linalg.norm(truth)
        assert errors[0.01] < errors[0.02] < errors[0.04]

    @pytest.mark.parametrize(
        "kind", ["siso", "siso-dense", "pairs", "dense", "two-samples", "identity"]
    )
    def test_mixing_matches_materialized_fields(self, kind):
        # assembly mixes u0 by T source by source and sums the
        # anti-diagonals directly; the reference materializes the whole
        # field stack u0 * T from the dense zero-filled matrix of T and
        # builds each source's rows from it by FFT.
        # Random stacks break the symmetry that could hide a transposed T
        # or a wrong column block
        _, inv_grid, _, sources, axis, _, data, bg = wave_setup(n=20)
        K, n = sources.count, axis.n
        rng = np.random.default_rng(13)
        shape = (K, n) + inv_grid.shape
        w0, u0 = rng.standard_normal(shape), rng.standard_normal(shape)
        steps = n
        if kind.startswith("siso"):  # one scalar ROM per source: K blocks
            transform = np.stack([
                field_transform(random_basis(rng, 1, n), random_basis(rng, 1, n), 1)
                for _ in range(K)
            ])
            if kind == "siso-dense":  # the same T as one zero-filled block
                transform = dense_transform(transform)
        elif kind == "pairs":  # two blocks, each mixing two sources
            transform = rng.standard_normal((2, 2 * n, 2 * n)) / np.sqrt(2 * n)
        elif kind == "dense":  # mixes sources, and takes fewer samples than the stacks hold
            steps = 13
            transform = rng.standard_normal((1, K * steps, K * steps)) / np.sqrt(K * steps)
        elif kind == "two-samples":  # the smallest T: one row per source
            steps = 2
            transform = rng.standard_normal((K, steps, steps))
        else:
            transform = identity_blocks(K, n)
        system = assemble_system(w0, u0, transform, data, bg.data, inv_grid, 1e-2)

        weights = inv_grid.node_weights.ravel()

        def rows(fields):
            return np.vstack([
                convolution_rows(
                    w0[j, :steps].reshape(steps, -1),
                    fields[j, :steps].reshape(steps, -1),
                    weights,
                    data.tau,
                    steps,
                )[1:]
                for j in range(K)
            ])

        reference = rows(apply_transform(dense_transform(transform)[0], u0))
        assert system.matrix.shape == reference.shape == (K * (steps - 1), inv_grid.num_nodes)
        assert np.abs(system.matrix - reference).max() <= 1e-12 * np.abs(reference).max()
        rhs = [bg.data.values[j, j, 1:steps] - data.values[j, j, 1:steps] for j in range(K)]
        assert np.array_equal(system.rhs, np.concatenate(rhs))
        if kind == "identity":  # u0 I is u0 exactly on either layout of T
            dense = assemble_system(
                w0, u0, dense_transform(transform), data, bg.data, inv_grid, 1e-2
            )
            assert np.array_equal(system.matrix, dense.matrix)

    def test_transform_must_fit_background(self):
        # T must be a stack of square blocks, B of them over the K
        # sources with B dividing K, and take no more samples than the
        # stacks hold; stacks on the wrong grid are refused in
        # test_time_axis_mismatch
        _, inv_grid, _, sources, axis, _, data, bg = wave_setup(n=10)
        w0, u0, _ = born_inputs(bg)
        K, n = sources.count, axis.n
        for transform, message in (
            (np.eye(K * n), "does not fit"),  # 2-D, not a stack
            (np.ones((1, K * n, K * n - 1)), "does not fit"),  # blocks not square
            (np.ones((K, n, n + 1)), "does not fit"),
            (identity_blocks(3, K * n // 3), "does not fit"),  # 3 blocks over 4 sources
            (np.eye(K * n + 1)[np.newaxis], "does not fit"),
            (np.zeros((0, n, n)), "does not fit"),
            (identity_blocks(K, n + 1), "transform samples"),
        ):
            with pytest.raises(DimensionError, match=message):
                assemble_system(w0, u0, transform, data, bg.data, inv_grid, 1e-2)


class TestSolveTsvd:
    def test_identity_system(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        m = grid.num_nodes
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(m)
        system = LSSystem(np.eye(m), rhs, grid, 0.5)
        q = solve_tsvd(system)
        assert q.values.ravel() == pytest.approx(rhs)

    def test_zero_rhs(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        m = grid.num_nodes
        system = LSSystem(np.eye(m), np.zeros(m), grid, 0.5)
        assert np.all(solve_tsvd(system).values == 0.0)

    def test_over_regularization(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        m = grid.num_nodes
        system = LSSystem(np.eye(m), np.ones(m), grid, 2.0)
        with pytest.raises(OverRegularizationError):
            solve_tsvd(system)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(2)
        grid = Grid2D(4, 4, 1.0, 1.0)  # 25 nodes
        matrix = rng.standard_normal((40, grid.num_nodes))
        rhs = rng.standard_normal(40)
        theta = 0.3
        system = LSSystem(matrix, rhs, grid, theta)
        q = solve_tsvd(system)
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        keep = s >= theta * s[0]
        basis = vt[keep].T
        reduced = matrix @ basis
        coeff = np.linalg.solve(reduced.T @ reduced, reduced.T @ rhs)
        oracle = basis @ coeff
        assert np.linalg.norm(q.values.ravel() - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_matches_svd_reference(self):
        # the Gram-eigh solve against a full SVD of a wave system, at the
        # desk level and at a deeper cut; a match far tighter than the gap
        # to the neighbouring ranks' solutions pins the kept rank too. The
        # symmetric setup leaves some singular directions out of its own
        # rhs, so a random rhs stands in for it.
        _, inv_grid, _, _, _, _, data, bg = wave_setup()
        matrix = assemble_system(
            *born_inputs(bg), data, bg.data, inv_grid, 0.03
        ).matrix
        assert matrix.shape[0] < matrix.shape[1]
        rhs = np.random.default_rng(6).standard_normal(matrix.shape[0])
        for theta in (0.03, 1e-3):
            system = LSSystem(matrix, rhs, inv_grid, theta)
            u, s, vt = np.linalg.svd(system.matrix, full_matrices=False)
            coeff = (u.T @ system.rhs) / s

            def svd_solve(rank):
                return vt[:rank].T @ coeff[:rank]

            kept = int(np.count_nonzero(s >= theta * s[0]))
            reference = svd_solve(kept)
            scale = np.linalg.norm(reference)
            for other in (kept - 1, kept + 1):
                assert np.linalg.norm(svd_solve(other) - reference) > 1e-6 * scale
            q = solve_tsvd(system).values.ravel()
            assert np.linalg.norm(q - reference) <= 1e-10 * scale

    def test_threshold_floor(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        m = grid.num_nodes
        LSSystem(np.eye(m), np.ones(m), grid, TSVD_MIN_THRESHOLD)
        with pytest.raises(PreconditionError, match="floor"):
            LSSystem(np.eye(m), np.ones(m), grid, 1e-5)

    def test_residual_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        grid = Grid2D(4, 4, 1.0, 1.0)
        matrix = rng.standard_normal((40, grid.num_nodes))
        rhs = rng.standard_normal(40)
        residuals = []
        for theta in (0.5, 0.2, 0.05, 0.01):
            system = LSSystem(matrix, rhs, grid, theta)
            residuals.append(residual_norm(system, solve_tsvd(system)))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


class TestForwardLift:
    def test_matches_per_pair_reference(self):
        # two node blocks and an estimate on the coarser inversion grid;
        # random stacks break the
        # symmetry that could hide a swapped source/receiver index, and a
        # nonzero first kernel sample exercises every trapezoid endpoint
        grid, inv_grid, _, sources, axis, _, data, bg = wave_setup(n=20)
        assert LIFT_CHUNK_NODES < grid.num_nodes < 2 * LIFT_CHUNK_NODES  # one full, one partial
        rng = np.random.default_rng(5)

        shape = (sources.count, axis.n) + grid.shape
        fields, kernels = rng.standard_normal(shape), rng.standard_normal(shape)
        q_est = Potential(inv_grid, rng.standard_normal(inv_grid.shape))
        identity = identity_blocks(sources.count, axis.n)
        lifted = forward_lift(fields, identity, q_est, kernels, bg.data, data, grid)
        assert lifted.num_samples == axis.n
        assert_per_pair_lift(lifted, fields, kernels, q_est, bg.data, grid)

    @pytest.mark.parametrize("kind", ["siso", "siso-dense", "pairs", "block", "dense"])
    def test_factored_matches_materialized_fields(self, kind):
        # the lift of u0 * T against the per-pair lift of the fields
        # materialized from the same factors: the K-block stack of one
        # scalar ROM per source and the zero-filled matrix of the same T,
        # two random blocks of two sources each, a block-ROM T and,
        # beyond what a ROM yields, a dense T that is not triangular;
        # random stacks on the two-block grid
        grid, inv_grid, _, sources, axis, _, data, bg = wave_setup(n=20)
        K, steps = sources.count, axis.n
        rng = np.random.default_rng(11)
        shape = (K, steps) + grid.shape
        background, kernels = rng.standard_normal(shape), rng.standard_normal(shape)
        if kind.startswith("siso"):
            transform = np.empty((K, steps, steps))
            fields = np.empty(shape)
            for j in range(K):
                basis, basis0 = random_basis(rng, 1, steps), random_basis(rng, 1, steps)
                transform[j] = field_transform(basis, basis0, 1)
                fields[j] = apply_transform(transform[j], background[j : j + 1])[0]
            if kind == "siso-dense":
                transform = dense_transform(transform)
        elif kind == "pairs":
            transform = rng.standard_normal((2, 2 * steps, 2 * steps)) / np.sqrt(2 * steps)
            fields = apply_transform(dense_transform(transform)[0], background)
        elif kind == "block":
            basis, basis0 = random_basis(rng, K, steps), random_basis(rng, K, steps)
            transform = field_transform(basis, basis0, K)[np.newaxis]
            fields = apply_transform(transform[0], background)
        else:
            transform = rng.standard_normal((1, K * steps, K * steps)) / np.sqrt(K * steps)
            fields = apply_transform(transform[0], background)
        q_est = Potential(inv_grid, rng.standard_normal(inv_grid.shape))
        lifted = forward_lift(background, transform, q_est, kernels, bg.data, data, grid)
        assert_per_pair_lift(lifted, fields, kernels, q_est, bg.data, grid)

    def test_transform_must_fit_sources(self):
        grid, inv_grid, _, sources, axis, _, data, bg = wave_setup(n=10)
        zero = zero_potential(inv_grid)
        w0 = bg.antiderivatives
        K, n = sources.count, axis.n
        for transform in (
            np.eye(K * n),  # 2-D, not a stack
            np.eye(K * n + 1)[np.newaxis],
            np.ones((K, n, n - 1)),  # blocks not square
            identity_blocks(3, K * n // 3),  # 3 blocks over 4 sources
            identity_blocks(K, 11),  # more samples than the stacks hold
        ):
            with pytest.raises(DimensionError):
                forward_lift(bg.fields, transform, zero, w0, bg.data, data, grid)
        # both stacks must live on the fine grid passed with them
        identity = identity_blocks(K, n)
        coarse_w0, coarse_u0 = on_inversion_grid(bg)
        for u0, kernels in ((coarse_u0, w0), (bg.fields, coarse_w0)):
            with pytest.raises(DimensionError, match="stack has shape"):
                forward_lift(u0, identity, zero, kernels, bg.data, data, grid)

    def test_zero_estimate_returns_background(self):
        grid, inv_grid, potential, sources, axis, settings, data, bg = wave_setup(n=10)
        zero = zero_potential(inv_grid)
        identity = identity_blocks(sources.count, axis.n)
        lifted = forward_lift(
            bg.fields, identity, zero, bg.antiderivatives, bg.data, data, grid
        )
        # the reciprocal mean of the background record, bit for bit
        K = sources.count
        for i in range(K):
            for j in range(K):
                if i != j:
                    mean = 0.5 * (bg.data.values[i, j] + bg.data.values[j, i])
                    assert np.array_equal(lifted.values[i, j], mean[: axis.n])
        assert lifted.num_samples == axis.n

    def test_diagonal_copied_bitwise(self):
        grid, inv_grid, potential, sources, axis, settings, data, bg = wave_setup(n=10)
        q_est = Potential(inv_grid, np.full(inv_grid.shape, 0.01))
        # a dense T makes the raw lift of (i, j) and (j, i) differ; the
        # record keeps their mean off the diagonal, the measured series on it
        size = sources.count * axis.n
        transform = np.random.default_rng(14).standard_normal((1, size, size)) / np.sqrt(size)
        lifted = forward_lift(
            bg.fields, transform, q_est, bg.antiderivatives, bg.data, data, grid
        )
        assert lifted.reciprocity_defect() == 0.0
        for i in range(sources.count):
            assert np.array_equal(lifted.values[i, i], data.values[i, i, : axis.n])
            assert lifted.mask[i, i] == lk.MaskState.MEASURED
            assert lifted.mask[i, (i + 1) % sources.count] == lk.MaskState.LIFTED

    def test_adjoint_consistency_with_assembly(self):
        # identical inputs: assembled row dotted with q equals the lift residual
        grid, inv_grid, potential, sources, axis, settings, data, bg = wave_setup(n=12)
        fields = bg.fields
        identity = identity_blocks(sources.count, axis.n)
        system = assemble_system(
            bg.antiderivatives, fields, identity, data, bg.data, grid, 1e-2
        )  # inversion grid = field grid here
        q_vals = potential.values
        lifted = forward_lift(
            fields, identity, potential, bg.antiderivatives, bg.data, data, grid
        )
        K, n = sources.count, axis.n
        for j in range(K):
            for k in range(1, n):
                row = system.matrix[j * (n - 1) + (k - 1)]
                residual = bg.data.values[j, j, k] - lifted.values[j, j, k]
                # diagonal entries are copies; recompute the lift integral directly
                rows = convolution_rows(
                    bg.antiderivatives[j, :n].reshape(n, -1),
                    fields[j, :n].reshape(n, -1),
                    grid.node_weights.ravel(),
                    axis.tau,
                    n,
                )
                integral = rows[k] @ q_vals.ravel()
                assert integral == pytest.approx(row @ q_vals.ravel(), rel=1e-12, abs=1e-13)

    def test_linearity_in_estimate(self):
        grid, inv_grid, potential, sources, axis, settings, data, bg = wave_setup(n=10)
        rng = np.random.default_rng(4)
        q1 = Potential(inv_grid, rng.standard_normal(inv_grid.shape))
        q2 = Potential(inv_grid, rng.standard_normal(inv_grid.shape))
        combo = Potential(inv_grid, 2.0 * np.asarray(q1.values) - 0.5 * np.asarray(q2.values))
        identity = identity_blocks(sources.count, axis.n)
        lift = lambda q: forward_lift(
            bg.fields, identity, q, bg.antiderivatives, bg.data, data, grid
        )
        r1 = bg.data.values[:, :, : axis.n] - lift(q1).values
        r2 = bg.data.values[:, :, : axis.n] - lift(q2).values
        rc = bg.data.values[:, :, : axis.n] - lift(combo).values
        off = ~np.eye(sources.count, dtype=bool)
        expected = 2.0 * r1[off] - 0.5 * r2[off]
        scale = np.abs(expected).max()
        assert np.abs(rc[off] - expected).max() <= 1e-12 * scale

    def test_true_inputs_match_brute_force_mimo(self, two_target_run):
        ctx = two_target_run.ctx
        n = ctx.axis.n
        settings = two_target_run.cfg.settings()
        true_fields = np.stack([
            leapfrog_snapshots(two_target_run.q_true, ctx.sources, i, ctx.axis, settings, n)
            for i in range(ctx.sources.count)
        ])
        lifted = forward_lift(
            true_fields,
            identity_blocks(ctx.sources.count, n),
            two_target_run.q_true,
            ctx.background.antiderivatives,
            ctx.background.data,
            ctx.measured,
            ctx.sim_grid,
        )
        off = ~np.eye(ctx.sources.count, dtype=bool)
        truth = two_target_run.true_mimo.values[off][:, :n]
        defect = np.linalg.norm(lifted.values[off] - truth) / np.linalg.norm(truth)
        assert defect <= 0.02

    def test_quadrature_refinement(self):
        # halving tau (same substep count) and refining the inversion grid
        # cuts the lift defect by far more than 2x
        defects = []
        for tau, n, ratio in ((3.0, 24, 2), (1.5, 48, 1)):
            grid = Grid2D(60, 30, 1.0, 1.0)
            inv_grid = grid.coarsen(ratio)
            x, y = grid.meshgrid()
            values = np.where((np.abs(x - 30) <= 7) & (np.abs(y - 16) <= 2.5), 0.05, 0.0)
            potential = Potential(grid, values)
            K = 5
            sources = SourceSet(
                np.column_stack([np.linspace(10, 50, K), np.full(K, 26.0)]), 2.0
            )
            axis = TimeAxis(tau, n)
            settings = SolverSettings(substeps=5)
            mimo = simulate_transfer(potential, sources, axis, settings)
            data = diagonal_record(mimo)
            bg = simulate_background(grid, sources, axis, settings)
            fields = np.stack([
                leapfrog_snapshots(potential, sources, i, axis, settings, n) for i in range(K)
            ])
            q_est = Potential(inv_grid, restrict(values, grid, inv_grid))
            identity = identity_blocks(K, n)
            lifted = forward_lift(
                fields, identity, q_est, bg.antiderivatives, bg.data, data, grid
            )
            off = ~np.eye(K, dtype=bool)
            truth = mimo.values[off][:, :n]
            defects.append(np.linalg.norm(lifted.values[off] - truth) / np.linalg.norm(truth))
        assert defects[1] <= defects[0] / 2.0

    def test_missing_background_rejected(self):
        grid, inv_grid, potential, sources, axis, settings, data, bg = wave_setup(n=10)
        with pytest.raises(PreconditionError):
            forward_lift(
                bg.fields,
                identity_blocks(sources.count, axis.n),
                zero_potential(inv_grid),
                bg.antiderivatives,
                data,  # diagonal-only record cannot provide off-diagonal reference
                data,
                grid,
            )
