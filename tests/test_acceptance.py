"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The desk-scale experiment fixtures live in conftest.py
and are shared with the unit tests.
"""

import time

import numpy as np
import pytest

from lslkit.cli import main as cli_main
from lslkit.core import Grid2D, Potential, SourceSet, TimeAxis, prolong
from lslkit.lippmann import assemble_system, solve_tsvd
from lslkit.pipeline import PipelineContext, stages
from lslkit.rom import (
    block_mass_from_data,
    cholesky_upper,
    field_transform,
    regularize_spd,
)
from lslkit.wavesim import SolverSettings, simulate_background, simulate_transfer
from conftest import off_diagonal_error, source_record
from reference import (
    apply_transform,
    diagonal_record,
    identity_blocks,
    leapfrog_snapshots,
    snapshot_gram,
    zero_potential,
)


def report(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] C{number:02d} {status} {description}: {detail}")
    assert passed, f"criterion {number} failed: {description} ({detail})"


def test_c01_exact_mass_identity():
    started = time.monotonic()
    grid = Grid2D(80, 40, 1.0, 1.0)
    x, y = grid.meshgrid()
    rng = np.random.default_rng(42)
    values = np.zeros(grid.shape)
    for _ in range(4):  # arbitrary smooth nonnegative potential
        cx, cy = rng.uniform(15, 65), rng.uniform(8, 32)
        values += rng.uniform(0.05, 0.2) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 30.0)
    potential = Potential(grid, values)
    sources = SourceSet(
        np.column_stack([np.linspace(15, 65, 4), np.full(4, 36.0)]), 3.0
    )
    axis = TimeAxis(3.0, 12)
    settings = SolverSettings(substeps=5)
    data = diagonal_record(simulate_transfer(potential, sources, axis, settings))
    worst = 0.0
    for j in range(sources.count):
        mass = block_mass_from_data(source_record(data, j), axis.total_samples)
        snaps = leapfrog_snapshots(potential, sources, j, axis, settings, axis.n)
        gram = snapshot_gram(snaps[None], grid)
        worst = max(
            worst,
            np.abs(mass - gram).max() / np.abs(mass).max(),
        )
    elapsed = time.monotonic() - started
    report(
        1,
        "mass-from-data matches the snapshot Gram matrix",
        worst <= 1e-9 and elapsed < 30.0,
        f"max relative deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_zero_potential_round_trip():
    started = time.monotonic()
    grid = Grid2D(60, 30, 1.0, 1.0)
    zero = zero_potential(grid)
    sources = SourceSet(
        np.column_stack([np.linspace(10, 50, 5), np.full(5, 26.0)]), 2.0
    )
    axis = TimeAxis(2.5, 24)
    settings = SolverSettings(substeps=4)
    data = diagonal_record(simulate_transfer(zero, sources, axis, settings))
    background = simulate_background(grid, sources, axis, settings)
    worst_field = 0.0
    for j in range(sources.count):
        basis, basis0 = (
            cholesky_upper(block_mass_from_data(source_record(d, j), axis.total_samples))
            for d in (data, background.data)
        )
        transform = field_transform(basis, basis0, 1)
        synthesized = apply_transform(transform, background.fields[j : j + 1])[0]
        ref = background.fields[j]
        worst_field = max(worst_field, np.abs(synthesized - ref).max() / np.abs(ref).max())
    ctx = PipelineContext(
        grid, grid.coarsen(2), sources, axis, data, background, 1e-2, 1e-2, 1e-2, False
    )
    *_, final = stages(ctx, iterations=1)
    q_norm = np.abs(np.asarray(final.potential.values)).max()
    elapsed = time.monotonic() - started
    report(
        2,
        "zero-potential data reproduces background and a zero estimate",
        worst_field <= 1e-10 and q_norm <= 1e-8 and elapsed < 60.0,
        f"field dev {worst_field:.2e}, |q| {q_norm:.2e}, {elapsed:.1f}s",
    )


def test_c03_reciprocity():
    grid = Grid2D(60, 30, 1.0, 1.0)
    x, y = grid.meshgrid()
    values = 0.15 * np.exp(-((x - 30) ** 2 + (y - 12) ** 2) / 25.0)
    potential = Potential(grid, values)
    sources = SourceSet(
        np.column_stack([np.linspace(10, 50, 5), np.full(5, 26.0)]), 2.0
    )
    axis = TimeAxis(2.5, 20)
    settings = SolverSettings(substeps=4)
    data = simulate_transfer(potential, sources, axis, settings)
    defect = data.reciprocity_defect()
    report(
        3,
        "simulated full records are reciprocal",
        defect <= 1e-10,
        f"max relative asymmetry {defect:.2e}",
    )


def test_c04_born_linearization_order():
    grid = Grid2D(60, 30, 1.0, 1.0)
    inv_grid = grid.coarsen(2)
    xc, yc = inv_grid.meshgrid()
    residuals = {}
    for amp in (0.04, 0.02):
        q_c = amp * np.exp(-(((xc - 30) / 8.0) ** 2 + ((yc - 12) / 5.0) ** 2))
        q_c[q_c < 1e-10 * amp] = 0.0
        potential = Potential(grid, prolong(q_c, inv_grid, grid))
        sources = SourceSet(
            np.column_stack([np.linspace(8, 52, 6), np.full(6, 26.0)]), 2.5
        )
        axis = TimeAxis(2.0, 24)
        settings = SolverSettings(substeps=5)
        data = diagonal_record(simulate_transfer(potential, sources, axis, settings))
        background = simulate_background(grid, sources, axis, settings)
        system = assemble_system(
            background.antiderivatives[:, :, ::2, ::2],
            background.fields[:, :, ::2, ::2],
            identity_blocks(sources.count, axis.n),
            data,
            background.data,
            inv_grid,
            1e-2,
        )
        q_hat = solve_tsvd(system)
        residuals[amp] = float(
            np.linalg.norm(system.matrix @ q_hat.values.ravel() - system.rhs)
        )
    ratio = residuals[0.04] / residuals[0.02]
    report(
        4,
        "halving a small amplitude divides the Born data residual by ~4",
        3.0 <= ratio <= 5.0,
        f"residual ratio {ratio:.2f}",
    )


def test_c05_regularization_contract():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(5, 30))
        a = rng.standard_normal((size, size))
        sym = 0.5 * (a + a.T)
        out = regularize_spd(sym)
        lam = np.linalg.eigvalsh(sym)
        positive = lam[lam > 0]
        eps0 = float(np.sqrt(1e-12 * positive.max() * positive.min()))
        assert out.regularization.eps0 == pytest.approx(eps0, rel=1e-14)
        expected = np.sort(np.maximum(lam, eps0))
        got = np.sort(np.linalg.eigvalsh(out.matrix))
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
        cholesky_upper(out.matrix)  # must admit a factorization
    report(
        5,
        "eigenvalue thresholding matches max(lambda, eps0) and stays SPD",
        worst <= 1e-12,
        f"worst eigenvalue deviation {worst:.2e} over 50 matrices",
    )


def test_c06_lifting_beats_background(two_target_run):
    count = two_target_run.lifted_first.num_samples
    err_background = off_diagonal_error(
        two_target_run.ctx.background.data, two_target_run.true_mimo, count
    )
    err_lifted = off_diagonal_error(
        two_target_run.lifted_first, two_target_run.true_mimo, count
    )
    ratio = err_lifted / err_background
    elapsed = two_target_run.elapsed
    report(
        6,
        "lifted off-diagonals beat the background by 30%",
        err_lifted < err_background and ratio <= 0.7 and elapsed < 300.0,
        f"background {err_background:.3f} vs lifted {err_lifted:.3f} "
        f"(ratio {ratio:.3f}), fixture {elapsed:.0f}s",
    )


def test_c07_reconstruction_ordering(two_target_run):
    errors = two_target_run.errors
    e_born, e_siso, e_mimo = errors["born"], errors["siso"], errors["mimo-1"]
    gap_born = (e_born - e_siso) / e_born
    gap_siso = (e_siso - e_mimo) / e_siso
    report(
        7,
        "completion < plain data-driven < Born in relative L2",
        gap_born >= 0.05 and gap_siso >= 0.05,
        f"born {e_born:.3f} > siso {e_siso:.3f} > completed {e_mimo:.3f} "
        f"(gaps {gap_born * 100:.1f}%, {gap_siso * 100:.1f}%)",
    )


def test_c08_noise_robustness(box_runs):
    clean = box_runs["clean"].error
    noisy = box_runs["noisy"].error
    factor = noisy / clean
    report(
        8,
        "5% measurement noise costs less than a factor 2 in error",
        factor < 2.0,
        f"clean {clean:.3f}, noisy {noisy:.3f} (factor {factor:.2f})",
    )


def test_c09_iteration_benefit(two_target_run, three_object_run):
    deep_1 = three_object_run.reports["mimo-1"].region_rel_l2["deep"]
    deep_2 = three_object_run.reports["mimo-2"].region_rel_l2["deep"]
    e1 = two_target_run.errors["mimo-1"]
    e2 = two_target_run.errors["mimo-2"]
    change = abs(e2 - e1) / e1
    total = two_target_run.elapsed + three_object_run.elapsed
    report(
        9,
        "a second round helps the deepest of three objects, not two targets",
        deep_2 < deep_1 and change < 0.05 and total < 900.0,
        f"deep region {deep_1:.3f} -> {deep_2:.3f}; two-target change "
        f"{change * 100:.1f}%; runtime {total:.0f}s",
    )


def test_c10_pipeline_composition(tmp_path):
    config_text = """
[domain]
width = 40.0
height = 20.0
[simulation]
nx = 40
ny = 20
[sources]
count = 3
sigma = 2.0
depth = 3.0
first_x = 8.0
last_x = 32.0
[time]
tau = 2.0
n = 12
[solver]
substeps = 4
[noise]
level = 0.02
seed = 7
[model]
margin = 3.0
inclusions = blob
[inclusion blob]
shape = ellipse
x = 20.0
y = 10.0
width = 10.0
height = 5.0
amplitude = 0.05
"""
    config = tmp_path / "exp.cfg"
    config.write_text(config_text, encoding="utf-8")
    pipe_dir, chain_dir = tmp_path / "pipe", tmp_path / "chain"
    args = ["--config", str(config)]
    assert cli_main(["pipeline", *args, "--iterations", "1", "--out", str(pipe_dir)]) == 0
    assert cli_main(["simulate", *args, "--out", str(chain_dir)]) == 0
    assert cli_main(["invert", "--method", "lsl", *args, "--out", str(chain_dir)]) == 0
    assert cli_main(["lift", *args, "--out", str(chain_dir)]) == 0
    assert cli_main([
        "invert", "--method", "lsl", *args, "--out", str(chain_dir),
        "--data", str(chain_dir / "lifted.lslt"),
    ]) == 0
    final = (pipe_dir / "q_final.lslf").read_bytes()
    chained = (chain_dir / "q_mimo.lslf").read_bytes()
    report(
        10,
        "pipeline output is bit-identical to chained subcommands",
        final == chained,
        f"{len(final)} bytes compared",
    )
