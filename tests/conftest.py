"""Shared fixtures: the desk-scale experiment runs used by many tests.

Session-scoped fixtures run the bundled configurations once and expose
every intermediate (reconstructions per stage, lifted data, oracle MIMO
records, timings) so individual tests stay cheap.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import lslkit as lk
from lslkit.config import bundled_config_path, parse_config
from lslkit.core import restrict
from lslkit.pipeline import (
    PipelineContext,
    invert_born,
    metrics,
    run_lift_step,
    run_mimo_step,
    run_siso_step,
)
from lslkit.wavesim import simulate_background, simulate_transfer


def build_context(cfg, noise_level=None, threads=1, with_true_mimo=True):
    """Simulate a configuration and wrap everything in a PipelineContext."""
    q_true = cfg.true_potential()
    grid = cfg.sim_grid()
    sources = cfg.sources()
    axis = cfg.axis()
    settings = cfg.settings()
    data = simulate_transfer(q_true, sources, axis, settings, mode="siso", threads=threads)
    level = cfg.noise_level if noise_level is None else noise_level
    data = lk.add_noise(data, level, cfg.seed)
    background = simulate_background(grid, sources, axis, settings)
    ctx = PipelineContext(
        grid,
        cfg.inv_grid(),
        sources,
        axis,
        settings,
        data,
        background,
        tsvd_siso=cfg.tsvd_siso,
        tsvd_mimo=cfg.tsvd_mimo,
        tsvd_born=cfg.tsvd_born,
        threads=threads,
    )
    true_mimo = None
    if with_true_mimo:
        true_mimo = simulate_transfer(q_true, sources, axis, settings, mode="mimo", threads=threads)
    return ctx, q_true, true_mimo


def reference_potential(ctx, q_true):
    return lk.Potential(ctx.inv_grid, restrict(q_true.values, q_true.grid, ctx.inv_grid))


def off_diagonal_error(data, oracle, count):
    """Relative Frobenius distance of off-diagonal series over `count` samples."""
    off = ~np.eye(oracle.num_sources, dtype=bool)
    truth = oracle.values[off][:, :count]
    return float(np.linalg.norm(data.values[off][:, :count] - truth) / np.linalg.norm(truth))


@pytest.fixture(scope="session")
def two_target_run():
    """Full two-target desk experiment: born, two completion rounds, lift data."""
    started = time.monotonic()
    cfg = parse_config(bundled_config_path("two_targets"))
    ctx, q_true, true_mimo = build_context(cfg)
    q_ref = reference_potential(ctx, q_true)
    born_potential, born_residual = invert_born(ctx)
    state = run_siso_step(ctx)
    siso_fields = state.fields
    state = run_lift_step(ctx, state)
    lifted_first = state.data
    state = run_mimo_step(ctx, state)
    mimo_fields = state.fields
    state = run_lift_step(ctx, state)
    state = run_mimo_step(ctx, state)
    elapsed = time.monotonic() - started
    errors = {"born": metrics(born_potential, q_ref).global_rel_l2}
    potentials = {"born": born_potential}
    for record in state.history:
        errors[record.name] = metrics(record.potential, q_ref).global_rel_l2
        potentials[record.name] = record.potential
    return SimpleNamespace(
        cfg=cfg,
        ctx=ctx,
        q_true=q_true,
        q_ref=q_ref,
        true_mimo=true_mimo,
        lifted_first=lifted_first,
        siso_fields=siso_fields,
        mimo_fields=mimo_fields,
        state=state,
        errors=errors,
        potentials=potentials,
        born_residual=born_residual,
        elapsed=elapsed,
    )


@pytest.fixture(scope="session")
def box_runs():
    """Box model, clean and with the configured 5% noise."""
    started = time.monotonic()
    cfg = parse_config(bundled_config_path("box"))
    results = {}
    for label, level in (("clean", 0.0), ("noisy", cfg.noise_level)):
        ctx, q_true, _ = build_context(cfg, noise_level=level, with_true_mimo=False)
        q_ref = reference_potential(ctx, q_true)
        state = run_siso_step(ctx)
        state = run_lift_step(ctx, state)
        state = run_mimo_step(ctx, state)
        results[label] = SimpleNamespace(
            ctx=ctx,
            state=state,
            error=metrics(state.q_est, q_ref).global_rel_l2,
        )
    results["elapsed"] = time.monotonic() - started
    results["cfg"] = cfg
    return results


@pytest.fixture(scope="session")
def three_object_run():
    """Three staggered targets, two completion rounds."""
    started = time.monotonic()
    cfg = parse_config(bundled_config_path("three_objects"))
    ctx, q_true, _ = build_context(cfg, with_true_mimo=False)
    q_ref = reference_potential(ctx, q_true)
    regions = cfg.regions()
    state = run_siso_step(ctx)
    state = run_lift_step(ctx, state)
    state = run_mimo_step(ctx, state)
    state = run_lift_step(ctx, state)
    state = run_mimo_step(ctx, state)
    reports = {rec.name: metrics(rec.potential, q_ref, regions) for rec in state.history}
    return SimpleNamespace(
        cfg=cfg,
        ctx=ctx,
        q_ref=q_ref,
        state=state,
        reports=reports,
        elapsed=time.monotonic() - started,
    )
