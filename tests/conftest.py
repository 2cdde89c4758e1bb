"""Shared fixtures: the desk-scale experiment runs used by many tests.

Session-scoped fixtures run the bundled configurations once and expose
every intermediate (reconstructions per stage, lifted data, oracle MIMO
records, timings) so individual tests stay cheap.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from lslkit.config import bundled_config_path, parse_config
from lslkit.core import Potential, restrict
from lslkit.pipeline import PipelineContext, invert_born, metrics, stages
from lslkit.wavesim import add_noise, simulate_transfer
from reference import background, diagonal_record


def build_context(cfg, noise_level=None):
    """Simulate a configuration once: its PipelineContext and measured record.

    The measured record is the diagonal of the full true-medium record,
    as `lslkit simulate` writes it; the full record comes back as the
    oracle for the completed data, and the background (`reference.background`)
    with the simulation grid's u0 and w0 stacks for tests that read them.
    """
    q_true = cfg.true_potential()
    grid = cfg.sim_grid()
    sources = cfg.sources()
    axis = cfg.axis()
    settings = cfg.settings()
    true_mimo = simulate_transfer(q_true, sources, axis, settings)
    level = cfg.noise_level if noise_level is None else noise_level
    data = add_noise(diagonal_record(true_mimo), level, cfg.seed)
    bg = background(grid, sources, axis, settings)
    ctx = PipelineContext(
        grid,
        cfg.inv_grid(),
        sources,
        axis,
        settings,
        bg.data,
        tsvd=cfg.tsvd,
        positivity=cfg.positivity,
    )
    return ctx, data, q_true, true_mimo, bg


def reference_potential(ctx, q_true):
    return Potential(ctx.inv_grid, restrict(q_true.values, q_true.grid, ctx.inv_grid))


def source_values(data, j):
    """Source j's diagonal series as the (1, 1, T) values of a full record:
    its scalar ROM input, as `pipeline.internal_transform` passes it."""
    return data.values[j : j + 1, j : j + 1]


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
    ctx, measured, q_true, true_mimo, bg = build_context(cfg)
    q_ref = reference_potential(ctx, q_true)
    born_potential, born_residual = invert_born(ctx, measured)
    records = list(stages(ctx, measured, iterations=2))
    elapsed = time.monotonic() - started
    errors = {"born": metrics(born_potential, q_ref).global_rel_l2}
    potentials = {"born": born_potential}
    for record in records:
        errors[record.name] = metrics(record.potential, q_ref).global_rel_l2
        potentials[record.name] = record.potential
    return SimpleNamespace(
        cfg=cfg,
        ctx=ctx,
        background=bg,
        measured=measured,
        q_true=q_true,
        q_ref=q_ref,
        true_mimo=true_mimo,
        lifted_first=records[1].data,
        siso_transform=records[0].transform,
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
        ctx, measured, q_true, *_ = build_context(cfg, noise_level=level)
        q_ref = reference_potential(ctx, q_true)
        *_, record = stages(ctx, measured, iterations=1)
        results[label] = SimpleNamespace(
            ctx=ctx,
            error=metrics(record.potential, q_ref).global_rel_l2,
        )
    results["elapsed"] = time.monotonic() - started
    results["cfg"] = cfg
    return results


@pytest.fixture(scope="session")
def three_object_run():
    """Three staggered targets, two completion rounds."""
    started = time.monotonic()
    cfg = parse_config(bundled_config_path("three_objects"))
    ctx, measured, q_true, *_ = build_context(cfg)
    q_ref = reference_potential(ctx, q_true)
    regions = cfg.regions()
    records = list(stages(ctx, measured, iterations=2))
    reports = {rec.name: metrics(rec.potential, q_ref, regions) for rec in records}
    return SimpleNamespace(
        cfg=cfg,
        ctx=ctx,
        q_ref=q_ref,
        reports=reports,
        elapsed=time.monotonic() - started,
    )
