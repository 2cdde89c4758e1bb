"""Command-line surface.

Subcommands: simulate, invert, lift, pipeline, compare, render. Global
flags --config/--seed/--threads/--out apply to each. Exit codes: 0 on
success, 2 for configuration problems, 3 for numerical failures, 4 for
file/I-O problems.

Artifact names inside the output directory:

    q_true.lslf            true model on the simulation grid
    siso.lslt              measured diagonal record (noise applied here)
    mimo.lslt              clean full record, reference/oracle use
    q_born.lslf            Born reconstruction
    q_siso.lslf            first-pass reconstruction
    lifted.lslt            completed data (lifted_2.lslt, ... per round)
    q_mimo.lslf            post-completion reconstruction (q_mimo_2.lslf, ...)
    q_final.lslf           last stage of `pipeline`, plus metrics.txt

Nothing else is stored. The zero-potential background is a function of
the config and is recomputed in closed form by every command that needs
it; internal fields are re-synthesized from the record they came from
(`lift --data`). `pipeline` is byte-identical to chaining simulate,
invert, lift and invert by hand with the same config and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as lio
from .config import ExperimentConfig, parse_config
from .core import Potential, TransferData
from .errors import CONFIG_ERRORS, NUMERICAL_ERRORS, FormatError
from .pipeline import (
    PipelineContext,
    PipelineState,
    internal_fields,
    invert_born,
    metrics,
    run_lift_step,
    run_mimo_step,
    run_siso_step,
)
from .wavesim import add_noise, simulate_background, simulate_transfer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment configuration file")
    common.add_argument("--seed", type=int, default=None, help="override the noise seed")
    common.add_argument("--threads", type=int, default=1, help="worker thread cap")
    common.add_argument("--out", default=None, help="override the output directory")

    parser = argparse.ArgumentParser(prog="lslkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common], help="emit the true model and data records")

    p_invert = sub.add_parser("invert", parents=[common], help="reconstruct the potential")
    p_invert.add_argument("--method", choices=("born", "lsl"), required=True)
    p_invert.add_argument("--data", default=None, help="transfer record (default siso.lslt)")
    p_invert.add_argument("--q-out", default=None, help="reconstruction output file")
    p_invert.add_argument("--positivity", action="store_true", help="clamp negative values")

    p_lift = sub.add_parser("lift", parents=[common], help="complete off-diagonal data")
    p_lift.add_argument("--q", default=None, help="potential estimate (default q_siso.lslf)")
    p_lift.add_argument("--data", default=None,
                        help="record whose internal fields go with --q (default siso.lslt)")
    p_lift.add_argument("--data-out", default=None, help="output record (default lifted.lslt)")

    p_pipe = sub.add_parser("pipeline", parents=[common], help="simulate and invert end to end")
    p_pipe.add_argument("--iterations", type=int, default=None,
                        help="completion rounds (default from config)")
    p_pipe.add_argument("--positivity", action="store_true", help="clamp negative values")

    p_cmp = sub.add_parser("compare", parents=[common], help="error report against a truth field")
    p_cmp.add_argument("--truth", required=True, help="reference field file")
    p_cmp.add_argument("--in", dest="input", required=True, help="reconstruction field file")

    p_render = sub.add_parser("render", parents=[common], help="render a field to 16-bit PGM")
    p_render.add_argument("--in", dest="input", required=True, help="field file")
    p_render.add_argument("--out-file", default=None, help="image path (default input + .pgm)")
    p_render.add_argument("--clip-lo", type=float, default=1.0, help="low clip percentile")
    p_render.add_argument("--clip-hi", type=float, default=99.0, help="high clip percentile")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        config.validate()
    if args.out is not None:
        config = replace(config, output_directory=args.out)
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _context(config: ExperimentConfig, measured: TransferData, threads: int) -> PipelineContext:
    grid = config.sim_grid()
    sources = config.sources()
    axis = config.axis()
    settings = config.settings()
    return PipelineContext(
        grid,
        config.inv_grid(),
        sources,
        axis,
        settings,
        measured,
        simulate_background(grid, sources, axis, settings),
        tsvd_siso=config.tsvd_siso,
        tsvd_mimo=config.tsvd_mimo,
        tsvd_born=config.tsvd_born,
        threads=threads,
    )


def _save_potential(path: Path, potential: Potential, positivity: bool) -> None:
    values = np.asarray(potential.values)
    if positivity:
        values = np.maximum(values, 0.0)
    lio.save_field(path, potential.grid, values)


def _simulate_artifacts(config: ExperimentConfig, out: Path, threads: int) -> TransferData:
    """Shared by `simulate` and `pipeline` so both produce identical bytes."""
    q_true = config.true_potential()
    sources = config.sources()
    axis = config.axis()
    settings = config.settings()
    lio.save_field(out / "q_true.lslf", q_true.grid, q_true.values)
    mimo = simulate_transfer(q_true, sources, axis, settings, mode="mimo", threads=threads)
    lio.save_transfer(out / "mimo.lslt", mimo)
    siso = simulate_transfer(q_true, sources, axis, settings, mode="siso", threads=threads)
    siso = add_noise(siso, config.noise_level, config.seed)
    lio.save_transfer(out / "siso.lslt", siso)
    return siso


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    _simulate_artifacts(config, out, args.threads)
    print(f"wrote true model and data records to {out}")
    return EXIT_OK


def _cmd_invert(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    measured = lio.load_transfer(out / "siso.lslt")
    data_path = Path(args.data) if args.data else out / "siso.lslt"
    data = lio.load_transfer(data_path)
    ctx = _context(config, measured, args.threads)
    positivity = args.positivity or config.positivity

    if args.method == "born":
        potential, residual = invert_born(ctx)
        q_path = Path(args.q_out) if args.q_out else out / "q_born.lslf"
        _save_potential(q_path, potential, positivity)
        print(f"born reconstruction -> {q_path} (residual {residual:.3e})")
        return EXIT_OK

    if data.is_full:
        state = PipelineState(0, data, None, None, data.num_samples)
        state = run_mimo_step(ctx, state)
        q_path = Path(args.q_out) if args.q_out else out / "q_mimo.lslf"
    else:
        state = run_siso_step(replace(ctx, measured=data))
        q_path = Path(args.q_out) if args.q_out else out / "q_siso.lslf"
    _save_potential(q_path, state.q_est, positivity)
    record = state.history[-1]
    print(f"lsl reconstruction -> {q_path} (stage {record.name}, N={record.active_length}, "
          f"residual {record.residual:.3e})")
    return EXIT_OK


def _cmd_lift(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    measured = lio.load_transfer(out / "siso.lslt")
    q_path = Path(args.q) if args.q else out / "q_siso.lslf"
    data_path = Path(args.data) if args.data else out / "siso.lslt"
    grid, values = lio.load_field(q_path)
    data = lio.load_transfer(data_path)
    ctx = _context(config, measured, args.threads)
    fields = internal_fields(ctx, data)
    state = PipelineState(0, data, Potential(grid, values), tuple(fields),
                          fields[0].num_samples)
    state = run_lift_step(ctx, state)
    data_out = Path(args.data_out) if args.data_out else out / "lifted.lslt"
    lio.save_transfer(data_out, state.data)
    print(f"lifted record ({state.data.num_samples} samples) -> {data_out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    iterations = config.iterations if args.iterations is None else args.iterations
    positivity = args.positivity or config.positivity
    siso = _simulate_artifacts(config, out, args.threads)
    ctx = _context(config, siso, args.threads)

    state = run_siso_step(ctx)
    _save_potential(out / "q_siso.lslf", state.q_est, positivity)
    for round_index in range(1, iterations + 1):
        suffix = "" if round_index == 1 else f"_{round_index}"
        state = run_lift_step(ctx, state)
        lio.save_transfer(out / f"lifted{suffix}.lslt", state.data)
        state = run_mimo_step(ctx, state)
        _save_potential(out / f"q_mimo{suffix}.lslf", state.q_est, positivity)
    _save_potential(out / "q_final.lslf", state.q_est, positivity)

    q_true = config.true_potential()
    regions = config.regions()
    lines = []
    for record in state.history:
        report = metrics(record.potential, q_true, regions)
        line = (f"stage={record.name} N={record.active_length} "
                f"residual={record.residual:.6e} rel_l2={report.global_rel_l2:.6f}")
        for name, value in report.region_rel_l2.items():
            line += f" {name}={value:.6f}"
        lines.append(line)
        print(line)
    (out / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"final reconstruction -> {out / 'q_final.lslf'}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _load_config(args)
    grid_t, truth = lio.load_field(args.truth)
    grid_e, estimate = lio.load_field(args.input)
    report = metrics(Potential(grid_e, estimate), Potential(grid_t, truth), config.regions())
    print(f"global_rel_l2={report.global_rel_l2:.6f}")
    for name in report.region_rel_l2:
        print(f"region {name}: rel_l2={report.region_rel_l2[name]:.6f} "
              f"peak_offset={report.peak_offsets[name]:.3f}")
    return EXIT_OK


def _cmd_render(args) -> int:
    _load_config(args)
    _, values = lio.load_field(args.input)
    out_file = Path(args.out_file) if args.out_file else Path(args.input).with_suffix(".pgm")
    lio.render_pgm(values, out_file, (args.clip_lo, args.clip_hi))
    print(f"rendered {args.input} -> {out_file}")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "invert": _cmd_invert,
    "lift": _cmd_lift,
    "pipeline": _cmd_pipeline,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
