"""Command-line surface.

Subcommands: simulate, invert, lift, pipeline, compare, render. Global
flags --config/--seed/--out apply to each, and `_load_config` applies
every override to the config. Exit codes: 0 on success, 2 for
configuration problems, 3 for numerical failures, 4 for file/I-O problems.

Artifact names inside the output directory:

    q_true.lslf            true model on the simulation grid
    siso.lslt              measured diagonal record: the diagonal of mimo.lslt
                           with noise applied
    mimo.lslt              clean full record, reference/oracle use
    q_born.lslf            Born reconstruction
    q_siso.lslf            first-pass reconstruction
    lifted.lslt            completed data (lifted_2.lslt, ... per round)
    q_mimo.lslf            post-completion reconstruction (q_mimo_2.lslf, ...)
    q_final.lslf           last stage of `pipeline`, plus metrics.txt

`invert` and `lift` read one record each, --data (default siso.lslt):
every `invert` method fits its measured diagonal, and `lift` copies it.
`invert --method lsl` runs one LSL step (`pipeline.run_lsl_step`): the
SISO step on a diagonal-only record, a MIMO step on a lifted one, whose
round follows from the record's length (`pipeline.stage_round`).
`pipeline` writes each record that `pipeline.stages` yields; round r's
lifted record goes to lifted_r.lslt beside q_mimo_r.lslf once its
inversion succeeds. Default names follow the round in every command:
`invert` writes the q of its record's round, `lift` reads the q of the
round of --data and writes the record of the next round.
`--iterations` is validated like `inversion.iterations`, before
anything is simulated: `_load_config` re-runs `validate` after each
override. Every record `invert` and `lift` read must fit the config:
its loader checks the source count and at most 2n-1 samples, and then
`pipeline`'s gate (`_check_fit`) the rest, before any ROM or background
is evaluated and before `lift` reads --q. A record that does not fit,
or whose diagonal is not measured, exits 2 and writes nothing (`errors`).

Nothing else is stored. The zero-potential background is a function of
the config, recomputed in closed form by every command: its record F0
(`wavesim.simulate_background`) when the command starts, and its u0 and
w0 by the step that reads them, on the grid it reads and over the
samples its ROM transform T reads. Every inversion evaluates the
inversion grid's stacks (`wavesim.background_stacks`): it holds the u0
stack, evaluates w0 one source at a time, and frees u0 before the TSVD.
Every lift, after its inputs are loaded, evaluates the simulation
grid's u0 and w0 one band of rows at a time (`wavesim.BackgroundBands`),
so no simulation-grid stack exists. No stack outlives its step, in
`pipeline` as in the chain.
The internal fields that go with an estimate are the background times
T of the record they came from (`lift --data`), and T is recomputed
from that record. `pipeline` is byte-identical to chaining simulate,
invert, lift and invert by hand with the same config and seed, and
makes the same steps.
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
from .errors import CONFIG_ERRORS, NUMERICAL_ERRORS, ConfigurationError, FormatError
from .pipeline import (
    PipelineContext,
    internal_transform,
    invert_born,
    metrics,
    run_lift_step,
    run_lsl_step,
    stage_round,
    stages,
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
    p_lift.add_argument("--q", default=None, help="potential estimate (default: --data's round)")
    p_lift.add_argument("--data", default=None,
                        help="record whose internal fields go with --q (default siso.lslt)")
    p_lift.add_argument("--data-out", default=None, help="output record (default: its round)")

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
    """The config with each override the command has (--positivity only
    switches it on), validated after each one, before any output."""
    config = parse_config(args.config)
    flags = {"seed": args.seed, "output_directory": args.out,
             "positivity": getattr(args, "positivity", False) or None,
             "iterations": getattr(args, "iterations", None)}
    for key, value in flags.items():
        if value is not None:
            config = replace(config, **{key: value})
            config.validate()
    return config


def _names(round_index: int) -> tuple[str, str]:
    """The q and lifted record file names of a round, as `pipeline` writes them."""
    suffix = "" if round_index <= 1 else f"_{round_index}"
    return f"q_{'mimo' if round_index else 'siso'}{suffix}.lslf", f"lifted{suffix}.lslt"


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _context(config: ExperimentConfig) -> PipelineContext:
    """The context of one command: F0, and no background stack (a step
    evaluates its own)."""
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
        simulate_background(grid, sources, axis, settings),
        tsvd=config.tsvd,
        positivity=config.positivity,
    )


def _save_potential(path: Path, potential: Potential) -> None:
    lio.save_field(path, potential.grid, potential.values)


def _simulate_artifacts(config: ExperimentConfig, out: Path) -> TransferData:
    """Shared by `simulate` and `pipeline` so both produce identical bytes;
    the measured record is the diagonal of the one true-medium simulation."""
    q_true = config.true_potential()
    sources = config.sources()
    axis = config.axis()
    settings = config.settings()
    lio.save_field(out / "q_true.lslf", q_true.grid, q_true.values)
    mimo = simulate_transfer(q_true, sources, axis, settings)
    lio.save_transfer(out / "mimo.lslt", mimo)
    siso = TransferData(mimo.values, np.diag(np.diag(mimo.mask)), mimo.tau)
    siso = add_noise(siso, config.noise_level, config.seed)
    lio.save_transfer(out / "siso.lslt", siso)
    return siso


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    _simulate_artifacts(config, out)
    print(f"wrote true model and data records to {out}")
    return EXIT_OK


def _cmd_invert(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    path = Path(args.data) if args.data else out / "siso.lslt"
    data = lio.load_transfer(path, config.source_count, config.axis())
    ctx = _context(config)

    if args.method == "born":
        potential, residual = invert_born(ctx, data)
        name, summary = "q_born.lslf", f"residual {residual:.3e}"
    else:
        record = run_lsl_step(ctx, data)
        potential, name = record.potential, _names(record.round)[0]
        summary = f"stage {record.name}, N={record.active_length}, residual {record.residual:.3e}"
    q_path = Path(args.q_out) if args.q_out else out / name
    _save_potential(q_path, potential)
    print(f"{args.method} reconstruction -> {q_path} ({summary})")
    return EXIT_OK


def _cmd_lift(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    path = Path(args.data) if args.data else out / "siso.lslt"
    data = lio.load_transfer(path, config.source_count, config.axis())
    ctx = _context(config)
    transform = internal_transform(ctx, data)  # the record's gate, before --q is read
    q_path = Path(args.q) if args.q else out / _names(stage_round(ctx, data))[0]
    grid, values = lio.load_field(q_path)
    lifted = run_lift_step(ctx, Potential(grid, values), data, transform)
    data_out = Path(args.data_out) if args.data_out else out / _names(stage_round(ctx, lifted))[1]
    lio.save_transfer(data_out, lifted)
    print(f"lifted record ({lifted.num_samples} samples) -> {data_out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    measured = _simulate_artifacts(config, out)
    ctx = _context(config)
    q_true = config.true_potential()
    regions = config.regions()

    lines = []
    for record in stages(ctx, measured, config.iterations):
        q_name, lifted_name = _names(record.round)
        if record.round:
            lio.save_transfer(out / lifted_name, record.data)
        _save_potential(out / q_name, record.potential)
        report = metrics(record.potential, q_true, regions)
        line = (f"stage={record.name} N={record.active_length} "
                f"residual={record.residual:.6e} rel_l2={report.global_rel_l2:.6f}")
        for name, value in report.region_rel_l2.items():
            line += f" {name}={value:.6f}"
        lines.append(line + "\n")
    _save_potential(out / "q_final.lslf", record.potential)
    print("".join(lines), end="")
    (out / "metrics.txt").write_text("".join(lines), encoding="utf-8")
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
    lo, hi = args.clip_lo, args.clip_hi
    for flag, value in (("--clip-lo", lo), ("--clip-hi", hi)):
        if not 0.0 <= value <= 100.0:
            raise ConfigurationError(f"{flag} {value} must lie in [0, 100]")
    if not lo < hi:
        raise ConfigurationError(f"--clip-lo {lo} must lie below --clip-hi {hi}")
    _, values = lio.load_field(args.input)
    out_file = Path(args.out_file) if args.out_file else Path(args.input).with_suffix(".pgm")
    lio.render_pgm(values, out_file, (lo, hi))
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
