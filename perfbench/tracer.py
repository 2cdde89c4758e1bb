"""Outside per-layer trace of one lslkit CLI invocation.

Run as a script, it imports lslkit, wraps every public function that
`lslkit.cli`, `lslkit.pipeline` and `lslkit.io` look up by name, calls
`lslkit.cli.main(argv)` in-process and writes the spans and counts as
JSON when main returns:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json --run-id r0 -- \
        pipeline --config src/lslkit/configs/two_targets.cfg --out run

A span is one wrapped call: name (`<layer>.<function>`), start, end,
parent span and run id. Counts that need the harness (sizing files,
counting kept singular values) run after the wrapped call returns, in a
`harness` span of their own, so no layer's self time contains them.
`core` gets no span: its helpers are called from inside lippmann and
pipeline under names the wrappers cannot reach.

`layer_metrics` turns the spans and counts of one run into the
per-layer metrics; importing this module does not import lslkit.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("config", "wavesim", "rom", "lippmann", "pipeline", "io", "cli")
TRACED_NAMESPACES = ("lslkit.cli", "lslkit.pipeline", "lslkit.io")

#: self time summed over these spans is reported as `<key>.s`
TIMED = {
    "config.parse_config": ("config.parse_config",),
    "wavesim.simulate_transfer": ("wavesim.simulate_transfer",),
    "wavesim.simulate_background": ("wavesim.simulate_background",),
    "rom.mass": ("rom.siso_mass_from_data", "rom.block_mass_from_data"),
    "rom.regularize_spd": ("rom.regularize_spd",),
    "rom.cholesky_upper": ("rom.cholesky_upper",),
    "rom.synthesize_internal": ("rom.synthesize_internal",),
    "lippmann.assemble_system": ("lippmann.assemble_system",),
    "lippmann.solve_tsvd": ("lippmann.solve_tsvd",),
    "lippmann.forward_lift": ("lippmann.forward_lift",),
    "pipeline.run_siso_step": ("pipeline.run_siso_step",),
    "pipeline.run_lift_step": ("pipeline.run_lift_step",),
    "pipeline.run_mimo_step": ("pipeline.run_mimo_step",),
    "pipeline.invert_born": ("pipeline.invert_born",),
    "pipeline.metrics": ("pipeline.metrics",),
    "io.write": ("io.save_field", "io.save_transfer", "io.save_snapshot_sets", "io.render_pgm"),
    "io.read": ("io.load_field", "io.load_transfer", "io.load_snapshot_sets"),
}

COUNTS = (
    "wavesim.fine_steps",
    "rom.regularize_spd.calls",
    "rom.regularize_spd.clipped",
    "rom.cholesky_upper.calls",
    "rom.cholesky_upper.failed",
    "lippmann.tsvd_kept",
    "lippmann.tsvd_computed",
    "lippmann.lift_pairs",
    "io.bytes_written",
    "io.files_written",
    "io.bytes_read",
    "io.files_read",
)

#: time metrics, also reported under `st.` for the single-threaded run
TIME_METRICS = (
    tuple(f"{key}.s" for key in TIMED)
    + tuple(f"{layer}.self.s" for layer in LAYERS)
    + ("cli.main.s", "trace.wall_s")
)


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.system_mb = 0.0
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                self.counts[f"{name}.failed"] += 1
                raise
            self._close(span)
            if hook is not None:
                harness = self._open("harness")
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._close(harness)
            return result

        return traced

    def install(self) -> None:
        """Wrap each public lslkit function at the name its caller looks up."""
        import importlib

        for namespace in TRACED_NAMESPACES:
            module = importlib.import_module(namespace)
            for attr, fn in list(vars(module).items()):
                origin = getattr(fn, "__module__", "") or ""
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not origin.startswith("lslkit.")):
                    continue
                layer = origin.split(".", 1)[1]
                if layer in LAYERS:
                    setattr(module, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))

    def dump(self, path: str) -> None:
        payload = {
            "run": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "system_mb": self.system_mb,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _file_size(args) -> int:
    return os.path.getsize(args["path"])


def _count_write(tracer, args, result):
    tracer.counts["io.files_written"] += 1
    tracer.counts["io.bytes_written"] += _file_size(args)


def _count_read(tracer, args, result):
    tracer.counts["io.files_read"] += 1
    tracer.counts["io.bytes_read"] += _file_size(args)


def _fine_steps_transfer(tracer, args, result):
    tracer.counts["wavesim.fine_steps"] += (
        args["sources"].count * args["axis"].total_samples * args["settings"].substeps
    )


def _fine_steps_background(tracer, args, result):
    # one MIMO record of 2n-1 samples plus the u0 and w0 stacks of n samples each
    axis = args["axis"]
    tracer.counts["wavesim.fine_steps"] += (
        args["sources"].count * (axis.total_samples + 2 * axis.n) * args["settings"].substeps
    )


def _clipped(tracer, args, result):
    record = result.regularization
    tracer.counts["rom.regularize_spd.clipped"] += int(record is not None and record.applied)


def _system_size(tracer, args, result):
    rows, cols = result.matrix.shape
    tracer.system_mb = max(tracer.system_mb, rows * cols * 8 / 2**20)


def _tsvd_rank(tracer, args, result):
    import numpy as np

    system = args["system"]
    s = np.linalg.svd(system.matrix, compute_uv=False)
    tracer.counts["lippmann.tsvd_computed"] += int(s.size)
    tracer.counts["lippmann.tsvd_kept"] += int(np.count_nonzero(s >= system.tsvd_threshold * s[0]))


def _lift_pairs(tracer, args, result):
    k = len(args["fields"])
    tracer.counts["lippmann.lift_pairs"] += k * (k - 1)


HOOKS = {
    "io.save_field": _count_write,
    "io.save_transfer": _count_write,
    "io.render_pgm": _count_write,
    "io.load_field": _count_read,
    "io.load_transfer": _count_read,
    "wavesim.simulate_transfer": _fine_steps_transfer,
    "wavesim.simulate_background": _fine_steps_background,
    "rom.regularize_spd": _clipped,
    "lippmann.assemble_system": _system_size,
    "lippmann.solve_tsvd": _tsvd_rank,
    "lippmann.forward_lift": _lift_pairs,
}


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one run made of one dump per CLI process."""
    by_name: dict[str, float] = defaultdict(float)
    harness = main_total = system_mb = 0.0
    counts: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            by_name[span["name"]] += own
            if span["name"] == "harness":
                harness += span["end"] - span["start"]
            elif span["name"] == "cli.main":
                main_total += span["end"] - span["start"]
        counts.update(dump["counts"])
        system_mb = max(system_mb, dump["system_mb"])
    out = {f"{key}.s": sum(by_name[n] for n in names) for key, names in TIMED.items()}
    for layer in LAYERS:
        out[f"{layer}.self.s"] = sum(v for n, v in by_name.items() if n.startswith(layer + "."))
    # main's own duration less the harness work done inside it
    out["cli.main.s"] = main_total - harness
    out.update({name: float(counts[name]) for name in COUNTS})
    computed = counts["lippmann.tsvd_computed"]
    out["lippmann.tsvd_kept_ratio"] = counts["lippmann.tsvd_kept"] / computed if computed else 0.0
    out["lippmann.system_mb"] = system_mb
    out["trace.harness_s"] = harness
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file written when the run ends")
    parser.add_argument("--run-id", required=True, help="identifier shared by the run's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then lslkit arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    tracer.install()
    import lslkit.cli

    try:
        return lslkit.cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
