#!/usr/bin/env python3
"""Benchmark of the lslkit command line on three desk workloads.

Run from the root of a checkout (no install needed, `src` is put on the
children's PYTHONPATH):

    python3 perfbench/run.py --workload two_targets.pipeline --seed 1 --seconds 30 --trace 0

`--trace 0` runs the workload as a user does: one `python3 -m lslkit`
process per CLI invocation, one at a time (closed loop, one client),
repeated until `--seconds` would be exceeded, and reports the end-to-end
metrics. `--trace 1` instead runs every invocation under
`perfbench/tracer.py` (in-process, timing wrappers around each layer),
once at the default BLAS threading and once with the BLAS pool pinned to
one thread (`st.` metrics), plus one untraced run to size the tracing
overhead, and reports the per-layer metrics. Every run's outputs are
checked (check.py). Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The full result, with run metadata, is also written to
`.perfbench_out/<workload>.trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
CONFIGS = SRC / "lslkit" / "configs"
WORK = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 150.0
MIB = 2**20

SETUP_CODE = "import sys, lslkit.cli; from lslkit.config import parse_config; parse_config(sys.argv[1])"

#: end-to-end metric -> unit; each is the median over the runs made in --seconds
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "disk_mb_written": "MiB",
    "files_written": "count",
    "final_rel_l2": "ratio",
}

STAGES = ("born", "siso", "mimo-1", "mimo-2")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    staged: bool

    def commands(self, out: Path, seed: int | None) -> list[list[str]]:
        common = ["--config", str(self.config), "--out", str(out)]
        if seed is not None:
            common += ["--seed", str(seed)]
        if not self.staged:
            return [["pipeline", *common]]
        return [
            ["simulate", *common],
            ["invert", *common, "--method", "born"],
            ["invert", *common, "--method", "lsl"],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("two_targets.pipeline", CONFIGS / "two_targets.cfg", staged=False),
        Workload("three_objects.pipeline", CONFIGS / "three_objects.cfg", staged=False),
        Workload("box.staged", CONFIGS / "box.cfg", staged=True),
        # Full scale: refused by the memory pre-flight below ~8.4 GiB available.
        Workload("two_targets_full.pipeline", CONFIGS / "two_targets_full.cfg", staged=False),
    )
}


@dataclass(frozen=True)
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mib: float


@dataclass(frozen=True)
class Sample:
    """One run of a workload: its processes, timings and output check."""

    procs: list[Proc]
    wall: float
    rel: dict[str, float]
    problems: list[str]
    disk_mib: float
    files: int

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(blas_threads: int | None = None) -> dict[str, str]:
    """Inherited environment minus BLAS thread caps, `src` first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env.update({k: str(blas_threads) for k in BLAS_THREAD_VARS})
    return env


def run_process(argv: list[str], env: dict[str, str], log: Path) -> Proc:
    """Run to exit; wall time from launch, CPU and peak RSS from wait4."""
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(workload: Workload, config: check.WorkloadConfig, seed: int | None,
                 env: dict[str, str], references: dict, spans_dir: Path | None = None) -> Sample:
    """Run the workload's CLI invocations one after another and check the outputs.

    With `spans_dir`, each invocation runs under the tracer and leaves its
    spans there as `<index>.json`.
    """
    out = fresh_dir(WORK / "run")
    log = WORK / "stderr.log"
    commands = workload.commands(out, seed)
    procs = []
    start = time.perf_counter()
    for index, argv in enumerate(commands):
        if spans_dir is None:
            prefix = [sys.executable, "-m", "lslkit"]
        else:
            prefix = [sys.executable, str(HERE / "tracer.py"), "--spans",
                      str(spans_dir / f"{index}.json"), "--run-id", spans_dir.name, "--"]
        procs.append(run_process(prefix + argv, env, log))
        if procs[-1].code != 0:
            break
    wall = time.perf_counter() - start

    problems = [f"`lslkit {argv[0]}` exited with {p.code}, see {log}"
                for p, argv in zip(procs, commands) if p.code != 0]
    rel, found = check.check_outputs(workload.name, config, workload.staged, out, seed, references)
    files = [p for p in out.rglob("*") if p.is_file()]
    return Sample(procs, wall, rel, problems + found,
                  sum(p.stat().st_size for p in files) / MIB, len(files))


def repeat_until(seconds: float, body) -> list:
    """Call body() at least once, and again while the next call is expected to end in time."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def measure_setup(config: Path, env: dict[str, str],
                  repeats: int = SETUP_REPEATS) -> tuple[list[float], dict]:
    """Fresh-process import and config parse, after one warm-up that also probes versions."""
    probe = subprocess.run([sys.executable, str(HERE / "probe.py"), str(config)], env=env,
                           capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"probe failed: {probe.stderr.strip()}")
    info = json.loads(probe.stdout.splitlines()[-1])
    log = WORK / "stderr.log"
    times = [run_process([sys.executable, "-c", SETUP_CODE, str(config)], env, log).wall
             for _ in range(repeats)]
    return times, info


def metadata(seed: int | None, config: check.WorkloadConfig, info: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "seed": seed,
        "config_seed": config.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB,
        "ram_available_mib": check.available_ram_bytes() / MIB,
        "machine": platform.machine(),
        **info,
    }


def tail_summary(values: list[float]) -> str:
    """Median plus the highest percentile that leaves at least ten samples above it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}, n={n}"
    if n >= 11:
        p = 100 * (n - 10) // n
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    else:
        text += f", max {max(values):.4f} (no tail percentile: fewer than 11 samples)"
    return text


def untraced(workload: Workload, config: check.WorkloadConfig, seed: int | None,
             seconds: float, references: dict) -> tuple[dict, list[str], dict]:
    env = child_env()
    setup, info = measure_setup(workload.config, env)
    samples = repeat_until(seconds, lambda: run_workload(workload, config, seed, env, references))
    good = [s for s in samples if s.ok] or samples
    series = {
        "wall_s": [s.wall for s in good],
        "cpu_s": [sum(p.cpu for p in s.procs) for s in good],
        "setup_s": setup,
        "peak_rss_mb": [max(p.rss_mib for p in s.procs) for s in good],
        "disk_mb_written": [s.disk_mib for s in good],
        "files_written": [float(s.files) for s in good],
        "final_rel_l2": [list(s.rel.values())[-1] if s.rel else 0.0 for s in good],
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    failed = sum(not s.ok for s in samples)
    lines = [f"{name:16s} {metrics[name]:.6g} {END_TO_END[name]}  ({tail_summary(series[name])})"
             for name in END_TO_END]
    lines.append(f"{'failed_fraction':16s} {failed / len(samples):.6g}  ({failed} of {len(samples)})")
    if workload.staged:
        for index, argv in enumerate(workload.commands(WORK, seed)):
            walls = [s.procs[index].wall for s in good if len(s.procs) > index]
            label = argv[0] + (f" --method {argv[-1]}" if argv[0] == "invert" else "")
            lines.append(f"  {label}: wall median {statistics.median(walls):.4f} s")
    for s in samples:
        lines.extend(f"  check failed: {p}" for p in s.problems)
    detail = {"series": series, "stage_rel_l2": good[-1].rel, "meta": metadata(seed, config, info)}
    return {"samples": samples, "failed": failed, "metrics": metrics}, lines, detail


def per_layer_names() -> list[str]:
    names = list(tracer.TIME_METRICS) + ["trace.harness_s", "trace.overhead_s"]
    names += list(tracer.COUNTS) + ["lippmann.tsvd_kept_ratio", "lippmann.system_mb"]
    names += [f"pipeline.rel_l2.{stage}" for stage in STAGES]
    names += [f"st.{name}" for name in tracer.TIME_METRICS]
    return names


def traced_run(workload, config, seed, env, references, tag) -> tuple[Sample, dict, list[dict]]:
    spans_dir = fresh_dir(WORK / "spans" / tag)
    sample = run_workload(workload, config, seed, env, references, spans_dir)
    dumps = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(spans_dir.glob("*.json"))]
    metrics = tracer.layer_metrics(dumps)
    metrics["trace.wall_s"] = sample.wall
    return sample, metrics, dumps


def traced(workload: Workload, config: check.WorkloadConfig, seed: int | None,
           seconds: float, references: dict) -> tuple[dict, list[str], dict]:
    env, st_env = child_env(), child_env(blas_threads=1)
    _, info = measure_setup(workload.config, env, repeats=0)
    counter = itertools.count()

    def one_round():
        index = next(counter)
        sample, metrics, dumps = traced_run(workload, config, seed, env, references, f"r{index}")
        st_sample, st_metrics, _ = traced_run(workload, config, seed, st_env, references,
                                              f"r{index}-st")
        plain = run_workload(workload, config, seed, env, references)
        metrics["trace.overhead_s"] = sample.wall - plain.wall - metrics["trace.harness_s"]
        metrics.update({f"pipeline.rel_l2.{stage}": sample.rel.get(stage, 0.0) for stage in STAGES})
        metrics.update({f"st.{name}": st_metrics[name] for name in tracer.TIME_METRICS})
        return [sample, st_sample, plain], metrics, dumps

    rounds = repeat_until(seconds, one_round)
    samples = [s for r in rounds for s in r[0]]
    names = per_layer_names()
    metrics = {name: statistics.median(r[1][name] for r in rounds) for name in names}
    failed = sum(not s.ok for s in samples)
    lines = [f"{name:36s} {metrics[name]:.6g}" for name in names]
    lines.append(f"{len(rounds)} traced rounds; failed {failed} of {len(samples)} runs")
    for s in samples:
        lines.extend(f"  check failed: {p}" for p in s.problems)
    meta = metadata(seed, config, info)
    meta["tracing_overhead_s"] = metrics["trace.overhead_s"]
    detail = {"meta": meta, "last_spans": rounds[-1][2]}
    return {"samples": samples, "failed": failed, "metrics": metrics}, lines, detail


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MiB"
    if "rel_l2" in name or name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to lslkit as --seed (default: each config's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lslkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'lslkit'} not found; run from the root of an lslkit checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = check.read_config(workload.config)
    try:
        check.preflight(config)
    except check.MemoryPreflightError as exc:
        print(f"error: MemoryPreflightError: {exc}", file=sys.stderr)
        return 3
    WORK.mkdir(exist_ok=True)
    references = check.load_references()

    measure = traced if args.trace else untraced
    result, lines, detail = measure(workload, config, args.seed, args.seconds, references)
    attempted = len(result["samples"])
    summary = {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name) if args.trace else END_TO_END[name]}
                    for name, value in result["metrics"].items()},
    }
    (WORK / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps({**summary, **detail}, indent=1), encoding="utf-8")
    print(f"workload {workload.name}, seed {args.seed}, {attempted} runs")
    print("\n".join(lines))
    print("metadata " + json.dumps(detail["meta"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
