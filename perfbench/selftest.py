#!/usr/bin/env python3
"""Fast self-test of the benchmark on a tiny generated config.

Run from the root of a checkout; takes about half a minute:

    python3 perfbench/selftest.py

It checks BENCHMARK.json against run.py, runs the untraced and the
traced measurement on a tiny pipeline and a tiny staged workload
(20x10 cells, K=3, n=12) and checks that every end-to-end and
per-layer metric is emitted, that spans nest, that the
per-layer self times of each traced process sum to its `cli.main.s`,
that the harness rel_l2 agrees with `lslkit.pipeline.metrics`, that the
output check rejects a wrong reference, and that the memory pre-flight
refuses the full-scale config.
"""

from __future__ import annotations

import json
import math
import sys

import check
import run
import tracer

TINY_CONFIG = """\
[domain]
width = 40.0
height = 20.0

[simulation]
nx = 20
ny = 10
inversion_ratio = 2

[sources]
count = 3
depth = 4.0
first_x = 8.0
last_x = 32.0

[time]
tau = 3.0
n = 12

[inversion]
iterations = 1

[noise]
level = 0.05
seed = 3

[model]
inclusions = bar

[inclusion bar]
shape = rectangle
x = 20.0
y = 10.0
width = 6.0
height = 4.0
amplitude = 0.05
"""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_benchmark_file() -> None:
    """BENCHMARK.json lists exactly the workloads, metrics and units run.py emits."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(listed == run.END_TO_END, f"end_to_end in BENCHMARK.json: {listed}")
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(listed == [(n, run.unit_of(n)) for n in run.per_layer_names()],
           "per_layer in BENCHMARK.json differs from run.per_layer_names()")
    names = [w["name"] for w in bench["workloads"]]
    expect(set(names) <= set(run.WORKLOADS) and set(names) <= set(check.load_references()),
           f"workloads {names} lack a definition or a reference")


def check_spans(dump: dict) -> None:
    spans = dump["spans"]
    roots = [s for s in spans if s["parent"] is None]
    expect([s["name"] for s in roots] == ["cli.main"], f"roots {[s['name'] for s in roots]}")
    for s in spans:
        expect(s["run"] == dump["run"], "span with a foreign run id")
        expect(s["start"] <= s["end"], f"span {s['name']} ends before it starts")
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            expect(parent["start"] <= s["start"] and s["end"] <= parent["end"],
                   f"span {s['name']} escapes its parent {parent['name']}")
    metrics = tracer.layer_metrics([dump])
    layers = sum(metrics[f"{layer}.self.s"] for layer in tracer.LAYERS)
    expect(math.isclose(layers, metrics["cli.main.s"], rel_tol=1e-9, abs_tol=1e-9),
           f"layer self times {layers} != cli.main.s {metrics['cli.main.s']}")


def check_harness_rel_l2(workload: run.Workload, config: check.WorkloadConfig) -> None:
    """The harness's rel_l2 must be the one `lslkit compare` reports."""
    sys.path.insert(0, str(run.SRC))
    from lslkit.config import parse_config
    from lslkit.core import Potential
    from lslkit.io import load_field
    from lslkit.pipeline import metrics

    out = run.WORK / "run"
    sample = run.run_workload(workload, config, None, run.child_env(), {})
    truth = Potential(*load_field(out / "q_true.lslf"))
    regions = parse_config(workload.config).regions()
    for stage, name in check.stage_files(workload.staged, config.iterations).items():
        report = metrics(Potential(*load_field(out / name)), truth, regions)
        expect(math.isclose(sample.rel[stage], report.global_rel_l2, rel_tol=1e-12),
               f"{stage}: harness {sample.rel[stage]} vs lslkit {report.global_rel_l2}")
        estimate, true = check.read_field(out / name), check.read_field(out / "q_true.lslf")
        for region, value in report.region_rel_l2.items():
            mine = check.rel_l2(estimate, true, config.boxes[region])
            expect(math.isclose(mine, value, rel_tol=1e-12), f"{stage}/{region}: {mine} vs {value}")

    wrong = {workload.name: {"stages": {s: v * (1 + 1e-5) for s, v in sample.rel.items()},
                             "orderings": []}}
    _, problems = check.check_outputs(workload.name, config, workload.staged, out, None, wrong)
    expect(len(problems) == len(sample.rel), f"a 1e-5 error went unnoticed: {problems}")


def main() -> int:
    check_benchmark_file()
    print("ok: BENCHMARK.json matches the metrics run.py emits")
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / "selftest" / "tiny.cfg"
    path.parent.mkdir(exist_ok=True)
    path.write_text(TINY_CONFIG, encoding="utf-8")
    config = check.read_config(path)

    full = check.read_config(run.WORKLOADS["two_targets_full.pipeline"].config)
    try:
        check.preflight(full, available=7 * 2**30)
    except check.MemoryPreflightError as exc:
        print(f"ok: pre-flight refuses two_targets_full on a 7 GiB machine ({exc})")
    else:
        raise AssertionError("pre-flight let two_targets_full through 7 GiB")
    for name in ("two_targets.pipeline", "three_objects.pipeline", "box.staged"):
        check.preflight(check.read_config(run.WORKLOADS[name].config), available=2**30)

    for workload in (run.Workload("tiny.pipeline", path, staged=False),
                     run.Workload("tiny.staged", path, staged=True)):
        result, _, _ = run.untraced(workload, config, None, 0.0, {})
        expect(result["failed"] == 0, f"{workload.name}: untraced run failed")
        metrics = result["metrics"]
        expect(list(metrics) == list(run.END_TO_END), f"end-to-end metrics {list(metrics)}")
        expect(all(v > 0 and math.isfinite(v) for v in metrics.values()), f"{metrics}")
        print(f"ok: {workload.name} emits every end-to-end metric")

        result, _, detail = run.traced(workload, config, None, 0.0, {})
        expect(result["failed"] == 0, f"{workload.name}: traced run failed")
        expect(list(result["metrics"]) == run.per_layer_names(), "per-layer metric names")
        dumps = detail["last_spans"]
        expect(len(dumps) == len(workload.commands(run.WORK, None)), "one dump per process")
        for dump in dumps:
            check_spans(dump)
        print(f"ok: {workload.name} emits every per-layer metric; spans nest and "
              f"self times sum to cli.main.s")

        check_harness_rel_l2(workload, config)
        print(f"ok: {workload.name} harness rel_l2 matches lslkit; check rejects a 1e-5 error")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
