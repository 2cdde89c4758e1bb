"""Harness-side view of a workload: its config, memory pre-flight, output check.

Everything here is computed from the files a run leaves behind, with
numpy only, so that the check does not trust the code it checks. The
relative L2 error follows `lslkit compare`: both fields go onto the
coarser of the two nested grids by injection, and the norm uses
trapezoidal node weights, optionally restricted to a padded inclusion box.
"""

from __future__ import annotations

import configparser
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

#: stage rel_l2 at the config's own seed must match the reference to this
REL_TOLERANCE = 1.0e-6

#: snapshot stacks a pipeline holds at once: background u0 and w0, plus the
#: data-generated fields of the current stage
SETS_HELD = 3


class CheckError(Exception):
    """An output file is missing or malformed."""


class MemoryPreflightError(Exception):
    """The workload's snapshot stacks alone would not fit in available RAM."""


@dataclass(frozen=True)
class WorkloadConfig:
    """The config keys the harness needs, with the lslkit schema defaults."""

    path: Path
    width: float
    height: float
    nx: int
    ny: int
    inversion_ratio: int
    sources: int
    n: int
    iterations: int
    noise_level: float
    seed: int
    boxes: dict[str, tuple[float, float, float, float]]

    @property
    def nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def snapshot_bytes(self) -> int:
        """K x n x nodes x 8 B per snapshot set, times the sets held at once."""
        return self.sources * self.n * self.nodes * 8 * SETS_HELD


def read_config(path: str | Path) -> WorkloadConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    if not parser.read(path, encoding="utf-8"):
        raise CheckError(f"cannot read config {path}")

    def get(section, key, kind, default):
        return kind(parser.get(section, key, fallback=default))

    width = get("domain", "width", float, 100.0)
    nx = get("simulation", "nx", int, 100)
    ratio = get("simulation", "inversion_ratio", int, 2)
    pad = 2.0 * ratio * width / nx
    boxes = {}
    for name in parser.get("model", "inclusions", fallback="").replace(",", " ").split():
        section = f"inclusion {name}"
        x, y = get(section, "x", float, 0.0), get(section, "y", float, 0.0)
        w, h = get(section, "width", float, 0.0), get(section, "height", float, 0.0)
        rad = math.radians(get(section, "angle", float, 0.0))
        c, s = abs(math.cos(rad)), abs(math.sin(rad))
        hx, hy = (w * c + h * s) / 2 + pad, (w * s + h * c) / 2 + pad
        boxes[name] = (x - hx, x + hx, y - hy, y + hy)
    return WorkloadConfig(
        path=path,
        width=width,
        height=get("domain", "height", float, 50.0),
        nx=nx,
        ny=get("simulation", "ny", int, 50),
        inversion_ratio=ratio,
        sources=get("sources", "count", int, 9),
        n=get("time", "n", int, 80),
        iterations=get("inversion", "iterations", int, 1),
        noise_level=get("noise", "level", float, 0.0),
        seed=get("noise", "seed", int, 20250811),
        boxes=boxes,
    )


def available_ram_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise MemoryPreflightError("MemAvailable missing from /proc/meminfo")


def preflight(config: WorkloadConfig, available: int | None = None) -> None:
    """Refuse a config whose snapshot stacks alone exceed available RAM."""
    available = available_ram_bytes() if available is None else available
    need = config.snapshot_bytes()
    if need > available:
        raise MemoryPreflightError(
            f"{config.path.name}: {config.sources} sources x {config.n} samples x "
            f"{config.nodes} nodes x 8 B x {SETS_HELD} sets = {need / 2**30:.2f} GiB "
            f"exceeds the {available / 2**30:.2f} GiB of available RAM"
        )


@dataclass(frozen=True)
class Field:
    values: np.ndarray
    origin: tuple[float, float]
    spacing: tuple[float, float]

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = self.values.shape
        xs = self.origin[0] + self.spacing[0] * np.arange(cols)
        ys = self.origin[1] + self.spacing[1] * np.arange(rows)
        return np.meshgrid(xs, ys)

    def weights(self) -> np.ndarray:
        rows, cols = self.values.shape
        wx = np.full(cols, self.spacing[0])
        wy = np.full(rows, self.spacing[1])
        wx[[0, -1]] *= 0.5
        wy[[0, -1]] *= 0.5
        return np.outer(wy, wx)


def read_field(path: Path) -> Field:
    """An LSLF file: 56-byte header, then row-major little-endian doubles."""
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    raw = path.read_bytes()
    if len(raw) < 56:
        raise CheckError(f"{path.name}: truncated header")
    magic, _, sx, sy, ox, oy, hx, hy = struct.unpack_from("<4sIQQ4d", raw)
    if magic != b"LSLF" or len(raw) != 56 + 8 * sx * sy:
        raise CheckError(f"{path.name}: not a well-formed LSLF field")
    values = np.frombuffer(raw, dtype="<f8", offset=56).reshape(sy, sx)
    if not np.isfinite(values).all():
        raise CheckError(f"{path.name}: non-finite values")
    return Field(values, (ox, oy), (hx, hy))


def rel_l2(estimate: Field, truth: Field, box=None) -> float:
    coarse, fine = (estimate, truth) if estimate.values.size <= truth.values.size else (truth, estimate)
    ratio = round(coarse.spacing[0] / fine.spacing[0])
    fine_values = fine.values[::ratio, ::ratio]
    est, true = (coarse.values, fine_values) if coarse is estimate else (fine_values, coarse.values)
    if est.shape != true.shape:
        raise CheckError(f"grids are not nested: {est.shape} vs {true.shape}")
    weights = coarse.weights()
    diff = est - true
    if box is not None:
        x, y = coarse.coords()
        inside = (x >= box[0]) & (x <= box[1]) & (y >= box[2]) & (y <= box[3])
        diff, true = np.where(inside, diff, 0.0), np.where(inside, true, 0.0)
    num = float(np.sum(weights * diff * diff))
    den = float(np.sum(weights * true * true))
    return math.sqrt(num / den) if den > 0.0 else math.sqrt(num)


def stage_files(staged: bool, iterations: int) -> dict[str, str]:
    """Reconstruction file of each stage a workload runs, in run order."""
    if staged:
        return {"born": "q_born.lslf", "siso": "q_siso.lslf"}
    files = {"siso": "q_siso.lslf"}
    for r in range(1, iterations + 1):
        files[f"mimo-{r}"] = "q_mimo.lslf" if r == 1 else f"q_mimo_{r}.lslf"
    return files


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_outputs(workload: str, config: WorkloadConfig, staged: bool, out: Path,
                  seed: int | None, references: dict) -> tuple[dict[str, float], list[str]]:
    """Per-stage global rel_l2 of a finished run and the problems found.

    At the config's own seed (or for noise-free data, at any seed) every
    stage must match its reference to REL_TOLERANCE; at another seed of a
    noisy config it must lie within the reference's `seed_band`. The
    reference's orderings, (better stage, worse stage, region or null),
    must hold at every seed.
    """
    problems = []
    stages = stage_files(staged, config.iterations)
    try:
        truth = read_field(out / "q_true.lslf")
        fields = {stage: read_field(out / name) for stage, name in stages.items()}
    except CheckError as exc:
        return {}, [str(exc)]
    rel = {stage: rel_l2(field, truth) for stage, field in fields.items()}
    ref = references.get(workload)
    if ref is None:
        return rel, problems
    exact = seed is None or seed == config.seed or config.noise_level == 0.0
    for stage, expected in ref["stages"].items():
        got = rel.get(stage)
        if got is None:
            problems.append(f"stage {stage} missing")
        elif exact and abs(got - expected) > REL_TOLERANCE * expected:
            problems.append(f"stage {stage}: rel_l2 {got:.9f} != reference {expected:.9f}")
        elif not exact and abs(got - expected) > ref["seed_band"]:
            problems.append(f"stage {stage}: rel_l2 {got:.6f} outside reference "
                            f"{expected:.6f} +- {ref['seed_band']}")
    for better, worse, region in ref["orderings"]:
        if better not in fields or worse not in fields:
            continue
        box = None if region is None else config.boxes[region]
        a, b = rel_l2(fields[better], truth, box), rel_l2(fields[worse], truth, box)
        if not a < b:
            where = "global" if region is None else f"region {region}"
            problems.append(f"ordering broken ({where}): {better} {a:.6f} >= {worse} {b:.6f}")
    return rel, problems
