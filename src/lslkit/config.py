"""Experiment configuration: INI-style key-value files, fully validated.

Schema: the fields of `ExperimentConfig` and `Inclusion`, one row per key
holding its INI key, its type (the annotation), its default and, for a
key checked on its own, a rule whose error reads "<key> <value> must be
<phrase>". `parse_config` and `validate` read the rows. This listing of
every key with its default (a required key has none) is their
user-facing copy, which a test checks against them:

    [domain]      width (100.0), height (50.0)
    [simulation]  nx (100), ny (50), inversion_ratio (2)
    [sources]     count (9), sigma (2.0), depth (4.0), first_x (0.14*width),
                  last_x (0.86*width)
    [time]        tau (3.0), n (80)
    [solver]      substeps (5)
    [inversion]   tsvd (0.03), iterations (1), positivity (false)
    [noise]       level (0.0), seed (20250811)
    [model]       margin (4.0), inclusions (empty)
    [inclusion X] shape (required), x (required), y (required), width (required),
                  height (required), amplitude (required), angle (0.0)
    [output]      directory (out)

nx, ny are simulation cell counts; the inversion grid is the simulation
grid coarsened by inversion_ratio. Collocated transmitter/receivers
(count at least 2, unit amplitude) sit on a horizontal line `depth`
(within 3*sigma) below the top boundary, evenly spaced from first_x to
last_x. Acquisition records 2n-1 samples at interval tau. One tsvd
level, in [1e-4, 1), serves every inversion. Every completion round
halves the record, N -> floor((N-1)/2) + 1 from N = n, and must leave at
least 2 samples: n = 12 allows 3 iterations, n = 80 allows 6. Noise
level and seed are nonnegative. model.inclusions lists distinct names,
split by whitespace or commas, each with an [inclusion X] section: a
rectangle or ellipse centred at (x, y), rotated counterclockwise by
angle degrees. Every float must be finite, and overlapping inclusions
combine by max(). Validation runs before anything is simulated and
covers grid nesting, the CFL bound, source placement and the support
margin; each error names its key path (e.g. "solver.substeps").
"""

# no `from __future__ import annotations`: parse_config reads field types
import configparser
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import get_args

import numpy as np

from .core import Grid2D, Potential, SourceSet, TimeAxis
from .errors import ConfigurationError
from .lippmann import TSVD_MIN_THRESHOLD
from .pipeline import Region
from .rom import halved_length
from .wavesim import SolverSettings, check_cfl


def _setting(key: str = "", default=MISSING, rule=None):
    """One config row: its INI key (an inclusion key is the field name), its
    default (none: required) and an optional (predicate, phrase) rule."""
    return field(default=default, metadata={"key": key, "rule": rule})


def _at_least(low: int) -> tuple:
    return (lambda value: value >= low, f"at least {low}")


_POSITIVE = (lambda value: value > 0, "positive")
_NONNEGATIVE = (lambda value: value >= 0, "nonnegative")
_TSVD_LEVEL = (lambda value: TSVD_MIN_THRESHOLD <= value < 1, f"in [{TSVD_MIN_THRESHOLD:g}, 1)")


def _rows(cls) -> dict:
    """Config key -> field for every row of a config dataclass."""
    return {f.metadata["key"] or f.name: f for f in fields(cls) if "key" in f.metadata}


def _check_rows(obj, prefix: str = "") -> None:
    """Raise on the first row whose value breaks its own rule."""
    for key, row in _rows(type(obj)).items():
        value, rule = getattr(obj, row.name), row.metadata["rule"]
        if rule is not None and not rule[0](value):
            raise ConfigurationError(f"{prefix}{key} {value} must be {rule[1]}")


@dataclass(frozen=True)
class Inclusion:
    name: str
    shape: str = _setting(rule=(lambda s: s in ("rectangle", "ellipse"), "rectangle or ellipse"))
    x: float = _setting()
    y: float = _setting()
    width: float = _setting(rule=_POSITIVE)
    height: float = _setting(rule=_POSITIVE)
    amplitude: float = _setting(rule=_NONNEGATIVE)
    angle: float = _setting(default=0.0)

    def membership(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean node mask of the (possibly rotated) inclusion."""
        dx = xs - self.x
        dy = ys - self.y
        if self.angle:
            rad = np.deg2rad(self.angle)
            c, s = np.cos(rad), np.sin(rad)
            dx, dy = c * dx + s * dy, -s * dx + c * dy
        if self.shape == "rectangle":
            return (np.abs(dx) <= self.width / 2) & (np.abs(dy) <= self.height / 2)
        return (2 * dx / self.width) ** 2 + (2 * dy / self.height) ** 2 <= 1.0

    def bounding_box(self) -> tuple[float, float, float, float]:
        rad = np.deg2rad(self.angle)
        c, s = abs(np.cos(rad)), abs(np.sin(rad))
        hx = (self.width * c + self.height * s) / 2
        hy = (self.width * s + self.height * c) / 2
        return (self.x - hx, self.x + hx, self.y - hy, self.y + hy)


@dataclass(frozen=True)
class ExperimentConfig:
    width: float = _setting("domain.width", 100.0, _POSITIVE)
    height: float = _setting("domain.height", 50.0, _POSITIVE)
    nx: int = _setting("simulation.nx", 100, _at_least(2))
    ny: int = _setting("simulation.ny", 50, _at_least(2))
    inversion_ratio: int = _setting("simulation.inversion_ratio", 2, _at_least(1))
    # one source's diagonal record is already full: nothing to complete
    source_count: int = _setting("sources.count", 9, _at_least(2))
    source_sigma: float = _setting("sources.sigma", 2.0, _POSITIVE)
    source_depth: float = _setting("sources.depth", 4.0)
    first_x: float | None = _setting("sources.first_x", None)
    last_x: float | None = _setting("sources.last_x", None)
    tau: float = _setting("time.tau", 3.0, _POSITIVE)
    n: int = _setting("time.n", 80, _at_least(2))
    substeps: int = _setting("solver.substeps", 5, _at_least(1))
    tsvd: float = _setting("inversion.tsvd", 0.03, _TSVD_LEVEL)
    iterations: int = _setting("inversion.iterations", 1, _NONNEGATIVE)
    positivity: bool = _setting("inversion.positivity", False)
    noise_level: float = _setting("noise.level", 0.0, _NONNEGATIVE)
    seed: int = _setting("noise.seed", 20250811, _NONNEGATIVE)
    margin: float = _setting("model.margin", 4.0, _NONNEGATIVE)
    inclusions: tuple[Inclusion, ...] = _setting("model.inclusions", ())
    output_directory: str = _setting("output.directory", "out")

    def sim_grid(self) -> Grid2D:
        return Grid2D(self.nx, self.ny, self.width / self.nx, self.height / self.ny)

    def inv_grid(self) -> Grid2D:
        return self.sim_grid().coarsen(self.inversion_ratio)

    def acquisition_y(self) -> float:
        return self.height - self.source_depth

    def source_xs(self) -> np.ndarray:
        first = 0.14 * self.width if self.first_x is None else self.first_x
        last = 0.86 * self.width if self.last_x is None else self.last_x
        return np.linspace(first, last, self.source_count)

    def sources(self) -> SourceSet:
        xs = self.source_xs()
        centers = np.column_stack([xs, np.full(xs.size, self.acquisition_y())])
        return SourceSet(centers, self.source_sigma)

    def axis(self) -> TimeAxis:
        return TimeAxis(self.tau, self.n)

    def settings(self) -> SolverSettings:
        return SolverSettings(self.substeps)

    def true_potential(self) -> Potential:
        grid = self.sim_grid()
        values = np.zeros(grid.shape)
        if self.inclusions:
            x, y = grid.meshgrid()
            for inc in self.inclusions:
                values = np.maximum(values, np.where(inc.membership(x, y), inc.amplitude, 0.0))
        return Potential(grid, values)

    def regions(self) -> tuple[Region, ...]:
        """One reporting region per inclusion: its bounding box plus two inversion cells."""
        pad = 2.0 * self.inversion_ratio * self.width / self.nx
        out = []
        for inc in self.inclusions:
            x0, x1, y0, y1 = inc.bounding_box()
            out.append(Region(inc.name, x0 - pad, x1 + pad, y0 - pad, y1 + pad))
        return tuple(out)

    def validate(self) -> None:
        """Every row's own rule, then the rules that tie keys together."""
        _check_rows(self)
        for inc in self.inclusions:
            _check_rows(inc, f"inclusion {inc.name}.")
        if self.nx % self.inversion_ratio or self.ny % self.inversion_ratio:
            raise ConfigurationError(
                f"simulation.inversion_ratio {self.inversion_ratio} must divide cell "
                f"counts {self.nx}x{self.ny}"
            )
        if self.nx // self.inversion_ratio < 2 or self.ny // self.inversion_ratio < 2:
            raise ConfigurationError(
                f"simulation.inversion_ratio {self.inversion_ratio} must leave at least 2x2 "
                f"inversion cells of {self.nx}x{self.ny}"
            )
        if not 0 <= self.source_depth <= 3.0 * self.source_sigma:
            raise ConfigurationError(
                f"sources.depth {self.source_depth} must lie within 3*sigma "
                f"({3.0 * self.source_sigma}) of the acquisition boundary"
            )
        for key, x in zip(("sources.first_x", "sources.last_x"), self.source_xs()[[0, -1]]):
            if not 0.0 <= x <= self.width:
                raise ConfigurationError(
                    f"{key} {x} must be in [0, domain.width] = [0, {self.width}]"
                )
        length = self.n
        for _ in range(self.iterations):
            length = halved_length(length)
            if length < 2:
                raise ConfigurationError(
                    f"inversion.iterations {self.iterations} exhausts time.n {self.n}: "
                    "every round halves the record and must leave 2 samples"
                )
        for inc in self.inclusions:
            x0, x1, y0, y1 = inc.bounding_box()
            if (
                x0 < self.margin
                or x1 > self.width - self.margin
                or y0 < self.margin
                or y1 > self.height - self.margin
            ):
                raise ConfigurationError(
                    f"inclusion {inc.name} violates model.margin {self.margin}"
                )
        # the CFL check uses the worst-case amplitude over the model
        qmax = max((inc.amplitude for inc in self.inclusions), default=0.0)
        check_cfl(self.sim_grid(), qmax, self.tau, self.settings())


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(raw: str, annotation, path: str):
    kind = (get_args(annotation) or (annotation,))[0]  # float | None reads as float
    try:
        if kind is bool:
            value = _BOOL_VALUES.get(raw.strip().lower())
            if value is None:
                raise ValueError(raw)
            return value
        value = kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not np.isfinite(value):
        raise ConfigurationError(f"{path}: {raw!r} is not a finite number")
    return value


def _inclusion(name: str, items: dict | None) -> Inclusion:
    if items is None:
        raise ConfigurationError(f"model.inclusions names missing section [inclusion {name}]")
    rows = _rows(Inclusion)
    values: dict = {"name": name}
    for key, raw in items.items():
        if key not in rows:
            raise ConfigurationError(f"unknown config key inclusion {name}.{key}")
        values[key] = _convert(raw, rows[key].type, f"inclusion {name}.{key}")
    for key, row in rows.items():
        if row.default is MISSING and key not in values:
            raise ConfigurationError(f"inclusion {name}: missing key {key}")
    return Inclusion(**values)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read, type-check and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    if parser.defaults():
        # configparser would merge these into every section
        raise ConfigurationError(f"{path}: [DEFAULT] keys {sorted(parser.defaults())} refused")

    rows = _rows(ExperimentConfig)
    sections = {key.split(".")[0] for key in rows}
    values: dict = {}
    names: list[str] = []
    inclusion_items: dict[str, dict] = {}
    for section in parser.sections():
        if section.startswith("inclusion "):
            name = section[len("inclusion "):].strip()
            if not name:
                raise ConfigurationError(f"config section [{section}] names no inclusion")
            if name in inclusion_items:
                raise ConfigurationError(f"two [inclusion X] sections name inclusion {name}")
            inclusion_items[name] = dict(parser.items(section))
            continue
        if section not in sections:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            row = rows.get(f"{section}.{key}")
            if row is None:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            if row.name == "inclusions":
                names = raw.replace(",", " ").split()
            else:
                values[row.name] = _convert(raw, row.type, f"{section}.{key}")

    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"model.inclusions lists {repeated} more than once")
    unreferenced = set(inclusion_items) - set(names)
    if unreferenced:
        raise ConfigurationError(
            f"inclusion sections not listed under model.inclusions: {sorted(unreferenced)}"
        )
    inclusions = tuple(_inclusion(name, inclusion_items.get(name)) for name in names)
    config = ExperimentConfig(**values, inclusions=inclusions)
    config.validate()
    return config


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. "two_targets")."""
    candidate = resources.files("lslkit").joinpath(f"configs/{name}.cfg")
    with resources.as_file(candidate) as concrete:
        if not concrete.exists():
            raise ConfigurationError(f"no bundled config named {name!r}")
        return Path(concrete)
