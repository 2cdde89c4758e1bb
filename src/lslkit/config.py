"""Experiment configuration: INI-style key-value files, fully validated.

Schema (every key optional, defaults in parentheses):

    [domain]      width (100.0), height (50.0), origin_x (0.0), origin_y (0.0)
    [simulation]  nx (100), ny (50), inversion_ratio (2)
                  nx, ny are simulation cell counts; the inversion grid is
                  the simulation grid coarsened by inversion_ratio.
    [sources]     count (9), sigma (2.0), amplitude (1.0), depth (4.0),
                  first_x (0.14*width), last_x (0.86*width)
                  Collocated transmitter/receivers sit on a horizontal line
                  `depth` below the top boundary, evenly spaced between
                  first_x and last_x. depth must stay within 3*sigma.
    [time]        tau (3.0), n (80)
                  Acquisition records 2n-1 samples at interval tau.
    [solver]      substeps (5), cfl_safety (0.9)
    [inversion]   tsvd_born (0.03), tsvd_siso (0.03), tsvd_mimo (0.03),
                  iterations (1), positivity (false)
    [noise]       level (0.0), seed (20250811)
    [model]       margin (4.0), inclusions (empty, whitespace/comma list)
    [inclusion X] shape (rectangle|ellipse), x, y (center), width, height,
                  amplitude, angle (0.0, degrees counterclockwise)
                  One section per name listed under model.inclusions.
    [output]      directory (out)

Values are combined with max() where inclusions overlap. Validation
covers grid nesting, the CFL bound, source-line placement and the
compact-support margin before anything is simulated; error messages name
the offending key path (e.g. "solver.substeps").
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import Grid2D, Potential, SourceSet, TimeAxis
from .errors import ConfigurationError
from .pipeline import Region
from .wavesim import SolverSettings, check_cfl


@dataclass(frozen=True)
class Inclusion:
    name: str
    shape: str
    x: float
    y: float
    width: float
    height: float
    amplitude: float
    angle: float = 0.0

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
    width: float = 100.0
    height: float = 50.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    nx: int = 100
    ny: int = 50
    inversion_ratio: int = 2
    source_count: int = 9
    source_sigma: float = 2.0
    source_amplitude: float = 1.0
    source_depth: float = 4.0
    first_x: float | None = None
    last_x: float | None = None
    tau: float = 3.0
    n: int = 80
    substeps: int = 5
    cfl_safety: float = 0.9
    tsvd_born: float = 0.03
    tsvd_siso: float = 0.03
    tsvd_mimo: float = 0.03
    iterations: int = 1
    positivity: bool = False
    noise_level: float = 0.0
    seed: int = 20250811
    margin: float = 4.0
    inclusions: tuple[Inclusion, ...] = ()
    output_directory: str = "out"

    def sim_grid(self) -> Grid2D:
        return Grid2D(
            self.nx,
            self.ny,
            self.width / self.nx,
            self.height / self.ny,
            (self.origin_x, self.origin_y),
        )

    def inv_grid(self) -> Grid2D:
        return self.sim_grid().coarsen(self.inversion_ratio)

    def acquisition_y(self) -> float:
        return self.origin_y + self.height - self.source_depth

    def source_xs(self) -> np.ndarray:
        first = self.origin_x + 0.14 * self.width if self.first_x is None else self.first_x
        last = self.origin_x + 0.86 * self.width if self.last_x is None else self.last_x
        return np.linspace(first, last, self.source_count)

    def sources(self) -> SourceSet:
        xs = self.source_xs()
        centers = np.column_stack([xs, np.full(xs.size, self.acquisition_y())])
        return SourceSet(centers, self.source_sigma, self.source_amplitude)

    def axis(self) -> TimeAxis:
        return TimeAxis(self.tau, self.n)

    def settings(self) -> SolverSettings:
        return SolverSettings(self.substeps, self.cfl_safety)

    def true_potential(self) -> Potential:
        grid = self.sim_grid()
        values = np.zeros(grid.shape)
        if self.inclusions:
            x, y = grid.meshgrid()
            for inc in self.inclusions:
                values = np.maximum(values, np.where(inc.membership(x, y), inc.amplitude, 0.0))
        return Potential(grid, values)

    def regions(self, pad: float | None = None) -> tuple[Region, ...]:
        """One reporting region per inclusion: its padded bounding box."""
        if pad is None:
            pad = 2.0 * self.inversion_ratio * self.width / self.nx
        out = []
        for inc in self.inclusions:
            x0, x1, y0, y1 = inc.bounding_box()
            out.append(Region(inc.name, x0 - pad, x1 + pad, y0 - pad, y1 + pad))
        return tuple(out)

    def validate(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("domain.width and domain.height must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError("simulation.nx and simulation.ny must be at least 2")
        if self.inversion_ratio < 1:
            raise ConfigurationError("simulation.inversion_ratio must be at least 1")
        if self.nx % self.inversion_ratio or self.ny % self.inversion_ratio:
            raise ConfigurationError(
                f"simulation.inversion_ratio {self.inversion_ratio} must divide cell "
                f"counts {self.nx}x{self.ny}"
            )
        if self.nx // self.inversion_ratio < 2 or self.ny // self.inversion_ratio < 2:
            raise ConfigurationError("simulation.inversion_ratio leaves fewer than 2x2 cells")
        if self.source_count < 1:
            raise ConfigurationError("sources.count must be at least 1")
        if self.source_sigma <= 0:
            raise ConfigurationError("sources.sigma must be positive")
        if not 0 <= self.source_depth <= 3.0 * self.source_sigma:
            raise ConfigurationError(
                f"sources.depth {self.source_depth} must lie within 3*sigma "
                f"({3.0 * self.source_sigma}) of the acquisition boundary"
            )
        xs = self.source_xs()
        if xs.min() < self.origin_x or xs.max() > self.origin_x + self.width:
            raise ConfigurationError("sources.first_x/last_x fall outside the domain")
        if self.tau <= 0:
            raise ConfigurationError("time.tau must be positive")
        if self.n < 2:
            raise ConfigurationError("time.n must be at least 2")
        if self.substeps < 1:
            raise ConfigurationError("solver.substeps must be a positive integer")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigurationError("solver.cfl_safety must lie in (0, 1]")
        for key, value in (
            ("inversion.tsvd_born", self.tsvd_born),
            ("inversion.tsvd_siso", self.tsvd_siso),
            ("inversion.tsvd_mimo", self.tsvd_mimo),
        ):
            if not 0 < value < 1:
                raise ConfigurationError(f"{key} must lie in (0, 1)")
        if self.iterations < 0:
            raise ConfigurationError("inversion.iterations must be nonnegative")
        if self.noise_level < 0:
            raise ConfigurationError("noise.level must be nonnegative")
        if self.margin < 0:
            raise ConfigurationError("model.margin must be nonnegative")
        for inc in self.inclusions:
            if inc.shape not in ("rectangle", "ellipse"):
                raise ConfigurationError(
                    f"inclusion {inc.name}: shape must be rectangle or ellipse"
                )
            if inc.width <= 0 or inc.height <= 0:
                raise ConfigurationError(f"inclusion {inc.name}: width/height must be positive")
            if inc.amplitude < 0:
                raise ConfigurationError(f"inclusion {inc.name}: amplitude must be nonnegative")
            x0, x1, y0, y1 = inc.bounding_box()
            if (
                x0 < self.origin_x + self.margin
                or x1 > self.origin_x + self.width - self.margin
                or y0 < self.origin_y + self.margin
                or y1 > self.origin_y + self.height - self.margin
            ):
                raise ConfigurationError(
                    f"inclusion {inc.name} violates model.margin {self.margin}"
                )
        # the CFL check uses the worst-case amplitude over the model
        qmax = max((inc.amplitude for inc in self.inclusions), default=0.0)
        check_cfl(self.sim_grid(), np.asarray([qmax]), self.tau, self.settings())


#: (section, key) -> (type, ExperimentConfig attribute); model.inclusions
#: names the [inclusion X] sections and has no attribute of its own
_SCHEMA = {
    ("domain", "width"): (float, "width"),
    ("domain", "height"): (float, "height"),
    ("domain", "origin_x"): (float, "origin_x"),
    ("domain", "origin_y"): (float, "origin_y"),
    ("simulation", "nx"): (int, "nx"),
    ("simulation", "ny"): (int, "ny"),
    ("simulation", "inversion_ratio"): (int, "inversion_ratio"),
    ("sources", "count"): (int, "source_count"),
    ("sources", "sigma"): (float, "source_sigma"),
    ("sources", "amplitude"): (float, "source_amplitude"),
    ("sources", "depth"): (float, "source_depth"),
    ("sources", "first_x"): (float, "first_x"),
    ("sources", "last_x"): (float, "last_x"),
    ("time", "tau"): (float, "tau"),
    ("time", "n"): (int, "n"),
    ("solver", "substeps"): (int, "substeps"),
    ("solver", "cfl_safety"): (float, "cfl_safety"),
    ("inversion", "tsvd_born"): (float, "tsvd_born"),
    ("inversion", "tsvd_siso"): (float, "tsvd_siso"),
    ("inversion", "tsvd_mimo"): (float, "tsvd_mimo"),
    ("inversion", "iterations"): (int, "iterations"),
    ("inversion", "positivity"): (bool, "positivity"),
    ("noise", "level"): (float, "noise_level"),
    ("noise", "seed"): (int, "seed"),
    ("model", "margin"): (float, "margin"),
    ("model", "inclusions"): (str, None),
    ("output", "directory"): (str, "output_directory"),
}

_SECTIONS = {section for section, _ in _SCHEMA}

_INCLUSION_SCHEMA = {
    "shape": str,
    "x": float,
    "y": float,
    "width": float,
    "height": float,
    "amplitude": float,
    "angle": float,
}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(raw: str, kind, path: str):
    try:
        if kind is bool:
            value = _BOOL_VALUES.get(raw.strip().lower())
            if value is None:
                raise ValueError(raw)
            return value
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: cannot parse {raw!r} as {kind.__name__}") from exc


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

    fields: dict = {}
    inclusion_sections: dict[str, dict] = {}
    inclusion_order: list[str] = []
    for section in parser.sections():
        if section.startswith("inclusion "):
            name = section.split(None, 1)[1]
            inclusion_sections[name] = dict(parser.items(section))
            continue
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            kind, attribute = _SCHEMA[(section, key)]
            if attribute is None:
                inclusion_order = [t for t in raw.replace(",", " ").split() if t]
                continue
            fields[attribute] = _convert(raw, kind, f"{section}.{key}")

    unreferenced = set(inclusion_sections) - set(inclusion_order)
    if unreferenced:
        raise ConfigurationError(
            f"inclusion sections not listed under model.inclusions: {sorted(unreferenced)}"
        )
    inclusions = []
    for name in inclusion_order:
        if name not in inclusion_sections:
            raise ConfigurationError(f"model.inclusions names missing section [inclusion {name}]")
        raw_items = inclusion_sections[name]
        values: dict = {"name": name}
        for key, raw in raw_items.items():
            if key not in _INCLUSION_SCHEMA:
                raise ConfigurationError(f"unknown config key inclusion {name}.{key}")
            values[key] = _convert(raw, _INCLUSION_SCHEMA[key], f"inclusion {name}.{key}")
        for required in ("shape", "x", "y", "width", "height", "amplitude"):
            if required not in values:
                raise ConfigurationError(f"inclusion {name}: missing key {required}")
        inclusions.append(Inclusion(**values))

    config = ExperimentConfig(**fields, inclusions=tuple(inclusions))
    config.validate()
    return config


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. "two_targets")."""
    candidate = resources.files("lslkit").joinpath(f"configs/{name}.cfg")
    with resources.as_file(candidate) as concrete:
        if not concrete.exists():
            raise ConfigurationError(f"no bundled config named {name!r}")
        return Path(concrete)
