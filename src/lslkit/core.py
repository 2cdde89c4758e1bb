"""Grids, sources, fields and data containers shared by the whole toolkit.

Geometry is a uniform rectangular grid of nx*ny cells, i.e. (nx+1)*(ny+1)
nodes, with trapezoidal quadrature weights: interior nodes carry hx*hy,
face nodes half of that and corner nodes a quarter. Under this inner
product the mirror-image Neumann Laplacian is self-adjoint, which every
data-to-mass-matrix identity downstream relies on.

Fields are dense float64 arrays of shape (ny+1, nx+1), indexed [iy, ix],
node (ix, iy) sitting at (ix*hx, iy*hy). A wavefield history
is a plain (K, N, ny+1, nx+1) snapshot stack (see `wavesim`): it carries
no grid, so each consumer is handed the grid it lives on with it. The
containers below keep their invariants and freeze their arrays after
construction, safe to share between threads; the functions on them check
only the nesting of two grids (`refinement_ratio`), nothing else (`errors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DimensionError, PreconditionError

#: sources are hard-truncated at this many standard deviations
SOURCE_CUTOFF_SIGMAS = 6.0


def _frozen(values, dtype=np.float64):
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid: nx*ny cells, (nx+1)*(ny+1) nodes."""

    nx: int
    ny: int
    hx: float
    hy: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError(
                f"grid needs at least 2x2 cells, got {self.nx}x{self.ny}"
            )
        if not (0.0 < self.hx < np.inf and 0.0 < self.hy < np.inf):
            raise ConfigurationError("grid spacing must be positive and finite")

    @property
    def shape(self) -> tuple[int, int]:
        """Node array shape, (rows, cols) = (ny+1, nx+1)."""
        return (self.ny + 1, self.nx + 1)

    @property
    def num_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def xs(self) -> np.ndarray:
        return self.hx * np.arange(self.nx + 1)

    def ys(self) -> np.ndarray:
        return self.hy * np.arange(self.ny + 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs(), self.ys())

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight per node, shape (ny+1, nx+1)."""
        wx = np.full(self.nx + 1, self.hx)
        wx[0] *= 0.5
        wx[-1] *= 0.5
        wy = np.full(self.ny + 1, self.hy)
        wy[0] *= 0.5
        wy[-1] *= 0.5
        return _frozen(np.outer(wy, wx))

    def coarsen(self, ratio: int) -> "Grid2D":
        """Grid with the same extent and every ratio-th node."""
        if ratio < 1 or self.nx % ratio or self.ny % ratio:
            raise ConfigurationError(
                f"cell counts {self.nx}x{self.ny} not divisible by ratio {ratio}"
            )
        return Grid2D(self.nx // ratio, self.ny // ratio, self.hx * ratio, self.hy * ratio)


def refinement_ratio(fine: Grid2D, coarse: Grid2D) -> int:
    """Integer ratio by which `coarse` subsamples `fine`, or raise."""
    ratio = round(fine.nx / coarse.nx)
    ok = (
        ratio >= 1
        and fine.nx == ratio * coarse.nx
        and fine.ny == ratio * coarse.ny
        and abs(coarse.hx - ratio * fine.hx) <= 1e-12 * coarse.hx
        and abs(coarse.hy - ratio * fine.hy) <= 1e-12 * coarse.hy
    )
    if not ok:
        raise ConfigurationError(
            f"grids are not nested: fine {fine.nx}x{fine.ny} h=({fine.hx},{fine.hy}) "
            f"vs coarse {coarse.nx}x{coarse.ny} h=({coarse.hx},{coarse.hy})"
        )
    return ratio


def _check_field(grid: Grid2D, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise DimensionError(
            f"{name} has shape {values.shape}, grid expects {grid.shape}"
        )
    return values


def inner_product(grid: Grid2D, f: np.ndarray, g: np.ndarray) -> float:
    """Domain inner product of two nodal fields under trapezoidal weights."""
    return float(np.einsum("ij,ij,ij->", grid.node_weights, f, g))


def restrict(values: np.ndarray, fine: Grid2D, coarse: Grid2D) -> np.ndarray:
    """Pointwise injection of a (..., ny+1, nx+1) array on `fine`, a field or
    a snapshot stack, at the coincident coarse nodes: a view, never a copy."""
    ratio = refinement_ratio(fine, coarse)
    return values[..., ::ratio, ::ratio]


def prolong(values: np.ndarray, coarse: Grid2D, fine: Grid2D) -> np.ndarray:
    """Bilinear interpolation of a coarse-grid field onto a nested fine grid.

    Exact on bilinear functions. Coincident nodes copy the coarse values
    bit for bit (signed zeros too): restrict(prolong(f)) == f exactly,
    and prolong onto the same grid is the identity.
    """
    ratio = refinement_ratio(fine, coarse)
    iy = np.arange(fine.ny + 1)
    ix = np.arange(fine.nx + 1)
    cy = np.minimum(iy // ratio, coarse.ny - 1)
    cx = np.minimum(ix // ratio, coarse.nx - 1)
    ty = ((iy - cy * ratio) / ratio)[:, None]
    tx = ((ix - cx * ratio) / ratio)[None, :]
    v00 = values[np.ix_(cy, cx)]
    v01 = values[np.ix_(cy, cx + 1)]
    v10 = values[np.ix_(cy + 1, cx)]
    v11 = values[np.ix_(cy + 1, cx + 1)]
    out = (
        (1.0 - ty) * (1.0 - tx) * v00
        + (1.0 - ty) * tx * v01
        + ty * (1.0 - tx) * v10
        + ty * tx * v11
    )
    out[::ratio, ::ratio] = values
    return out


@dataclass(frozen=True)
class Potential:
    """Scattering coefficient sampled on grid nodes.

    True models are nonnegative, which the config guarantees;
    reconstructions are sign-unconstrained.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen(_check_field(self.grid, self.values, "potential"))
        )


@dataclass(frozen=True)
class SourceSet:
    """Collocated transmitter/receiver pulses: truncated Gaussians.

    g_i(x) = exp(-|x - x_i|^2 / (2 sigma^2)), hard-zeroed
    beyond 6 sigma so every pulse is compactly supported (the clipped
    tail is below 2e-8 of the peak).
    """

    centers: np.ndarray
    sigma: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if centers.ndim != 2 or centers.shape[1] != 2 or centers.shape[0] < 1:
            raise ConfigurationError("source centers must be a (K, 2) array")
        if not np.isfinite(centers).all():
            raise ConfigurationError("source centers must be finite")
        if not 0.0 < self.sigma < np.inf:
            raise ConfigurationError("source width sigma must be positive and finite")
        object.__setattr__(self, "centers", _frozen(centers))

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    def field(self, grid: Grid2D, i: int) -> np.ndarray:
        x, y = grid.meshgrid()
        cx, cy = self.centers[i]
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        g = np.exp(-r2 / (2.0 * self.sigma**2))
        g[r2 > (SOURCE_CUTOFF_SIGMAS * self.sigma) ** 2] = 0.0
        return g

    def fields(self, grid: Grid2D) -> np.ndarray:
        return np.stack([self.field(grid, i) for i in range(self.count)])


@dataclass(frozen=True)
class TimeAxis:
    """Uniform sampling: interval tau, half-length n, 2n-1 data samples."""

    tau: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.tau < np.inf:
            raise ConfigurationError("sample interval tau must be positive and finite")
        if self.n < 2:
            raise ConfigurationError("time axis half-length n must be at least 2")

    @property
    def total_samples(self) -> int:
        return 2 * self.n - 1


class MaskState(IntEnum):
    ABSENT = 0
    MEASURED = 1
    LIFTED = 2


@dataclass(frozen=True)
class TransferData:
    """Time series F[i][j][k] = <g_j, u_i(k tau)> with per-pair provenance.

    mask[i][j] records whether the (source i, receiver j) series was
    measured, synthesized by lifting, or is absent (series stored as zeros).
    """

    values: np.ndarray
    mask: np.ndarray
    tau: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.int8)
        if values.ndim != 3 or values.shape[0] != values.shape[1]:
            raise DimensionError(f"transfer values must be (K, K, T), got {values.shape}")
        if mask.shape != values.shape[:2]:
            raise DimensionError(
                f"mask shape {mask.shape} does not match pair count {values.shape[:2]}"
            )
        if not np.isin(mask, (0, 1, 2)).all():
            raise PreconditionError("mask entries must be absent/measured/lifted")
        if not 0.0 < self.tau < np.inf:
            raise ConfigurationError("sample interval tau must be positive and finite")
        values = np.array(values, dtype=np.float64, order="C", copy=True)
        values[mask == MaskState.ABSENT] = 0.0
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", _frozen(mask, dtype=np.int8))

    @property
    def num_sources(self) -> int:
        return self.values.shape[0]

    @property
    def num_samples(self) -> int:
        return self.values.shape[2]

    @property
    def is_full(self) -> bool:
        return bool((self.mask != MaskState.ABSENT).all())

    def require_measured_diagonal(self) -> None:
        if np.any(np.diag(self.mask) != MaskState.MEASURED):
            raise PreconditionError("diagonal transfer entries must be measured")
