"""Leapfrog wave solver, closed-form background, boundary transfer data, noise.

The model is u_tt + A u = 0 on a closed rectangle with homogeneous
Neumann walls, A = -laplacian + q, advanced by

    u_{m+1} = 2 u_m - u_{m-1} - dt^2 A_h u_m

with mirror ghost nodes. Two starting rules are supported:

  cosine           u_0 = g,  u_1 = (I - dt^2/2 A_h) g
  antiderivative   w_0 = 0,  w_1 = dt g - dt^3/6 A_h g

The cosine start makes the sampled solution exactly the Chebyshev
sequence T_{kp}(S) g with S = I - dt^2/2 A_h and p substeps per sample,
so snapshot inner products obey the same angle-sum identities as the
continuum cosine solution. Downstream, that turns the data-to-mass-matrix
step into an identity for synthetic data instead of an approximation.
Stability requires dt^2 * rho(A_h) < 4; `SolverSettings.cfl_safety`
shrinks that bound.

For the zero potential the recurrence need not be run: DCT-I
diagonalizes the mirror-Neumann A_h under trapezoidal weights (Strang,
"The discrete cosine transform", SIAM Rev. 1999), with eigenvalue
lambda and S = cos(theta) per mode. `simulate_background` evaluates the
Chebyshev polynomials mode by mode: cos(kp theta) for the cosine start,
sin(kp theta) / sin(theta) times the first step for the antiderivative
start, and the transfer record as a spectral sum. `simulate_snapshots`
and `simulate_transfer` remain the leapfrog reference it is tested
against.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import (
    Grid2D,
    MaskState,
    Potential,
    SnapshotSet,
    SourceSet,
    TimeAxis,
    TransferData,
)
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SolverSettings:
    """Time discretization: `substeps` fine steps per sample interval."""

    substeps: int
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.substeps < 1:
            raise ConfigurationError("solver substeps must be a positive integer")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1]")


def spectral_bound(grid: Grid2D, q_values: np.ndarray) -> float:
    """Upper bound on the spectral radius of the discrete operator."""
    qmax = float(np.max(q_values)) if q_values.size else 0.0
    return 4.0 / grid.hx**2 + 4.0 / grid.hy**2 + max(qmax, 0.0)


def max_stable_dt(grid: Grid2D, q_values: np.ndarray, cfl_safety: float = 1.0) -> float:
    return 2.0 * cfl_safety / np.sqrt(spectral_bound(grid, q_values))


def check_cfl(grid: Grid2D, q_values: np.ndarray, tau: float, settings: SolverSettings) -> None:
    dt = tau / settings.substeps
    limit = max_stable_dt(grid, q_values, settings.cfl_safety)
    if dt >= limit:
        need = int(np.ceil(tau / limit))
        if tau / need >= limit:
            need += 1
        raise ConfigurationError(
            f"fine step tau/substeps = {dt:.4g} violates the CFL bound {limit:.4g}; "
            f"raise solver.substeps to at least {need}"
        )


def apply_operator(grid: Grid2D, q_values: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A_h f = -laplacian(f) + q f with mirror (Neumann) ghost nodes."""
    p = np.pad(f, 1, mode="reflect")
    lap = (p[1:-1, 2:] - 2.0 * f + p[1:-1, :-2]) / grid.hx**2 + (
        p[2:, 1:-1] - 2.0 * f + p[:-2, 1:-1]
    ) / grid.hy**2
    return q_values * f - lap


def _leapfrog(grid, q_values, start0, start1, dt, substeps, num_samples, emit):
    """Run the recurrence, calling emit(k, state) at every substeps-th step."""
    prev = start0.copy()
    emit(0, prev)
    if num_samples == 1:
        return
    cur = start1.copy()
    steps_done = 1
    for k in range(1, num_samples):
        target = k * substeps
        while steps_done < target:
            nxt = 2.0 * cur - prev - (dt * dt) * apply_operator(grid, q_values, cur)
            prev, cur = cur, nxt
            steps_done += 1
        emit(k, cur)


def _starts(grid, q_values, g, dt, ic_kind):
    if ic_kind == "cosine":
        return g, g - 0.5 * dt * dt * apply_operator(grid, q_values, g)
    if ic_kind == "antiderivative":
        ag = apply_operator(grid, q_values, g)
        return np.zeros_like(g), dt * g - (dt**3 / 6.0) * ag
    raise ConfigurationError(f"unknown initial-condition kind {ic_kind!r}")


def _validate_inputs(potential: Potential, axis: TimeAxis, settings: SolverSettings):
    if np.any(potential.values < 0.0):
        raise DomainError("simulation requires a nonnegative potential")
    check_cfl(potential.grid, potential.values, axis.tau, settings)


def simulate_snapshots(
    potential: Potential,
    sources: SourceSet,
    source_index: int,
    axis: TimeAxis,
    settings: SolverSettings,
    ic_kind: str = "cosine",
    num_samples: int | None = None,
) -> SnapshotSet:
    """Propagate one source and sample the field every tau.

    ic_kind "cosine" gives the field excited by initial value g_i;
    "antiderivative" gives its running time integral for the zero
    potential (initial value 0, initial velocity g_i).
    """
    _validate_inputs(potential, axis, settings)
    grid = potential.grid
    num = axis.n if num_samples is None else num_samples
    if num < 1:
        raise ConfigurationError("need at least one snapshot sample")
    dt = axis.tau / settings.substeps
    g = sources.field(grid, source_index)
    start0, start1 = _starts(grid, potential.values, g, dt, ic_kind)
    samples = np.empty((num,) + grid.shape)

    def emit(k, state):
        samples[k] = state

    _leapfrog(grid, potential.values, start0, start1, dt, settings.substeps, num, emit)
    if ic_kind == "antiderivative":
        kind = "background-antiderivative"
    else:
        kind = "true" if potential.values.any() else "background"
    return SnapshotSet(grid, source_index, axis.tau, kind, samples)


def simulate_transfer(
    potential: Potential,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
    mode: str = "siso",
    threads: int = 1,
) -> TransferData:
    """Record receiver inner products over 2n-1 samples.

    mode "siso" fills only the collocated diagonal, "mimo" the full
    matrix; every filled entry is tagged measured.
    """
    if mode not in ("siso", "mimo"):
        raise ConfigurationError(f"unknown acquisition mode {mode!r}")
    _validate_inputs(potential, axis, settings)
    grid = potential.grid
    num = axis.total_samples
    K = sources.count
    dt = axis.tau / settings.substeps
    weights = grid.node_weights

    def run(i: int) -> np.ndarray:
        g = sources.field(grid, i)
        if mode == "mimo":
            receivers = (weights * sources.fields(grid)).reshape(K, -1)
        else:
            receivers = (weights * g).reshape(1, -1)
        start0, start1 = _starts(grid, potential.values, g, dt, "cosine")
        rows = np.empty((receivers.shape[0], num))

        def emit(k, state):
            rows[:, k] = receivers @ state.ravel()

        _leapfrog(grid, potential.values, start0, start1, dt, settings.substeps, num, emit)
        return rows

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(K)))
    else:
        results = [run(i) for i in range(K)]

    values = np.zeros((K, K, num))
    mask = np.full((K, K), MaskState.ABSENT, dtype=np.int8)
    for i, rows in enumerate(results):
        if mode == "mimo":
            values[i] = rows
            mask[i, :] = MaskState.MEASURED
        else:
            values[i, i] = rows[0]
            mask[i, i] = MaskState.MEASURED
    return TransferData(values, mask, axis.tau)


def add_noise(data: TransferData, level: float, seed: int) -> TransferData:
    """Perturb measured entries with Gaussian noise of std level*RMS(measured)."""
    if level < 0.0:
        raise ConfigurationError("noise level must be nonnegative")
    if level == 0.0:
        return data
    mask = np.asarray(data.mask)
    measured = np.argwhere(mask == MaskState.MEASURED)
    if measured.size == 0:
        return data
    values = np.array(data.values)
    sel = tuple(measured.T)
    rms = float(np.sqrt(np.mean(values[sel] ** 2)))
    rng = np.random.default_rng(seed)
    values[sel] += level * rms * rng.standard_normal((measured.shape[0], data.num_samples))
    return TransferData(values, mask, data.tau)


@dataclass(frozen=True)
class BackgroundArtifacts:
    """Everything the inversion assumes known for the zero potential."""

    data: TransferData
    fields: tuple[SnapshotSet, ...]
    antiderivatives: tuple[SnapshotSet, ...]


def simulate_background(
    grid: Grid2D,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
) -> BackgroundArtifacts:
    """Full zero-potential transfer matrix plus per-source field histories.

    Closed form of the leapfrog result: each source is transformed once
    by DCT-I, its n-sample u0 and w0 stacks come from one inverse
    transform each, and the 2n-1 samples of F0_ij = <g_j, u0_i> are
    summed over modes with the Parseval weights, one sample at a time.
    """
    check_cfl(grid, np.zeros(grid.shape), axis.tau, settings)
    dt = axis.tau / settings.substeps
    # eigenvalues of the zero-potential A_h on the DCT-I modes cos(pi a ix / nx) cos(pi b iy / ny)
    sx = np.sin(np.pi * np.arange(grid.nx + 1) / (2 * grid.nx))
    sy = np.sin(np.pi * np.arange(grid.ny + 1) / (2 * grid.ny))
    lam = (4.0 / grid.hy**2) * sy[:, None] ** 2 + (4.0 / grid.hx**2) * sx[None, :] ** 2
    theta = 2.0 * np.arcsin(0.5 * dt * np.sqrt(lam))  # = arccos(1 - dt^2 lam / 2)
    steps = settings.substeps * np.arange(axis.n)
    phase = np.multiply.outer(steps, theta)
    cosine = np.cos(phase)
    # sin(m theta) / sin(theta) -> m on the constant mode, the only one with theta = 0
    sin_theta = np.sin(theta)
    constant = sin_theta == 0.0
    growth = np.sin(phase) / np.where(constant, 1.0, sin_theta)
    growth[:, constant] = steps[:, None]
    growth *= dt - (dt**3 / 6.0) * lam
    del phase

    fields, antiderivatives, spectra = [], [], []
    for i in range(sources.count):
        g_hat = scipy.fft.dctn(sources.field(grid, i), type=1)
        u0 = scipy.fft.idctn(cosine * g_hat, type=1, axes=(1, 2))
        w0 = scipy.fft.idctn(growth * g_hat, type=1, axes=(1, 2))
        fields.append(SnapshotSet(grid, i, axis.tau, "background", u0))
        antiderivatives.append(SnapshotSet(grid, i, axis.tau, "background-antiderivative", w0))
        spectra.append(g_hat.ravel())

    spectra = np.stack(spectra)
    # Parseval for DCT-I under trapezoidal weights: <f, g> = sum w_ab f_ab g_ab / (4 nx ny)
    weighted = spectra * (grid.node_weights.ravel() / (4.0 * grid.nx * grid.ny))
    theta = theta.ravel()
    values = np.empty((sources.count, sources.count, axis.total_samples))
    for k in range(axis.total_samples):
        values[:, :, k] = (weighted * np.cos(k * settings.substeps * theta)) @ spectra.T
    mask = np.full((sources.count, sources.count), MaskState.MEASURED, dtype=np.int8)
    return BackgroundArtifacts(
        TransferData(values, mask, axis.tau), tuple(fields), tuple(antiderivatives)
    )
