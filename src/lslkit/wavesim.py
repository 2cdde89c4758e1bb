"""Leapfrog wave solver, closed-form background, boundary transfer data, noise.

The model is u_tt + A u = 0 on a closed rectangle with homogeneous
Neumann walls, A = -laplacian + q, advanced by

    u_{m+1} = 2 u_m - u_{m-1} - dt^2 A_h u_m

with mirror ghost nodes from the cosine start

    u_0 = g,  u_1 = (I - dt^2/2 A_h) g

which makes the sampled solution exactly the Chebyshev sequence
T_{kp}(S) g with S = I - dt^2/2 A_h and p substeps per sample, so
snapshot inner products obey the same angle-sum identities as the
continuum cosine solution. Downstream, that turns the data-to-mass-matrix
step into an identity for synthetic data instead of an approximation.
Stability requires dt^2 * rho(A_h) < 4; `check_cfl` keeps the fine step
below `CFL_SAFETY` of that bound. `config.ExperimentConfig.validate` runs
it at the model's largest amplitude, which bounds the true medium and the
zero background alike, so nothing here re-checks it (`errors`).

For the zero potential the recurrence need not be run: DCT-I
diagonalizes the mirror-Neumann A_h under trapezoidal weights (Strang,
"The discrete cosine transform", SIAM Rev. 1999), with eigenvalue
lambda and S = cos(theta) per mode. `simulate_background` evaluates the
Chebyshev polynomials mode by mode: cos(kp theta) for the field u0, and
for its running time integral w0 (the leapfrog from the antiderivative
start w_0 = 0, w_1 = dt g - dt^3/6 A_h g) sin(kp theta) / sin(theta)
times that first step. Its DCT-I is a product with two small cosine
matrices, Cy @ f @ Cx^T of sides ny+1 and nx+1: plain GEMMs, which on
the desk grids beat an FFT-based DCT. The tests hold it against a
leapfrog reference with both starts.

There is one stepping loop, `_leapfrog`, a generator of the sampled
states. It advances states of shape (..., ny+1, nx+1) in three rotating
buffers plus one buffer for the operator's differences, so a step
allocates nothing, and `simulate_transfer` steps all K sources as one
(K, ny+1, nx+1) array through the first n samples only. One record
builder, `_angle_sum_record`, turns n samples of either medium into all
2n-1 record samples by the Chebyshev angle-sum: it reads the leapfrog's
states for the true medium, which halves its fine steps, and the modal
states g_hat cos(k p theta) for the background under the Parseval
weights node_weights / (4 nx ny), so F0 reads no stack.

This module defines the one wavefield format: a history is a plain
float64 array. `simulate_background` returns F0, and the background
over the N samples a step reads comes in the form that step reads.
An inversion reads `background_stacks` on its inversion grid, nested in
the simulation grid at ratio r, which takes rows ::r of Cy and columns
::r of Cx^T and allocates no fine history: u0 is a source-major,
read-only (K, N, ny+1, nx+1) stack, and w0 is handed out one source at a
time, each (N, ny+1, nx+1) history evaluated when the step asks for it,
so an inversion holds u0 and one source of w0. The lift reads every
simulation-grid node once, so `BackgroundBands` evaluates u0 and w0
there one band of rows at a time, and no simulation-grid stack exists.
Both take their modal coefficients from `_coefficients`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (Grid2D, MaskState, Potential, SourceSet, TimeAxis, TransferData,
                   refinement_ratio)
from .errors import ConfigurationError

#: the largest fine step `check_cfl` accepts, as a fraction of the stability bound
CFL_SAFETY = 0.9


@dataclass(frozen=True)
class SolverSettings:
    """Time discretization: `substeps` fine steps per sample interval."""

    substeps: int

    def __post_init__(self):
        if self.substeps < 1:
            raise ConfigurationError("solver substeps must be a positive integer")


def check_cfl(grid: Grid2D, qmax: float, tau: float, settings: SolverSettings) -> None:
    dt = tau / settings.substeps
    # rho(A_h) <= 4/hx^2 + 4/hy^2 + qmax for 0 <= q <= qmax
    limit = 2.0 * CFL_SAFETY / np.sqrt(4.0 / grid.hx**2 + 4.0 / grid.hy**2 + qmax)
    if dt >= limit:
        need = int(np.ceil(tau / limit))
        if tau / need >= limit:
            need += 1
        raise ConfigurationError(
            f"fine step tau/substeps = {dt:.4g} violates the CFL bound {limit:.4g}; "
            f"raise solver.substeps to at least {need}"
        )


def apply_operator(
    grid: Grid2D,
    q_values: np.ndarray,
    f: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """A_h f = -laplacian(f) + q f with mirror (Neumann) ghost nodes.

    f may carry leading axes, shape (..., ny+1, nx+1). The result is
    built in `out` from neighbour differences along each axis, without
    a padded copy of f: the mirror ghost doubles the one difference at
    either wall. A constant f has zero differences, so A_h 1 = 0
    exactly. The differences go into `scratch`, first along x, then
    along y. Each buffer that is not given is allocated; a given one is
    a C-contiguous float64 array of f's shape that shares no memory with
    f or with the other buffer, as `_leapfrog`'s own are, so a caller
    that passes both allocates nothing.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    out = np.empty(f.shape) if out is None else out
    scratch = np.empty(f.shape) if scratch is None else scratch
    np.multiply(q_values, f, out=out)
    # x neighbours are adjacent in memory: one pass over the flat arrays
    # (far faster than row-offset slices), with the differences that
    # straddle two rows zeroed
    dx = scratch
    np.subtract(f.reshape(-1)[1:], f.reshape(-1)[:-1], out=dx.reshape(-1)[:-1])
    dx[..., :, -1] = 0.0
    dx *= 1.0 / grid.hx**2
    out_flat, dx_flat = out.reshape(-1), dx.reshape(-1)
    out_flat -= dx_flat
    out_flat[1:] += dx_flat[:-1]
    out[..., :, 0] -= dx[..., :, 0]
    out[..., :, -1] += dx[..., :, -2]
    dy = scratch[..., 1:, :]
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=dy)
    dy *= 1.0 / grid.hy**2
    out[..., :-1, :] -= dy
    out[..., 1:, :] += dy
    out[..., 0, :] -= dy[..., 0, :]
    out[..., -1, :] += dy[..., -1, :]
    return out


def _leapfrog(grid, q_values, start0, start1, dt, substeps, num_samples):
    """Yield the state at every substeps-th step, samples 0 .. num_samples-1.

    States may carry leading (source) axes. They live in three buffers
    that rotate in place, so a yielded state is overwritten by later
    steps: the consumer must copy what it keeps. A fourth buffer holds
    the operator's differences, so a step allocates nothing.
    """
    prev = np.array(start0, dtype=np.float64)
    yield prev
    cur = np.array(start1, dtype=np.float64)
    work = np.empty_like(cur)
    scratch = np.empty_like(cur)
    steps_done = 1
    for k in range(1, num_samples):
        target = k * substeps
        while steps_done < target:
            # work = 2 cur - prev - dt^2 A_h cur, then rotate
            apply_operator(grid, q_values, cur, out=work, scratch=scratch)
            work *= -dt * dt
            work -= prev
            work += cur
            work += cur
            prev, cur, work = cur, work, prev
            steps_done += 1
        yield cur


def _angle_sum_record(samples, num_samples: int, weights: np.ndarray) -> np.ndarray:
    """The K x K record over 2n-1 samples from the n states u(m tau).

    `samples` yields the (K, ...) states for m = 0 .. n-1, with u(0) = g
    the sources. F(0) and F(tau) are the receiver products F[i, j, k] =
    <g_j, u_i(k tau)>; since u_i(m tau) = T_{mp}(S) g_i with S
    self-adjoint under the trapezoid `weights`, the angle-sum T_{a+b} =
    2 T_a T_b - T_{|a-b|} gives the rest from sample m:

        F(2m)   = 2 <u_j(m), u_i(m)>   - F(0)     (m >= 1)
        F(2m-1) = 2 <u_j(m), u_i(m-1)> - F(tau)   (m >= 2)

    A state is read only while it is current, so the leapfrog may
    overwrite it afterwards.
    """
    states = (state.reshape(len(state), -1) for state in samples)
    first = next(states)
    K = len(first)
    # W g until sample 1 is read, then W u(m-1) as sample m arrives
    weighted = weights * first
    values = np.empty((K, K, 2 * num_samples - 1))
    values[:, :, 0] = first @ weighted.T
    for m, state in enumerate(states, start=1):
        if m == 1:
            values[:, :, 1] = state @ weighted.T
        else:
            values[:, :, 2 * m - 1] = 2.0 * (weighted @ state.T) - values[:, :, 1]
        np.multiply(weights, state, out=weighted)
        values[:, :, 2 * m] = 2.0 * (state @ weighted.T) - values[:, :, 0]
    return values


def simulate_transfer(
    potential: Potential,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
) -> TransferData:
    """Record the full K x K transfer matrix over 2n-1 samples from n.

    All sources step together through samples 0..n-1 only, and
    `_angle_sum_record` gives the 2n-1 record samples from them. Every
    entry is tagged measured.
    """
    grid = potential.grid
    dt = axis.tau / settings.substeps
    g = sources.fields(grid)
    start1 = g - 0.5 * dt * dt * apply_operator(grid, potential.values, g)
    states = _leapfrog(grid, potential.values, g, start1, dt, settings.substeps, axis.n)
    values = _angle_sum_record(states, axis.n, grid.node_weights.reshape(-1))
    mask = np.full((sources.count, sources.count), MaskState.MEASURED, dtype=np.int8)
    return TransferData(values, mask, axis.tau)


def add_noise(data: TransferData, level: float, seed: int) -> TransferData:
    """Perturb measured entries with Gaussian noise of std level*RMS(measured)."""
    if level == 0.0:
        return data
    measured = np.argwhere(data.mask == MaskState.MEASURED)
    values = np.array(data.values)
    sel = tuple(measured.T)
    rms = float(np.sqrt(np.mean(values[sel] ** 2)))
    rng = np.random.default_rng(seed)
    values[sel] += level * rms * rng.standard_normal((measured.shape[0], data.num_samples))
    return TransferData(values, data.mask, data.tau)


def _dct1_matrix(size: int) -> np.ndarray:
    """(size, size) matrix of the unnormalized DCT-I: C @ x is `dct(x, type=1)`.

    C[k, m] = cos(pi k m / (size - 1)) times 2 off the end points m = 0
    and m = size - 1. Reducing k m modulo 2 (size - 1) first keeps the
    cosine argument below 2 pi, so every entry is accurate to roundoff.
    """
    period = size - 1
    k = np.arange(size)
    matrix = np.cos(np.pi * (np.outer(k, k) % (2 * period)) / period)
    matrix[:, 1:-1] *= 2.0
    return matrix


def _modes(grid: Grid2D, axis: TimeAxis, settings: SolverSettings):
    """The closed form's time stepping on the simulation grid `grid`: dt;
    per DCT-I mode cos(pi a ix / nx) cos(pi b iy / ny), the eigenvalue
    lambda of the zero-potential A_h and the angle theta = arccos(1 -
    dt^2 lambda / 2) of one fine step; and the fine step counts k p of
    the n samples."""
    dt = axis.tau / settings.substeps
    sx = np.sin(np.pi * np.arange(grid.nx + 1) / (2 * grid.nx))
    sy = np.sin(np.pi * np.arange(grid.ny + 1) / (2 * grid.ny))
    lam = (4.0 / grid.hy**2) * sy[:, None] ** 2 + (4.0 / grid.hx**2) * sx[None, :] ** 2
    theta = 2.0 * np.arcsin(0.5 * dt * np.sqrt(lam))  # = arccos(1 - dt^2 lam / 2)
    return dt, lam, theta, settings.substeps * np.arange(axis.n)


def _spectra(grid: Grid2D, sources: SourceSet):
    """The cosine matrices Cy and Cx, and each source's DCT-I g_hat = Cy @ g @ Cx^T."""
    cy, cx = _dct1_matrix(grid.ny + 1), _dct1_matrix(grid.nx + 1)
    return cy, cx, np.stack([cy @ sources.field(grid, i) @ cx.T for i in range(sources.count)])


def _coefficients(dt, lam, theta, steps):
    """The closed form's modal coefficients, laid out as `theta` broadcast
    against the fine step counts `steps` (`lam` as `theta`): first
    cos(k p theta) for u0, then the w0 growth factor sin(k p theta) /
    sin(theta) (dt - dt^3 lambda / 6) of the leapfrog from the
    antiderivative start. The two are distinct arrays: `np.cos` allocates
    the cosine, and the growth factor overwrites the spent phase array."""
    phase = theta * steps
    yield np.cos(phase)
    # sin(m theta) / sin(theta) -> m on the constant mode, the only one with theta = 0
    sin_theta = np.sin(theta)
    constant = sin_theta == 0.0
    growth = np.sin(phase, out=phase)  # phase is spent
    growth /= np.where(constant, 1.0, sin_theta)
    np.copyto(growth, steps, where=constant)
    growth *= dt - (dt**3 / 6.0) * lam
    yield growth


def background_stacks(
    grid: Grid2D,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
    stack_grid: Grid2D,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """u0 and w0 over the samples of `axis` on `stack_grid`, the simulation
    grid `grid` or a nested coarsening of it at ratio r.

    u0 is the read-only (K, N, ny+1, nx+1) stack. w0 is never stacked: it
    is an iterator that evaluates source i's (N, ny+1, nx+1) history when
    the consumer asks for it, source by source, so a step holds one source
    of it at a time.

    Source i's samples are the inverse transforms Cy @ (c_k g_hat) @
    Cx^T / (4 nx ny) of the mode-wise coefficients c_k (`_coefficients`).
    On `stack_grid` a sample is rows ::r of Cy times c_k g_hat, times
    columns ::r of Cx^T, one GEMM pair per sample, so its first N samples
    are bitwise the evaluation over `TimeAxis(tau, N)`.
    """
    ratio = refinement_ratio(grid, stack_grid)  # nested, or refused before any work
    dt, lam, theta, steps = _modes(grid, axis, settings)
    cy, cx, spectra = _spectra(grid, sources)
    rows = np.ascontiguousarray(cy[::ratio])
    # C-ordered, as numpy's stacked matmul runs far slower on a transposed view
    columns = np.ascontiguousarray(cx[::ratio].T)
    norm = 4.0 * grid.nx * grid.ny  # idct_1 is dct_1 / (2 (N - 1)) per axis
    coefficients = _coefficients(dt, lam, theta, steps[:, None, None])
    modal = np.empty((axis.n,) + grid.shape)

    def history(c, g_hat, out=None):
        np.multiply(c, g_hat, out=modal)
        return np.divide((rows @ modal) @ columns, norm, out=out)

    cosine = next(coefficients)
    fields = np.empty((sources.count, axis.n) + stack_grid.shape)
    for i, g_hat in enumerate(spectra):
        history(cosine, g_hat, out=fields[i])
    fields.setflags(write=False)
    del cosine
    growth = next(coefficients)
    return fields, (history(growth, g_hat) for g_hat in spectra)


#: bytes of one array of a band `BackgroundBands` yields; a band holds at least one row
BAND_BYTES = 3 * 2**20


@dataclass(frozen=True)
class BackgroundBands:
    """u0 and w0 on the simulation grid `grid` over the samples of `axis`,
    evaluated band by band of grid rows as the consumer iterates, so no
    (K, N, ny+1, nx+1) stack exists. Its length is the source count K.

    Each band is (rows, u0, w0): a slice of grid rows and two arrays of
    shape (nx+1, |rows|, K, N), node (y, x) of the band at [x, y -
    rows.start], and each holds at most `BAND_BYTES`, or one row. A band
    is the closed form of `background_stacks` with the y transform done
    first: A[a, (r, i), b] = Cy[r, b] g_hat_i[b, a] holds all K sources,
    one batched product over the nx+1 x modes gives Y = A @ c for the
    coefficients c laid out (nx+1, ny+1, N) with 1 / (4 nx ny) folded in,
    and one GEMM Cx @ Y gives the band, already node-major.
    """

    grid: Grid2D
    sources: SourceSet
    axis: TimeAxis
    settings: SolverSettings

    def __len__(self) -> int:
        return self.sources.count

    def __iter__(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        grid, K, N = self.grid, self.sources.count, self.axis.n
        dt, lam, theta, steps = _modes(grid, self.axis, self.settings)
        cy, cx, spectra = _spectra(grid, self.sources)
        norm = 4.0 * grid.nx * grid.ny
        coefficients = list(_coefficients(dt, lam.T[..., None], theta.T[..., None], steps))
        for c in coefficients:
            c /= norm
        g_hat = np.ascontiguousarray(spectra.transpose(2, 0, 1))  # [a, i, b]
        height, width = grid.ny + 1, grid.nx + 1
        size = max(1, BAND_BYTES // (8 * width * K * max(N, height)))
        for start in range(0, height, size):
            rows = slice(start, min(start + size, height))
            mixed = (g_hat[:, None] * cy[rows, None, :]).reshape(width, -1, height)
            yield rows, *[(cx @ (mixed @ c).reshape(width, -1)).reshape(width, -1, K, N)
                          for c in coefficients]


def simulate_background(
    grid: Grid2D,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
) -> TransferData:
    """Full zero-potential transfer matrix F0 on the simulation grid `grid`.

    Closed form of the leapfrog result: each source is transformed once
    by DCT-I (`_spectra`) and every mode advances as a Chebyshev
    polynomial (`_modes`). The 2n-1 samples never read a stack:
    `_angle_sum_record` runs over the modal states g_hat cos(k p theta)
    of all sources, with the Parseval weights node_weights / (4 nx ny)
    under which the DCT-I keeps the trapezoid inner product, as the true
    medium's record comes from its leapfrog states. The u0 and w0 stacks
    are `background_stacks`.
    """
    _, _, theta, steps = _modes(grid, axis, settings)
    _, _, spectra = _spectra(grid, sources)
    norm = 4.0 * grid.nx * grid.ny
    state = np.empty(spectra.shape)
    cosine = np.cos(np.multiply.outer(steps, theta))
    modal_states = (np.multiply(spectra, c, out=state) for c in cosine)
    values = _angle_sum_record(modal_states, axis.n, grid.node_weights.reshape(-1) / norm)
    mask = np.full((sources.count, sources.count), MaskState.MEASURED, dtype=np.int8)
    return TransferData(values, mask, axis.tau)
