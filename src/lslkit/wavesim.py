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
Stability requires dt^2 * rho(A_h) < 4; `SolverSettings.cfl_safety`
shrinks that bound.

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
states for the true medium and the u0 stack for the background, which
halves the fine steps of the one and needs no spectral sum for the
other.

This module defines the one wavefield format: a history is a plain
float64 array. `simulate_background` returns the source-major, read-only
(K, n, ny+1, nx+1) stacks u0 and w0, which every consumer takes together
with the grid they live on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid2D, MaskState, Potential, SourceSet, TimeAxis, TransferData
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
    along y. Each buffer that is not given is allocated; a given one
    must be a C-contiguous float64 array of f's shape that shares no
    memory with f or with the other buffer, so a caller that passes
    both allocates nothing.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    out = np.empty(f.shape) if out is None else out
    scratch = np.empty(f.shape) if scratch is None else scratch
    for buffer in (out, scratch):
        if not buffer.flags.c_contiguous or buffer.dtype != np.float64 or buffer.shape != f.shape:
            raise ValueError("apply_operator needs C-contiguous float64 buffers of f's shape")
    if any(np.may_share_memory(a, b) for a, b in ((out, f), (scratch, f), (scratch, out))):
        raise ValueError("apply_operator buffers must not share memory with f or each other")
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
    if not (np.isfinite(potential.values).all() and (potential.values >= 0.0).all()):
        raise DomainError("simulation requires a finite, nonnegative potential")
    grid = potential.grid
    check_cfl(grid, potential.values, axis.tau, settings)
    dt = axis.tau / settings.substeps
    g = sources.fields(grid)
    start1 = g - 0.5 * dt * dt * apply_operator(grid, potential.values, g)
    states = _leapfrog(grid, potential.values, g, start1, dt, settings.substeps, axis.n)
    values = _angle_sum_record(states, axis.n, grid.node_weights.reshape(-1))
    mask = np.full((sources.count, sources.count), MaskState.MEASURED, dtype=np.int8)
    return TransferData(values, mask, axis.tau)


def add_noise(data: TransferData, level: float, seed: int) -> TransferData:
    """Perturb measured entries with Gaussian noise of std level*RMS(measured)."""
    if not (np.isfinite(level) and level >= 0.0):
        raise ConfigurationError("noise level must be finite and nonnegative")
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


@dataclass(frozen=True)
class BackgroundArtifacts:
    """Everything the inversion assumes known for the zero potential.

    `fields` (u0) and `antiderivatives` (w0) are read-only snapshot
    stacks of shape (K, n, ny+1, nx+1) on the simulation grid.
    """

    data: TransferData
    fields: np.ndarray
    antiderivatives: np.ndarray


def simulate_background(
    grid: Grid2D,
    sources: SourceSet,
    axis: TimeAxis,
    settings: SolverSettings,
) -> BackgroundArtifacts:
    """Full zero-potential transfer matrix plus the u0 and w0 stacks.

    Closed form of the leapfrog result: each source is transformed once
    by DCT-I, g_hat = Cy @ g @ Cx^T with the cosine matrices Cy and Cx
    built once per call, and its n samples of u0 and w0 are the inverse
    transforms Cy @ (c_k g_hat) @ Cx^T / (4 nx ny) of the mode-wise
    coefficients c_k, written into the preallocated stacks through two
    (n, ny+1, nx+1) scratch arrays that every source and both stacks
    reuse, so no per-source temporary is allocated. The 2n-1
    samples of F0 come from the u0 stack by `_angle_sum_record`, as the
    true medium's record comes from its leapfrog states.
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

    cy, cx = _dct1_matrix(grid.ny + 1), _dct1_matrix(grid.nx + 1)
    norm = 4.0 * grid.nx * grid.ny  # idct_1 is dct_1 / (2 (N - 1)) per axis
    fields = np.empty((sources.count, axis.n) + grid.shape)
    antiderivatives = np.empty_like(fields)
    modal, half = np.empty(fields.shape[1:]), np.empty(fields.shape[1:])
    for i in range(sources.count):
        g_hat = cy @ sources.field(grid, i) @ cx.T
        for coefficients, stack in ((cosine, fields), (growth, antiderivatives)):
            np.multiply(coefficients, g_hat, out=modal)
            np.matmul(modal, cx.T, out=half)
            np.matmul(cy, half, out=stack[i])
            stack[i] /= norm
    fields.setflags(write=False)
    antiderivatives.setflags(write=False)

    values = _angle_sum_record(fields.swapaxes(0, 1), axis.n, grid.node_weights.reshape(-1))
    mask = np.full((sources.count, sources.count), MaskState.MEASURED, dtype=np.int8)
    return BackgroundArtifacts(TransferData(values, mask, axis.tau), fields, antiderivatives)
