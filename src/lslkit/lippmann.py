"""Linearized time-domain Lippmann-Schwinger system and data lifting.

Both directions discretize the same space-time integral

    F0(k tau) - F(k tau) = int_0^{k tau} int  w0(x, k tau - t) u(x, t) q(x) dx dt

with the trapezoidal rule in time on the sample grid and trapezoidal
node weights in space: both sum the time convolution directly over the
anti-diagonals a + b = k of the sample grid, with half weight on each
anti-diagonal's two endpoints. `assemble_system` leaves q unknown and
stacks one row per (source, time index) against measured diagonal data;
`forward_lift` evaluates the same quadrature with a potential estimate
for all source pairs at once to predict the unmeasured off-diagonal
series. Replacing the unknown internal field u by the background field
gives the Born linearization; replacing it by the data-generated field
u = u0 * T (`rom.field_transform`) gives the sharper variant. Both
directions take the same inputs: the background stacks u0 and w0, each
(K, N, ny+1, nx+1) and passed with the grid they live on, and T.

T has one layout: a (B, G N, G N) stack of the diagonal blocks of a
block-diagonal source-major matrix, block g mixing the G = K / B
sources g G .. (g+1) G - 1 among themselves. The per-source ROM gives
B = K, the ROM of a full record B = 1, and Born K identity blocks.
Assembly mixes u0 by block g's columns one source at a time while it
writes that source's rows; the lift applies the blocks to the Gram
matrix of the background. No (K, N, ...) stack of internal fields
exists on either grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid2D, MaskState, Potential, TransferData, check_stack, prolong
from .errors import (
    DimensionError,
    OverRegularizationError,
    PreconditionError,
)

#: nodes per block of the `forward_lift` product; its scratch arrays hold
#: 2 * K * steps * LIFT_CHUNK_NODES doubles however large the grid is
LIFT_CHUNK_NODES = 1024

#: smallest relative truncation level `solve_tsvd` accepts: its eigenvalue
#: cut then sits at 1e-8 * lambda_max of the Gram matrix, far above roundoff
TSVD_MIN_THRESHOLD = 1e-4


@dataclass(frozen=True)
class LSSystem:
    """Dense linearized system G q = rhs on an inversion grid.

    `assemble_system` stacks its rows source by source, times 1 .. N-1
    within each; columns follow the row-major node order of `grid`, so a
    solution vector reshapes straight onto the grid.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    grid: Grid2D
    tsvd_threshold: float

    def __post_init__(self):
        if self.matrix.shape[0] != self.rhs.shape[0]:
            raise DimensionError("system rows and rhs disagree")
        if self.matrix.shape[1] != self.grid.num_nodes:
            raise DimensionError("system columns do not match the inversion grid")
        if not np.isfinite(self.matrix).all() or not np.isfinite(self.rhs).all():
            raise PreconditionError("system contains non-finite entries")
        if not self.tsvd_threshold >= TSVD_MIN_THRESHOLD:
            raise PreconditionError(
                f"TSVD threshold {self.tsvd_threshold} is below the floor {TSVD_MIN_THRESHOLD}"
            )


def _trapezoid_rows(w: np.ndarray, u: np.ndarray, tau: float, out: np.ndarray) -> None:
    """out[k-1] = tau sum_{a+b=k} c w[a] u[b] for k = 1 .. N-1, with
    c = 1/2 on the endpoints (k, 0) and (0, k) of each anti-diagonal and
    1 inside, for N samples of spatial rows w (node weights folded in)
    and u. Halves w[0] and u[0] in place."""
    num = len(u)
    w[0] *= 0.5
    u[0] *= 0.5
    np.multiply(w[0], u[1:], out=out)
    for a in range(1, num):
        out[a - 1 :] += w[a] * u[: num - a]
    out *= tau


def _check_time_axes(tau: float, other: float) -> None:
    if not abs(other - tau) <= 1e-12 * tau:
        raise DimensionError(f"sample intervals differ: {tau} vs {other}")


def _transform_steps(transform: np.ndarray, K: int, available: int) -> int:
    """Samples per field of a (B, G N, G N) block stack T over K = B G
    sources, at most `available`."""
    blocks, side = len(transform), transform.shape[-1]
    square = transform.shape == (blocks, side, side)
    if not square or not blocks or K % blocks or side % (K // blocks):
        raise DimensionError(f"transform of shape {transform.shape} does not fit {K} sources")
    steps = side * blocks // K
    if available < steps:
        raise DimensionError(f"inputs hold {available} of the {steps} transform samples")
    return steps


def assemble_system(
    w0: np.ndarray,
    u0: np.ndarray,
    transform: np.ndarray,
    data: TransferData,
    data0: TransferData,
    inv_grid: Grid2D,
    tsvd_threshold: float,
) -> LSSystem:
    """Rows (source j, time k) for k = 1 .. N-1 on the inversion grid.

    `w0` and `u0` are background (K, N', ny+1, nx+1) stacks on
    `inv_grid`, and the internal fields are u0 * T with T = `transform`,
    a (B, G N, G N) stack of diagonal blocks in the source-major order
    of `rom.field_transform`, N samples each; identity blocks give the
    Born system. Source j = g G + i is mixed from its block's G sources
    alone, T[g][:, iN:(i+1)N]^T times u0[gG:(g+1)G], and its rows, the
    trapezoid sums over the anti-diagonals a + b = k that `forward_lift`
    also takes, are written straight into the preallocated matrix. The
    right-hand side uses measured diagonal data only.
    """
    w0 = check_stack(inv_grid, w0, "antiderivative")
    u0 = check_stack(inv_grid, u0, "field")
    K = len(u0)
    if len(w0) != K or data.num_sources != K or data0.num_sources != K:
        raise DimensionError("source counts of fields, antiderivatives and data differ")
    data.require_measured_diagonal()
    tau = data.tau
    _check_time_axes(tau, data0.tau)
    available = min(u0.shape[1], w0.shape[1], data.num_samples, data0.num_samples)
    num = _transform_steps(transform, K, available)
    group = K // len(transform)
    weights = inv_grid.node_weights.ravel()
    matrix = np.empty((K * (num - 1), inv_grid.num_nodes))
    rhs = np.empty(K * (num - 1))
    for g, block in enumerate(transform):
        u0_flat = u0[g * group : (g + 1) * group, :num].reshape(group * num, -1)
        for i in range(group):
            j = g * group + i
            rows = slice(j * (num - 1), (j + 1) * (num - 1))
            field = block[:, i * num : (i + 1) * num].T @ u0_flat
            kernel = w0[j, :num].reshape(num, -1) * weights
            _trapezoid_rows(kernel, field, tau, matrix[rows])
            rhs[rows] = data0.values[j, j, 1:num] - data.values[j, j, 1:num]
    return LSSystem(matrix, rhs, inv_grid, tsvd_threshold)


def solve_tsvd(system: LSSystem) -> Potential:
    """Minimum-norm solution after truncating singular values below
    threshold * sigma_max. The result is sign-unconstrained.

    The SVD comes from the Gram matrix G G^T = U Lambda U^T, whose side
    is the row count K (N-1), smaller than the node count in every
    configuration. Singular values are sigma = sqrt(lambda), so the kept
    set is lambda >= threshold^2 * lambda_max, and with V_k =
    G^T U_k Lambda_k^{-1/2} the solution is x = G^T U_k Lambda_k^{-1}
    U_k^T b; the right singular vectors are never formed. Forming G G^T
    squares the condition number, but eigenvalues come out accurate to
    about machine epsilon times lambda_max, and the floor
    `TSVD_MIN_THRESHOLD` keeps the cut at or above 1e-8 * lambda_max,
    so every kept eigenpair lies far above roundoff.
    """
    matrix = system.matrix
    lam, u = np.linalg.eigh(matrix @ matrix.T)
    lam, u = lam[::-1], u[:, ::-1]  # descending, like singular values
    if lam.size == 0 or lam[0] <= 0.0:
        raise OverRegularizationError("system matrix is zero")
    keep = lam >= system.tsvd_threshold**2 * lam[0]
    if not keep.any():
        raise OverRegularizationError(
            f"threshold {system.tsvd_threshold} removed all "
            f"{lam.size} singular values"
        )
    basis = u[:, keep]
    values = matrix.T @ (basis @ ((basis.T @ system.rhs) / lam[keep]))
    return Potential(system.grid, values.reshape(system.grid.shape))


def residual_norm(system: LSSystem, potential: Potential) -> float:
    """Relative data misfit ||G q - rhs|| / ||rhs|| of a reconstruction."""
    misfit = system.matrix @ potential.values.ravel() - system.rhs
    scale = float(np.linalg.norm(system.rhs))
    norm = float(np.linalg.norm(misfit))
    return norm / scale if scale > 0.0 else norm


def forward_lift(
    fields: np.ndarray,
    transform: np.ndarray,
    q_est: Potential,
    w0: np.ndarray,
    data0: TransferData,
    measured: TransferData,
    grid: Grid2D,
) -> TransferData:
    """Predict off-diagonal transfer data from a potential estimate.

    `fields` is the background stack u0 and `w0` its antiderivative
    stack, both (K, N, ny+1, nx+1) on `grid`; the internal fields are
    u0 * T with T = `transform`, a (B, G steps, G steps) stack of
    diagonal blocks in the source-major order of `rom.field_transform`.
    Evaluates the forward integral on `grid` (the estimate is prolonged
    there if it lives on a coarser nested grid) for every pair i != j
    and writes the reciprocal mean of the (i, j) and (j, i) entries, so
    the record is exactly symmetric; diagonals are copied verbatim from
    the measured record. The output holds the `steps` samples of T's
    fields.

    One matrix product, accumulated over node blocks, gives the space
    integrals of the background, C0[j, a, (l, a')] = sum_c w0_j(a tau)[c]
    weight[c] q[c] u0_l(a' tau)[c] over all `steps` samples a'; then
    C = C0 blockdiag(T), one batched product of each block with its G
    sources' columns of C0, holds those of the internal fields,
    C[j, a, i, b] = sum_c w0_j(a tau)[c] weight[c] q[c] u_i(b tau)[c].
    Entry (i, j) at time k tau subtracts tau times the trapezoid sum of
    C over a + b = k, the quadrature of `_trapezoid_rows`.
    """
    fields = check_stack(grid, fields, "field")
    w0 = check_stack(grid, w0, "antiderivative")
    K = len(fields)
    if len(w0) != K or data0.num_sources != K or measured.num_sources != K:
        raise DimensionError("source counts of fields, antiderivatives and data differ")
    data0.require_full()
    measured.require_measured_diagonal()
    tau = measured.tau
    _check_time_axes(tau, data0.tau)
    available = min(fields.shape[1], w0.shape[1], data0.num_samples, measured.num_samples)
    steps = _transform_steps(transform, K, available)
    size = K * steps
    if q_est.grid == grid:
        q_flat = q_est.values.ravel()
    else:
        q_flat = prolong(q_est.values, q_est.grid, grid).ravel()
    weighted_q = grid.node_weights.ravel() * q_flat

    # rows (j, a) and columns (l, a'), the row order of T
    w0_flat = w0.reshape(K, w0.shape[1], -1)[:, :steps]
    u0_flat = fields.reshape(K, fields.shape[1], -1)[:, :steps]
    gram0 = np.zeros((size, size))
    for start in range(0, grid.num_nodes, LIFT_CHUNK_NODES):
        block = slice(start, start + LIFT_CHUNK_NODES)
        w = (w0_flat[..., block] * weighted_q[block]).reshape(size, -1)
        gram0 += w @ u0_flat[..., block].reshape(size, -1).T
    # block b's columns of C0 times T[b], written into C's same columns
    columns = lambda gram: gram.reshape(size, len(transform), -1).transpose(1, 0, 2)
    gram = np.empty((K, steps, K, steps))
    np.matmul(columns(gram0), transform, out=columns(gram))
    # trapezoid endpoints (k, 0) and (0, k) of every anti-diagonal a + b = k
    gram[:, 0] *= 0.5
    gram[..., 0] *= 0.5
    integral = np.zeros((K, K, steps))  # [j, i, k]
    for a in range(steps):
        integral[:, :, a:] += gram[:, a, :, : steps - a]
    integral[:, :, 0] = 0.0

    values = data0.values[:, :, :steps] - tau * integral.transpose(1, 0, 2)
    # the reciprocal mean: the ROM reads only 0.5 (F + F^T) of this record
    values = 0.5 * (values + values.transpose(1, 0, 2))
    diagonal = np.eye(K, dtype=bool)
    values[diagonal] = measured.values[diagonal, :steps]
    return TransferData(values, np.where(diagonal, MaskState.MEASURED, MaskState.LIFTED), tau)
