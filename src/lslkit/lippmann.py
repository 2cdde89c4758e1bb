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
directions take the background and T, passed with the grid they live
on, in the form each reads. Assembly takes the stack u0, (K, N, ny+1,
nx+1), and w0 as any iterable of its K per-source (N, ny+1, nx+1)
histories, read one source at a time, in source order (a whole (K, N,
...) stack iterates the same way). The lift reads every node once, so it
takes u0 and w0 together in row bands (`forward_lift`) and holds no
stack of either.

T has one layout: a (B, G N, G N) stack of the diagonal blocks of a
block-diagonal source-major matrix, block g mixing the G = K / B
sources g G .. (g+1) G - 1 among themselves. The per-source ROM gives
B = K, the ROM of a full record B = 1, and Born K identity blocks.
Assembly mixes u0 by block g's columns one source at a time while it
writes that source's rows; the lift applies the blocks to the Gram
matrix of the background. No (K, N, ...) stack of internal fields
exists on either grid, and no stack of w0 need exist.

Neither direction checks what it is handed (`errors`): `pipeline` builds
T from a record its gate passed and the background over T's N samples,
on the grid it passes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Grid2D, MaskState, Potential, TransferData, prolong
from .errors import DegenerateDataError, OverRegularizationError

#: smallest relative truncation level the config's `inversion.tsvd` takes:
#: `solve_tsvd`'s eigenvalue cut then sits at 1e-8 * lambda_max of the Gram
#: matrix, far above roundoff
TSVD_MIN_THRESHOLD = 1e-4


@dataclass(frozen=True)
class LSSystem:
    """Dense linearized system G q = rhs on an inversion grid.

    `assemble_system` stacks its rows source by source, times 1 .. N-1
    within each; columns follow the row-major node order of `grid`, so a
    solution vector reshapes straight onto the grid. Overflow raises DegenerateDataError.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    grid: Grid2D
    tsvd_threshold: float

    def __post_init__(self):
        if not np.isfinite(self.matrix).all() or not np.isfinite(self.rhs).all():
            raise DegenerateDataError("system contains non-finite entries")


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


def field_samples(transform: np.ndarray, num_sources: int) -> int:
    """N, the samples per internal field of a (B, G N, G N) block stack T over K sources."""
    return transform.shape[-1] * len(transform) // num_sources


def assemble_system(
    w0: Iterable[np.ndarray],
    u0: np.ndarray,
    transform: np.ndarray,
    data: TransferData,
    data0: TransferData,
    inv_grid: Grid2D,
    tsvd_threshold: float,
) -> LSSystem:
    """Rows (source j, time k) for k = 1 .. N-1 on the inversion grid.

    `u0` is the background (K, N, ny+1, nx+1) stack on `inv_grid` and
    `w0` an iterable of the K (N, ny+1, nx+1) histories of its
    antiderivative there, read one source at a time. The internal fields
    are u0 * T with T = `transform`, a (B, G N, G N) stack of diagonal
    blocks in the source-major order of `rom.field_transform`, N samples
    each; identity blocks give the Born system. Source j = g G + i is
    mixed from its block's G sources alone, T[g][:, iN:(i+1)N]^T times
    u0[gG:(g+1)G], and its rows, the trapezoid sums over the
    anti-diagonals a + b = k of that field and w0's history j, which
    `forward_lift` also takes, are written straight into the preallocated
    matrix. The right-hand side uses measured diagonal data only.
    """
    K = len(u0)
    num = field_samples(transform, K)
    group = K // len(transform)
    weights = inv_grid.node_weights.ravel()
    matrix = np.empty((K * (num - 1), inv_grid.num_nodes))
    rhs = np.empty(K * (num - 1))
    for j, history in enumerate(w0):
        g, i = divmod(j, group)
        rows = slice(j * (num - 1), (j + 1) * (num - 1))
        u0_flat = u0[g * group : (g + 1) * group].reshape(group * num, -1)
        field = transform[g][:, i * num : (i + 1) * num].T @ u0_flat
        _trapezoid_rows(history.reshape(num, -1) * weights, field, data.tau, matrix[rows])
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
    about machine epsilon times lambda_max, and the config's floor on
    `inversion.tsvd`, `TSVD_MIN_THRESHOLD`, keeps the cut at or above
    1e-8 * lambda_max, so every kept eigenpair lies far above roundoff.
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
    """Relative data misfit ||G q - rhs|| / ||rhs|| of a reconstruction.

    A finite record can still be too large for the squares the norms
    sum: they overflow, and inf / inf is NaN. So an estimate or a
    residual that is not finite raises DegenerateDataError instead of
    being returned; the arithmetic on finite results is unchanged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        misfit = system.matrix @ potential.values.ravel() - system.rhs
        scale = float(np.linalg.norm(system.rhs))
        norm = float(np.linalg.norm(misfit))
    residual = norm / scale if scale > 0.0 else norm
    if not (np.isfinite(residual) and np.isfinite(potential.values).all()):
        raise DegenerateDataError(
            "the residual is not finite: the record's samples overflow the misfit norm"
        )
    return residual


def forward_lift(
    fields,
    transform: np.ndarray,
    q_est: Potential,
    data0: TransferData,
    measured: TransferData,
    grid: Grid2D,
) -> TransferData:
    """Predict off-diagonal transfer data from a potential estimate.

    `fields` is the background on `grid` in row bands: its length is the
    source count K, and it yields (rows, u0, w0) for consecutive slices of
    grid rows that cover the grid, u0 and w0 of shape (nx+1, |rows|, K,
    steps) holding node (y, x) at [x, y - rows.start], as
    `wavesim.BackgroundBands` evaluates them; each band is read once, and
    `data0` is the full background record F0. The
    internal fields are u0 * T with T = `transform`, a (B, G steps, G
    steps) stack of diagonal blocks in the source-major order of
    `rom.field_transform`. Evaluates the forward integral on `grid` (the
    estimate is prolonged there from its own nested grid, the same grid
    included) for every pair i != j and writes the reciprocal mean of the
    (i, j) and (j, i) entries, so the record is exactly symmetric;
    diagonals are copied verbatim from the measured record. The output
    holds the `steps` samples of T's fields.

    The space integrals of the background,
    C0[j, a, (l, a')] = sum_c w0_j(a tau)[c] weight[c] q[c] u0_l(a' tau)[c]
    over all `steps` samples a', are summed band by band, one GEMM of the
    band's weighted w0 with its u0 each; then
    C = C0 blockdiag(T), one batched product of each block with its G
    sources' columns of C0, holds those of the internal fields,
    C[j, a, i, b] = sum_c w0_j(a tau)[c] weight[c] q[c] u_i(b tau)[c].
    Entry (i, j) at time k tau subtracts tau times the trapezoid sum of
    C over a + b = k, the quadrature of `_trapezoid_rows`.
    """
    K = len(fields)
    steps = field_samples(transform, K)
    tau = measured.tau
    size = K * steps
    weighted_q = grid.node_weights * prolong(q_est.values, q_est.grid, grid)

    # rows (j, a) and columns (l, a'), the row order of T; C's memory takes
    # each band's product until C0 is whole
    gram0 = np.zeros((size, size))
    gram = np.empty((K, steps, K, steps))
    product = gram.reshape(size, size)
    for rows, u0, w0 in fields:
        w0 = (w0 * weighted_q[rows].T[..., None, None]).reshape(-1, size)
        gram0 += np.matmul(w0.T, u0.reshape(-1, size), out=product)
        del u0, w0  # freed before the next band is evaluated
    # block b's columns of C0 times T[b], written into C's same columns
    columns = lambda gram: gram.reshape(size, len(transform), -1).transpose(1, 0, 2)
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
