"""Mass matrices from transfer data and data-generated internal fields.

The Gram matrix of wavefield snapshots is computable from boundary data
alone through the cosine angle-sum identity

    M_kl = ( F((k-l) tau) + F((k+l) tau) ) / 2 ,

scalar per source for diagonal-only data and blockwise for a full
transfer matrix. Factoring M = U^T U and the background Gram the same
way yields the data-generated internal fields u = u0 * T with
T = inv(U0) * U: true orthogonalization coefficients re-expanded in the
orthonormalized background snapshots.

`field_transform` returns T, and T is the only form in which the
inversion carries a data-generated field: u is linear in T, and so are
both of its consumers. `apply_transform` mixes a (K, N, rows, cols)
background stack by T, one transpose-reshape and one matrix product, on
whatever grid it lives on (the pipeline hands it the background injected
onto the inversion grid); `synthesize_internal` is T applied to the
fine-grid background, the reference the factored path is tested
against.

A lifted transfer matrix is not a true Gram matrix, so its mass matrix
is pushed back to SPD by eigenvalue thresholding before factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Grid2D, TransferData, check_stack
from .errors import (
    DegenerateDataError,
    DimensionError,
    FactorizationError,
)

#: eigenvalue floor is the geometric mean of lambda_min+ and RIDGE * lambda_max+
SPD_RIDGE = 1.0e-12


@dataclass(frozen=True)
class RegularizationRecord:
    applied: bool
    eps0: float
    lambda_min_pos: float
    lambda_max_pos: float


@dataclass(frozen=True)
class MassMatrix:
    """Symmetric snapshot Gram matrix, scalar (block_size=1) or block."""

    values: np.ndarray
    block_size: int
    num_steps: int
    tau: float
    regularization: RegularizationRecord | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C", copy=True)
        m = self.block_size * self.num_steps
        if values.shape != (m, m):
            raise DimensionError(
                f"mass matrix shape {values.shape} does not match "
                f"{self.num_steps} steps of block size {self.block_size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class OrthogonalizedBasis:
    """Upper-triangular factor U with U^T U equal to the mass matrix."""

    matrix: np.ndarray
    block_size: int
    num_steps: int
    tau: float

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64, order="C", copy=True)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def siso_mass_from_data(diagonal_series: np.ndarray, n: int, tau: float) -> MassMatrix:
    """n x n mass matrix of one source from its 2n-1 diagonal samples."""
    series = np.asarray(diagonal_series, dtype=np.float64)
    if series.ndim != 1 or series.size < 2 * n - 1:
        raise DimensionError(
            f"need at least {2 * n - 1} diagonal samples for n={n}, got {series.shape}"
        )
    k = np.arange(n)
    values = 0.5 * (series[np.abs(k[:, None] - k[None, :])] + series[k[:, None] + k[None, :]])
    return MassMatrix(values, block_size=1, num_steps=n, tau=tau)


def block_mass_from_data(data: TransferData, n: int | None = None) -> MassMatrix:
    """Block mass matrix of a full transfer record of n samples.

    Blocks (k, l) for k, l = 0 .. floor((n-1)/2) are the symmetrized
    transfer matrices combined by the angle-sum rule, so the result is
    (floor((n-1)/2)+1) * K square.
    """
    data.require_full()
    n = data.num_samples if n is None else n
    if n < 1 or n > data.num_samples:
        raise DimensionError(
            f"requested {n} samples, transfer record holds {data.num_samples}"
        )
    nb = (n - 1) // 2 + 1
    K = data.num_sources
    sym = 0.5 * (data.values[:, :, :n] + data.values[:, :, :n].transpose(1, 0, 2))
    values = np.empty((nb * K, nb * K))
    for k in range(nb):
        for l in range(nb):
            values[k * K : (k + 1) * K, l * K : (l + 1) * K] = 0.5 * (
                sym[:, :, abs(k - l)] + sym[:, :, k + l]
            )
    return MassMatrix(values, block_size=K, num_steps=nb, tau=data.tau)


def gram_mass_matrix(stack: np.ndarray, grid: Grid2D, tau: float) -> MassMatrix:
    """Direct Gram matrix of a (K, N, ny+1, nx+1) snapshot stack on `grid`,
    the independent cross-check for the data formulas (time-major
    ordering for several sources)."""
    stack = check_stack(grid, stack, "snapshot")
    K, num_steps = stack.shape[:2]
    stacked = stack.transpose(1, 0, 2, 3).reshape(num_steps * K, -1)
    values = (stacked * grid.node_weights.ravel()) @ stacked.T
    values = 0.5 * (values + values.T)
    return MassMatrix(values, block_size=K, num_steps=num_steps, tau=tau)


def regularize_spd(mass: MassMatrix) -> MassMatrix:
    """Raise every eigenvalue below eps0 to eps0.

    eps0 = sqrt(1e-12 * lambda_max+ * lambda_min+) computed from the
    positive spectrum of the symmetrized matrix. If nothing lies below
    eps0 the symmetrized matrix is returned unchanged.
    """
    sym = 0.5 * (mass.values + mass.values.T)
    lam, vec = np.linalg.eigh(sym)
    positive = lam[lam > 0.0]
    if positive.size == 0:
        raise DegenerateDataError("mass matrix has no positive eigenvalue")
    lam_min = float(positive.min())
    lam_max = float(positive.max())
    eps0 = float(np.sqrt(SPD_RIDGE * lam_max * lam_min))
    clipped = lam < eps0
    if clipped.any():
        lifted = (vec * np.maximum(lam, eps0)) @ vec.T
        sym = 0.5 * (lifted + lifted.T)
    record = RegularizationRecord(bool(clipped.any()), eps0, lam_min, lam_max)
    return MassMatrix(sym, mass.block_size, mass.num_steps, mass.tau, record)


def cholesky_upper(mass: MassMatrix) -> OrthogonalizedBasis:
    """Upper-triangular U with U^T U = M.

    For block mass matrices the scalar factorization of the full matrix
    is used; it is automatically block upper triangular with triangular
    diagonal blocks, so all orthogonalized snapshots come out mutually
    orthogonal.
    """
    try:
        upper = scipy.linalg.cholesky(mass.values, lower=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"mass matrix is not numerically positive definite ({exc}); "
            "apply regularize_spd first"
        ) from exc
    return OrthogonalizedBasis(upper, mass.block_size, mass.num_steps, mass.tau)


def field_transform(basis: OrthogonalizedBasis, basis0: OrthogonalizedBasis) -> np.ndarray:
    """T = inv(U0) * U, the map from background to data-generated snapshots.

    Rows and columns are time-major, all sources at sample 0, then all
    at sample 1, and so on: T has side num_steps * block_size, and field
    i at sample b is sum over (a, l) of T[a K + l, b K + i] u0_l(a tau).
    Identical factors give the identity.
    """
    if basis.size != basis0.size or basis.block_size != basis0.block_size:
        raise DimensionError(
            f"factor shapes differ: {basis.size}/{basis.block_size} vs "
            f"{basis0.size}/{basis0.block_size}"
        )
    return scipy.linalg.solve_triangular(basis0.matrix, basis.matrix, lower=False)


def apply_transform(transform: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Data-generated fields u = u0 * T from a (K, N, rows, cols) background stack.

    The stack may live on any grid, and the result, a (K, steps, rows,
    cols) stack, lives on it too. T is (steps K) square in the time-major
    order of `field_transform`, and N must be at least `steps`.
    """
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 4:
        raise DimensionError(
            f"background stack has shape {background.shape}, expected (K, N, rows, cols)"
        )
    K, num = background.shape[:2]
    size = transform.shape[0]
    if transform.shape != (size, size) or size % K:
        raise DimensionError(
            f"transform of shape {transform.shape} does not fit {K} background sources"
        )
    steps = size // K
    if num < steps:
        raise DimensionError(f"background stack holds {num} samples, factors need {steps}")
    stacked = background[:, :steps].transpose(1, 0, 2, 3)  # time-major (steps, K, rows, cols)
    mixed = transform.T @ stacked.reshape(size, -1)
    return mixed.reshape(stacked.shape).transpose(1, 0, 2, 3)


def synthesize_internal(
    basis: OrthogonalizedBasis,
    basis0: OrthogonalizedBasis,
    background: np.ndarray,
) -> np.ndarray:
    """Data-generated internal fields u0 * inv(U0) * U, materialized.

    `background` is a (K, N, rows, cols) stack with K the block_size of
    the bases. Identical factors return the background snapshots
    unchanged. The inversion never calls this: it carries
    `field_transform` instead.
    """
    if len(background) != basis.block_size:
        raise DimensionError(
            f"expected {basis.block_size} background sources, got {len(background)}"
        )
    return apply_transform(field_transform(basis, basis0), background)
