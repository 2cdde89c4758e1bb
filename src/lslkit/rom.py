"""Mass matrices from transfer data and data-generated internal fields.

The Gram matrix of wavefield snapshots is computable from boundary data
alone through the cosine angle-sum identity

    M_kl = ( F((k-l) tau) + F((k+l) tau) ) / 2 ,

blockwise for a full transfer record and scalar for the 1 x 1 record of
one source's diagonal series. Factoring M = U^T U and the background
Gram the same way yields the data-generated internal fields u = u0 * T
with T = inv(U0) * U: true orthogonalization coefficients re-expanded
in the orthonormalized background snapshots.

Only this module knows the time-major order of M (all sources at sample
0, then all at sample 1, ...), which makes U block upper triangular;
`field_transform` returns T in the source-major order of a (K, N, ...)
stack, so system assembly and the lift multiply the background by T as
it is. T is the only form a data-generated field takes: no (K, N, ...)
stack of u is ever materialized.

A lifted transfer matrix is not a true Gram matrix, so its mass matrix
is pushed back to SPD by eigenvalue thresholding before factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TransferData
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
    regularization: RegularizationRecord | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C", copy=True)
        m = self.block_size * self.num_steps
        if values.shape != (m, m):
            raise DimensionError(
                f"mass matrix shape {values.shape} does not match "
                f"{self.num_steps} steps of block size {self.block_size}"
            )
        # eigh passes NaN through silently and Cholesky would return a NaN factor
        if not np.isfinite(values).all():
            raise DegenerateDataError("mass matrix contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class OrthogonalizedBasis:
    """Upper-triangular factor U with U^T U equal to the mass matrix."""

    matrix: np.ndarray
    block_size: int
    num_steps: int

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64, order="C", copy=True)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def halved_length(n: int) -> int:
    """Samples per field of the block ROM of an n-sample record."""
    return (n - 1) // 2 + 1


def block_mass_from_data(data: TransferData, n: int | None = None) -> MassMatrix:
    """Block mass matrix of a full transfer record over its first n samples.

    Blocks (k, l) for k, l < `halved_length(n)` are the symmetrized
    transfer matrices combined by the angle-sum rule. A one-source record
    gives the scalar mass matrix of its series exactly: 0.5 (v + v) = v.
    """
    data.require_full()
    n = data.num_samples if n is None else n
    if n < 1 or n > data.num_samples:
        raise DimensionError(
            f"requested {n} samples, transfer record holds {data.num_samples}"
        )
    nb = halved_length(n)
    K = data.num_sources
    sym = 0.5 * (data.values[:, :, :n] + data.values[:, :, :n].transpose(1, 0, 2))
    k = np.arange(nb)
    blocks = 0.5 * (sym[:, :, np.abs(k[:, None] - k)] + sym[:, :, k[:, None] + k])
    values = blocks.transpose(2, 0, 3, 1).reshape(nb * K, nb * K)
    return MassMatrix(values, block_size=K, num_steps=nb)


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
    return MassMatrix(sym, mass.block_size, mass.num_steps, record)


def cholesky_upper(mass: MassMatrix) -> OrthogonalizedBasis:
    """Upper-triangular U with U^T U = M.

    For block mass matrices the scalar factorization of the full matrix
    is used; it is automatically block upper triangular with triangular
    diagonal blocks, so all orthogonalized snapshots come out mutually
    orthogonal.
    """
    try:
        # the transposed lower factor: numpy's `upper=` needs numpy >= 2.0
        upper = np.linalg.cholesky(mass.values).T
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"mass matrix is not numerically positive definite ({exc}); "
            "apply regularize_spd first"
        ) from exc
    return OrthogonalizedBasis(upper, mass.block_size, mass.num_steps)


def field_transform(basis: OrthogonalizedBasis, basis0: OrthogonalizedBasis) -> np.ndarray:
    """T = inv(U0) * U, the map from background to data-generated snapshots.

    The factors are time-major, like their mass matrices; T comes out
    source-major, the order of a (K, N, ...) stack: with S = num_steps,
    T has side K S, and field i at sample b is sum over (l, a) of
    T[l S + a, i S + b] u0_l(a tau). Identical factors give the identity.
    """
    size = basis.matrix.shape[0]
    if basis0.matrix.shape[0] != size or basis.block_size != basis0.block_size:
        raise DimensionError(
            f"factor shapes differ: {size}/{basis.block_size} vs "
            f"{basis0.matrix.shape[0]}/{basis0.block_size}"
        )
    # partial pivoting makes no row swaps on the upper-triangular U0
    transform = np.linalg.solve(basis0.matrix, basis.matrix)
    # source-major position l S + a holds time-major index a K + l
    order = np.arange(size).reshape(basis.num_steps, basis.block_size).T.ravel()
    return transform[np.ix_(order, order)]
