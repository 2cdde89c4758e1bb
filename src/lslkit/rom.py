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
it is. It returns one square matrix; the pipeline stacks the per-source
ones of the SISO step as the diagonal blocks of its T. T is the only
form a data-generated field takes: no (K, N, ...) stack of u is ever
materialized.

A lifted transfer matrix is not a true Gram matrix, so its mass matrix
is pushed back to SPD by eigenvalue thresholding before factorization.

The ROM works on plain arrays: a record is its (K, K, T) values, a mass
matrix and its factor are square float64 ndarrays, and only
`regularize_spd` returns more, the pair (matrix, RegularizationRecord).
It re-checks no input (`errors`): `pipeline` hands over the values of
full records of at least n samples, so the ROM fails only numerically,
with DegenerateDataError (exit 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError

#: eigenvalue floor is the geometric mean of lambda_min+ and RIDGE * lambda_max+
SPD_RIDGE = 1.0e-12


@dataclass(frozen=True)
class RegularizationRecord:
    applied: bool
    eps0: float


class Regularized(NamedTuple):
    """`regularize_spd`'s result: the SPD matrix and how it was made."""

    matrix: np.ndarray
    regularization: RegularizationRecord


def halved_length(n: int) -> int:
    """Samples per field of the block ROM of an n-sample record."""
    return (n - 1) // 2 + 1


def block_mass_from_data(values: np.ndarray, n: int) -> np.ndarray:
    """Block mass matrix of a full record's (K, K, T) values over the first n >= 1 samples.

    Blocks (k, l) for k, l < `halved_length(n)` are the symmetrized
    transfer matrices combined by the angle-sum rule. A one-source record
    gives the scalar mass matrix of its series exactly: 0.5 (v + v) = v.
    """
    nb = halved_length(n)
    K = len(values)
    sym = 0.5 * (values[:, :, :n] + values[:, :, :n].transpose(1, 0, 2))
    k = np.arange(nb)
    blocks = 0.5 * (sym[:, :, np.abs(k[:, None] - k)] + sym[:, :, k[:, None] + k])
    return blocks.transpose(2, 0, 3, 1).reshape(nb * K, nb * K)


def _require_finite(matrix: np.ndarray) -> None:
    # eigh passes NaN through silently and Cholesky would return a NaN factor
    if not np.isfinite(matrix).all():
        raise DegenerateDataError("mass matrix contains non-finite entries")


def regularize_spd(mass: np.ndarray) -> Regularized:
    """Raise every eigenvalue below eps0 to eps0.

    eps0 = sqrt(1e-12 * lambda_max+) * sqrt(lambda_min+) computed from
    the positive spectrum of the symmetrized matrix, a product of roots
    that stays finite wherever both eigenvalues are. If nothing lies below
    eps0 the symmetrized matrix is returned unchanged. Non-finite entries
    in the input or the result (an eigen-lift that overflows) raise
    DegenerateDataError.
    """
    _require_finite(mass)
    sym = 0.5 * (mass + mass.T)
    lam, vec = np.linalg.eigh(sym)
    positive = lam[lam > 0.0]
    if positive.size == 0:
        raise DegenerateDataError("mass matrix has no positive eigenvalue")
    eps0 = float(np.sqrt(SPD_RIDGE * positive.max()) * np.sqrt(positive.min()))
    clipped = lam < eps0
    if clipped.any():
        lifted = (vec * np.maximum(lam, eps0)) @ vec.T
        sym = 0.5 * (lifted + lifted.T)
    _require_finite(sym)
    return Regularized(sym, RegularizationRecord(bool(clipped.any()), eps0))


def cholesky_upper(mass: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = M.

    For block mass matrices the scalar factorization of the full matrix
    is used; it is automatically block upper triangular with triangular
    diagonal blocks, so all orthogonalized snapshots come out mutually
    orthogonal.
    """
    try:
        # the transposed lower factor: numpy's `upper=` needs numpy >= 2.0
        return np.linalg.cholesky(mass).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(
            f"mass matrix is not numerically positive definite ({exc}); "
            "apply regularize_spd first"
        ) from exc


def field_transform(upper: np.ndarray, upper0: np.ndarray, K: int) -> np.ndarray:
    """T = inv(U0) * U, the map from background to data-generated snapshots.

    The factors of a K-source record are time-major, like their mass
    matrices; T comes out source-major, the order of a (K, N, ...) stack:
    with S = side / K, field i at sample b is sum over (l, a) of
    T[l S + a, i S + b] u0_l(a tau). Identical factors give the identity.
    """
    size = upper.shape[0]
    # partial pivoting makes no row swaps on the upper-triangular U0
    transform = np.linalg.solve(upper0, upper)
    # source-major position l S + a holds time-major index a K + l
    order = np.arange(size).reshape(size // K, K).T.ravel()
    return transform[np.ix_(order, order)]
