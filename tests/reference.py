"""Independent oracles the tests compare the toolkit against.

None of these run on the command-line path, so they live with the
tests: a one-source leapfrog with both starting rules, the whole
background on the simulation grid, whole stacks put back together from
the evaluator's bands, the row bands of assembly and the lift cut from
whole stacks, the closed-form stacks built from whole fine histories and
then injected, the background record read off a
fine u0 stack, the direct snapshot Gram matrix, the
trapezoid time convolution by FFT, the internal fields u0 * T
materialized as a stack, the dense matrix of a block-stack T and the
identity blocks of the Born transform, a reader for the PGM images
`io.render_pgm` writes, the node-level support check of a true model,
the diagonal-only record a monostatic acquisition measures, and a
record's reciprocity defect.
"""

from types import SimpleNamespace

import numpy as np

from lslkit.core import MaskState, Potential, TransferData, restrict
from lslkit.errors import ConfigurationError
from lslkit.wavesim import (BackgroundBands, _angle_sum_record, _modes, _spectra,
                            apply_operator, simulate_background)


def zero_potential(grid):
    return Potential(grid, np.zeros(grid.shape))


def leapfrog_snapshots(potential, sources, source_index, axis, settings, num_samples,
                       start="cosine"):
    """One source's leapfrog field sampled every tau, (num_samples, ny+1, nx+1).

    start "cosine" begins at u_0 = g, u_1 = (I - dt^2/2 A_h) g;
    "antiderivative" gives the running time integral of the cosine field
    for the zero potential, w_0 = 0, w_1 = dt g - dt^3/6 A_h g. Every
    step does the arithmetic of `wavesim._leapfrog` in its order, so the
    samples are bit-identical to its states.
    """
    grid, q = potential.grid, potential.values
    substeps = settings.substeps
    dt = axis.tau / substeps
    g = sources.field(grid, source_index)
    if start == "cosine":
        prev, cur = g, g - 0.5 * dt * dt * apply_operator(grid, q, g)
    else:
        prev, cur = np.zeros_like(g), dt * g - (dt**3 / 6.0) * apply_operator(grid, q, g)
    samples = np.empty((num_samples,) + grid.shape)
    samples[0] = prev
    steps_done = 1
    for k in range(1, num_samples):
        while steps_done < k * substeps:
            work = apply_operator(grid, q, cur)
            work *= -dt * dt
            work -= prev
            work += cur
            work += cur
            prev, cur = cur, work
            steps_done += 1
        samples[k] = cur
    return samples


def whole_stacks(background, budget=2**20):
    """The u0 and w0 of a `wavesim.BackgroundBands` as whole (K, N, ny+1,
    nx+1) stacks on its band grid, put back together from its bands of
    `budget` bytes; a node no band covers stays NaN."""
    shape = (len(background), background.axis.n) + background.band_grid.shape
    fields, antiderivatives = np.full(shape, np.nan), np.full(shape, np.nan)
    for rows, u0, w0 in background.bands(budget):
        fields[:, :, rows] = u0.transpose(2, 3, 1, 0)
        antiderivatives[:, :, rows] = w0.transpose(2, 3, 1, 0)
    return fields, antiderivatives


class StackBands:
    """Row bands cut from whole (K, N, ny+1, nx+1) u0 and w0 stacks, as
    `lippmann.assemble_system` and `lippmann.forward_lift` read the
    background: its length is K, and its `bands` yields (rows, u0, w0) for
    `size` rows at a time whatever the budget (the last band may hold
    fewer), u0 and w0 as (nx+1, |rows|, K, N) views of the stacks."""

    def __init__(self, fields, antiderivatives, size=8):
        self.fields, self.antiderivatives, self.size = fields, antiderivatives, size

    def __len__(self):
        return len(self.fields)

    def bands(self, budget):
        height = self.fields.shape[2]
        for start in range(0, height, self.size):
            rows = slice(start, min(start + self.size, height))
            yield rows, *(stack[:, :, rows].transpose(3, 2, 0, 1)
                          for stack in (self.fields, self.antiderivatives))


def background(grid, sources, axis, settings):
    """The zero-potential background on the simulation grid `grid`: its
    record F0 as `data`, and its u0 and w0 stacks as `fields` and
    `antiderivatives`, put back together from its bands."""
    bands = BackgroundBands(grid, sources, axis, settings, grid)
    fields, antiderivatives = whole_stacks(bands)
    return SimpleNamespace(data=simulate_background(grid, sources, axis, settings),
                           fields=fields, antiderivatives=antiderivatives)


def injected_stacks(grid, sources, axis, settings, stack_grid):
    """u0 and w0 on `stack_grid`, a nested coarsening of the simulation grid
    `grid`, from whole fine histories: every sample's inverse DCT-I as
    (c_k g_hat) @ Cx^T, then Cy times that, injected by `core.restrict`.
    The closed form's coefficients as `wavesim.BackgroundBands` takes
    them, without its strided cosine matrices or its bands."""
    dt, lam, theta, steps = _modes(grid, axis, settings)
    phase = np.multiply.outer(steps, theta)
    cosine = np.cos(phase)
    sin_theta = np.sin(theta)
    constant = sin_theta == 0.0
    growth = np.sin(phase) / np.where(constant, 1.0, sin_theta)
    growth[:, constant] = steps[:, None]
    growth *= dt - (dt**3 / 6.0) * lam
    cy, cx, spectra = _spectra(grid, sources)
    norm = 4.0 * grid.nx * grid.ny
    fields = np.empty((sources.count, axis.n) + stack_grid.shape)
    antiderivatives = np.empty_like(fields)
    for i, g_hat in enumerate(spectra):
        for coefficients, stack in ((cosine, fields), (growth, antiderivatives)):
            history = cy @ ((coefficients * g_hat) @ cx.T)
            stack[i] = restrict(history, grid, stack_grid) / norm
    return fields, antiderivatives


def stack_record(fields, grid):
    """The K x K record over 2n-1 samples of a (K, n, ny+1, nx+1) field
    stack on `grid`: the Chebyshev angle-sum over its samples under the
    trapezoid node weights, as `simulate_background` read F0 off its
    fine u0 stack before F0 came from the modal states."""
    fields = np.asarray(fields)
    weights = grid.node_weights.reshape(-1)
    return _angle_sum_record(fields.swapaxes(0, 1), fields.shape[1], weights)


def snapshot_gram(stack, grid):
    """Gram matrix of a (K, N, ny+1, nx+1) snapshot stack under the
    trapezoidal weights, rows and columns time-major like `rom`'s mass
    matrices: all K sources at sample 0, then all at sample 1, ..."""
    K, num_steps = stack.shape[:2]
    stacked = np.asarray(stack).transpose(1, 0, 2, 3).reshape(num_steps * K, -1)
    values = (stacked * grid.node_weights.ravel()) @ stacked.T
    return 0.5 * (values + values.T)


def convolution_rows(
    w0_samples: np.ndarray,
    field_samples: np.ndarray,
    node_weights: np.ndarray,
    tau: float,
    num_out: int,
) -> np.ndarray:
    """Spatial rows of the time convolution for k = 0 .. num_out-1.

    rows[k, c] = tau * sum_t c_t w0[k-t, c] field[t, c] weights[c] with
    trapezoidal endpoint weights c_0 = c_k = 1/2; row 0 (empty interval)
    is zero. System assembly and `forward_lift` sum the same quadrature
    directly over the anti-diagonals; the FFT here is their oracle.
    """
    if w0_samples.shape[0] < num_out or field_samples.shape[0] < num_out:
        raise ConfigurationError(
            f"need {num_out} samples, have {w0_samples.shape[0]} antiderivative "
            f"and {field_samples.shape[0]} field samples"
        )
    if w0_samples.shape[1] != field_samples.shape[1] or w0_samples.shape[1] != node_weights.size:
        raise ConfigurationError("kernel inputs live on different grids")
    w = w0_samples[:num_out] * node_weights
    u = field_samples[:num_out]
    if num_out == 1:
        return np.zeros((1, w.shape[1]))
    length = 1 << (2 * num_out - 2).bit_length()  # power of two >= 2 num_out - 1
    spectrum = np.fft.rfft(w, length, axis=0) * np.fft.rfft(u, length, axis=0)
    rows = np.fft.irfft(spectrum, length, axis=0)[:num_out]
    rows -= 0.5 * (w * u[0] + w[0] * u)
    rows *= tau
    rows[0] = 0.0
    return rows


def apply_transform(transform, background):
    """The internal fields u0 * T of a (K, N, rows, cols) background stack,
    a (K, steps, rows, cols) stack on the same grid: T is (K steps) square
    in the source-major order of `rom.field_transform`, and N >= steps."""
    K, num, rows, cols = background.shape
    size = transform.shape[0]
    steps = size // K
    assert transform.shape == (size, size) and size == K * steps and num >= steps
    mixed = transform.T @ np.asarray(background)[:, :steps].reshape(size, -1)
    return mixed.reshape(K, steps, rows, cols)


def dense_transform(stack):
    """A (B, G N, G N) stack of diagonal blocks as the one zero-filled
    (1, K N, K N) block of the same T, block g on rows and columns
    g G N .. (g+1) G N - 1."""
    blocks, side = len(stack), stack.shape[-1]
    dense = np.zeros((1, blocks * side, blocks * side))
    for g, block in enumerate(stack):
        dense[0, g * side : (g + 1) * side, g * side : (g + 1) * side] = block
    return dense


def identity_blocks(K, n):
    """The Born transform T = I as K read-only n x n identity blocks."""
    return np.broadcast_to(np.eye(n), (K, n, n))


def load_pgm(path):
    """The (height, width) uint16 pixels of a 16-bit binary PGM file."""
    with open(path, "rb") as handle:
        assert handle.readline().strip() == b"P5"
        width, height = (int(v) for v in handle.readline().split())
        assert int(handle.readline()) == 65535
        raw = handle.read()
    assert len(raw) == 2 * width * height
    return np.frombuffer(raw, dtype=">u2").reshape(height, width).astype(np.uint16)


def assert_support_margin(potential, margin):
    """A true model: nonnegative, and every nonzero node at least `margin`
    from each wall."""
    values = np.asarray(potential.values)
    assert (values >= 0.0).all()
    iy, ix = np.nonzero(values)
    if ix.size:
        xs, ys = potential.grid.xs(), potential.grid.ys()
        dist = min(xs[ix.min()] - xs[0], xs[-1] - xs[ix.max()],
                   ys[iy.min()] - ys[0], ys[-1] - ys[iy.max()])
        assert dist >= margin, f"support comes within {dist:.3g} of the boundary"


def diagonal_record(data):
    """The measured diagonal of a full record, its off-diagonal series absent:
    what `lslkit simulate` writes as siso.lslt before noise."""
    return TransferData(data.values, np.diag(np.diag(data.mask)), data.tau)


def reciprocity_defect(data):
    """Max |F_ij - F_ji| over present pairs, relative to the data scale."""
    present = np.asarray(data.mask) != MaskState.ABSENT
    both = present & present.T
    if not both.any():
        return 0.0
    diff = np.abs(data.values - data.values.transpose(1, 0, 2))
    diff = diff[both].max()
    scale = np.abs(data.values[present]).max()
    return float(diff / scale) if scale > 0 else float(diff)
