"""Independent oracles the tests compare the toolkit against.

None of these run on the command-line path, so they live with the
tests: a one-source leapfrog with both starting rules, the direct
snapshot Gram matrix, the trapezoid time convolution by FFT, the
internal fields u0 * T materialized as a stack, the dense matrix of a
block-stack T and the identity blocks of the Born transform, a reader
for the PGM images `io.render_pgm` writes, the node-level support check
of a true model, and the diagonal-only record a monostatic acquisition
measures.
"""

import numpy as np

from lslkit.core import Potential, TransferData
from lslkit.errors import DimensionError
from lslkit.wavesim import apply_operator


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
        raise DimensionError(
            f"need {num_out} samples, have {w0_samples.shape[0]} antiderivative "
            f"and {field_samples.shape[0]} field samples"
        )
    if w0_samples.shape[1] != field_samples.shape[1] or w0_samples.shape[1] != node_weights.size:
        raise DimensionError("kernel inputs live on different grids")
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
