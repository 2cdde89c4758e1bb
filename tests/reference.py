"""Independent oracles the tests compare the toolkit against.

None of these run on the command-line path, so they live with the
tests: a one-source leapfrog with both starting rules, the direct
snapshot Gram matrix, the internal fields u0 * T materialized as a
stack, a reader for the PGM images `io.render_pgm` writes, the
node-level support check of a true model, and the diagonal-only record
a monostatic acquisition measures.
"""

import numpy as np

from lslkit.core import Potential, TransferData
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
