import numpy as np
import pytest

from lslkit.core import (
    Grid2D,
    MaskState,
    Potential,
    SourceSet,
    TimeAxis,
    TransferData,
    inner_product,
    prolong,
    refinement_ratio,
    restrict,
)
from lslkit.errors import (
    ConfigurationError,
    DimensionError,
    PreconditionError,
)


class TestGrid:
    def test_invalid_cell_counts(self):
        with pytest.raises(ConfigurationError):
            Grid2D(1, 5, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            Grid2D(5, 5, 0.0, 1.0)

    def test_node_weights_pattern(self):
        grid = Grid2D(4, 3, 0.5, 2.0)
        w = grid.node_weights
        assert w.shape == (4, 5)
        assert w[1, 2] == pytest.approx(1.0)  # interior: hx*hy
        assert w[0, 2] == pytest.approx(0.5)  # face
        assert w[1, 0] == pytest.approx(0.5)
        assert w[0, 0] == pytest.approx(0.25)  # corner
        assert w.sum() == pytest.approx(grid.nx * grid.hx * grid.ny * grid.hy)

    def test_coarsen_requires_divisibility(self):
        grid = Grid2D(10, 6, 1.0, 1.0)
        coarse = grid.coarsen(2)
        assert (coarse.nx, coarse.ny, coarse.hx) == (5, 3, 2.0)
        with pytest.raises(ConfigurationError):
            grid.coarsen(4)


class TestInnerProduct:
    def test_zero_field(self):
        grid = Grid2D(8, 8, 0.25, 0.125)
        g = np.random.default_rng(0).standard_normal(grid.shape)
        assert inner_product(grid, np.zeros(grid.shape), g) == 0.0

    def test_domain_area(self):
        # constant 1 against constant 1 integrates the domain area
        grid = Grid2D(20, 10, 0.1, 0.1)
        ones = np.ones(grid.shape)
        assert inner_product(grid, ones, ones) == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_pulse_energy(self):
        # analytic value pi * sigma^2 * a^2 for g = a exp(-r^2 / (2 sigma^2))
        sigma, amp = 2.0, 1.0
        grid = Grid2D(400, 400, 0.1, 0.1)
        src = SourceSet(np.array([[20.0, 20.0]]), sigma, amp)
        g = src.field(grid, 0)
        exact = np.pi * sigma**2 * amp**2
        value = inner_product(grid, g, g)
        assert abs(value - exact) / exact < 1e-6
        # independent fine-grid quadrature oracle
        fine = Grid2D(800, 800, 0.05, 0.05)
        g_fine = src.field(fine, 0)
        oracle = inner_product(fine, g_fine, g_fine)
        assert abs(value - oracle) / oracle < 1e-7

    def test_symmetry_bilinearity_positivity(self):
        grid = Grid2D(12, 7, 0.3, 0.4)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        h = rng.standard_normal(grid.shape)
        assert inner_product(grid, f, g) == pytest.approx(inner_product(grid, g, f))
        lhs = inner_product(grid, f, 2.0 * g + 3.0 * h)
        rhs = 2.0 * inner_product(grid, f, g) + 3.0 * inner_product(grid, f, h)
        assert lhs == pytest.approx(rhs)
        assert inner_product(grid, f, f) > 0.0

    def test_grid_mismatch(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        with pytest.raises(DimensionError):
            inner_product(grid, np.zeros((3, 3)), np.zeros(grid.shape))


class TestGridTransfer:
    def setup_method(self):
        self.fine = Grid2D(8, 6, 0.5, 0.5)
        self.coarse = self.fine.coarsen(2)

    def test_restrict_constant(self):
        c = np.full(self.fine.shape, 3.25)
        assert (restrict(c, self.fine, self.coarse) == 3.25).all()

    def test_restrict_index_arithmetic(self):
        # 4x4 cells -> 2x2 at ratio 2: injection picks even indices
        fine = Grid2D(4, 4, 1.0, 1.0)
        coarse = fine.coarsen(2)
        iy, ix = np.mgrid[0:5, 0:5]
        f = (ix + iy).astype(float)
        r = restrict(f, fine, coarse)
        iy_c, ix_c = np.mgrid[0:3, 0:3]
        assert (r == 2 * ix_c + 2 * iy_c).all()

    def test_round_trip_idempotence(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(self.fine.shape)
        r = restrict(f, self.fine, self.coarse)
        back = restrict(prolong(r, self.coarse, self.fine), self.fine, self.coarse)
        assert np.array_equal(back, r)

    def test_prolong_constant_and_linear(self):
        c = np.full(self.coarse.shape, -1.5)
        assert prolong(c, self.coarse, self.fine) == pytest.approx(c[0, 0])
        x_c = np.tile(self.coarse.xs(), (self.coarse.ny + 1, 1))
        x_f = prolong(x_c, self.coarse, self.fine)
        assert x_f == pytest.approx(np.tile(self.fine.xs(), (self.fine.ny + 1, 1)))

    def test_prolong_delta_tent(self):
        delta = np.zeros(self.coarse.shape)
        delta[2, 2] = 1.0
        tent = prolong(delta, self.coarse, self.fine)
        assert tent[4, 4] == pytest.approx(1.0)
        assert tent[4, 5] == pytest.approx(0.5)
        assert tent[3, 4] == pytest.approx(0.5)
        assert tent[3, 3] == pytest.approx(0.25)
        assert tent[4, 6] == pytest.approx(0.0)

    def test_non_nested_rejected(self):
        other = Grid2D(3, 3, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            refinement_ratio(self.fine, other)
        shifted = Grid2D(4, 3, 1.0, 1.0, origin=(0.5, 0.0))
        with pytest.raises(ConfigurationError):
            restrict(np.zeros(self.fine.shape), self.fine, shifted)


class TestPotential:
    def test_reconstructions_may_be_negative(self):
        grid = Grid2D(4, 4, 1.0, 1.0)
        Potential(grid, -np.ones(grid.shape))  # no exception


class TestSourceSet:
    def test_truncation_radius(self):
        grid = Grid2D(200, 200, 0.5, 0.5)
        src = SourceSet(np.array([[50.0, 50.0]]), sigma=3.0)
        g = src.field(grid, 0)
        x, y = grid.meshgrid()
        r = np.hypot(x - 50.0, y - 50.0)
        assert (g[r > 18.0] == 0.0).all()
        assert g.max() == pytest.approx(1.0)

    def test_distant_pulses_decouple(self):
        grid = Grid2D(400, 100, 0.5, 0.5)
        sigma = 2.0
        src = SourceSet(np.array([[40.0, 25.0], [40.0 + 10.5 * sigma, 25.0]]), sigma)
        g0, g1 = src.field(grid, 0), src.field(grid, 1)
        cross = abs(inner_product(grid, g0, g1))
        self_ip = inner_product(grid, g0, g0)
        assert cross < 1e-10 * self_ip

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SourceSet(np.zeros((0, 2)), 1.0)
        with pytest.raises(ConfigurationError):
            SourceSet(np.array([[0.0, 0.0]]), -1.0)


class TestContainers:
    def test_time_axis(self):
        axis = TimeAxis(0.5, 6)
        assert axis.total_samples == 11
        with pytest.raises(ConfigurationError):
            TimeAxis(0.0, 4)
        with pytest.raises(ConfigurationError):
            TimeAxis(1.0, 1)

    def test_transfer_validation(self):
        values = np.zeros((2, 2, 5))
        mask = np.array([[1, 0], [0, 1]], dtype=np.int8)
        data = TransferData(values, mask, 0.5)
        assert not data.is_full
        data.require_measured_diagonal()
        with pytest.raises(PreconditionError):
            data.require_full()
        with pytest.raises(DimensionError):
            TransferData(np.zeros((2, 3, 5)), mask, 0.5)
        with pytest.raises(PreconditionError):
            TransferData(values, np.full((2, 2), 7, dtype=np.int8), 0.5)

    def test_reciprocity_defect_detects_corruption(self):
        rng = np.random.default_rng(5)
        sym = rng.standard_normal((3, 3, 4))
        sym = 0.5 * (sym + sym.transpose(1, 0, 2))
        mask = np.full((3, 3), MaskState.MEASURED, dtype=np.int8)
        clean = TransferData(sym, mask, 1.0)
        assert clean.reciprocity_defect() < 1e-15
        corrupted = np.array(sym)
        corrupted[0, 2, 1] += 0.37
        assert TransferData(corrupted, mask, 1.0).reciprocity_defect() > 1e-2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda v: TimeAxis(v, 4), id="TimeAxis.tau"),
        pytest.param(lambda v: Grid2D(4, 4, v, 1.0), id="Grid2D.hx"),
        pytest.param(lambda v: Grid2D(4, 4, 1.0, v), id="Grid2D.hy"),
        pytest.param(lambda v: Grid2D(4, 4, 1.0, 1.0, (0.0, v)), id="Grid2D.origin"),
        pytest.param(lambda v: SourceSet([[1.0, 1.0]], v), id="SourceSet.sigma"),
        pytest.param(lambda v: SourceSet([[1.0, 1.0]], 1.0, v), id="SourceSet.amplitude"),
        pytest.param(lambda v: SourceSet([[v, 1.0]], 1.0), id="SourceSet.centers"),
    ],
)
def test_non_finite_scalars_rejected(build, value):
    # a NaN passes every `<= 0` test; each field would give NaN fields
    # or records, or overflow in the CFL step count
    with pytest.raises(ConfigurationError, match="finite"):
        build(value)
