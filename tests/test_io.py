import numpy as np
import pytest

from lslkit.core import Grid2D, MaskState, TransferData
from lslkit.errors import DomainError, FormatError
from lslkit.io import (
    load_field,
    load_pgm,
    load_transfer,
    render_pgm,
    save_field,
    save_transfer,
)


@pytest.fixture
def grid():
    return Grid2D(6, 4, 0.5, 0.25, origin=(-1.0, 2.0))


class TestFieldFormat:
    def test_round_trip_bit_exact(self, tmp_path, grid):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.shape)
        values[0, 0] = -0.0
        path = tmp_path / "field.lslf"
        save_field(path, grid, values)
        loaded_grid, loaded = load_field(path)
        assert loaded_grid == grid
        assert loaded.tobytes() == values.tobytes()

    def test_byte_length(self, tmp_path, grid):
        path = tmp_path / "field.lslf"
        save_field(path, grid, np.zeros(grid.shape))
        samples = (grid.nx + 1) * (grid.ny + 1)
        assert path.stat().st_size == 4 + 4 + 16 + 32 + 8 * samples

    def test_bad_magic(self, tmp_path, grid):
        path = tmp_path / "field.lslf"
        save_field(path, grid, np.zeros(grid.shape))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_field(path)

    def test_truncation_detected(self, tmp_path, grid):
        path = tmp_path / "field.lslf"
        save_field(path, grid, np.zeros(grid.shape))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_field(path)

    def test_unknown_version_rejected(self, tmp_path, grid):
        path = tmp_path / "field.lslf"
        save_field(path, grid, np.zeros(grid.shape))
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_field(path)

    def test_trailing_bytes_detected(self, tmp_path, grid):
        path = tmp_path / "field.lslf"
        save_field(path, grid, np.zeros(grid.shape))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_field(path)

    def test_empty_grid_rejected(self, tmp_path):
        import struct

        path = tmp_path / "tiny.lslf"
        header = struct.pack("<4sIQQ4d", b"LSLF", 1, 2, 2, 0.0, 0.0, 1.0, 1.0)
        path.write_bytes(header + b"\x00" * (8 * 4))
        with pytest.raises(FormatError, match="too small"):
            load_field(path)

    def test_shape_mismatch_on_save(self, tmp_path, grid):
        with pytest.raises(FormatError):
            save_field(tmp_path / "x.lslf", grid, np.zeros((2, 2)))


class TestTransferFormat:
    def make_data(self, K=3, T=7, full=False):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((K, K, T))
        if full:
            mask = np.full((K, K), MaskState.LIFTED, dtype=np.int8)
            np.fill_diagonal(mask, MaskState.MEASURED)
        else:
            mask = np.zeros((K, K), dtype=np.int8)
            np.fill_diagonal(mask, MaskState.MEASURED)
            values *= (np.asarray(mask) != 0)[:, :, None]
        return TransferData(values, mask, 0.75)

    def test_round_trip(self, tmp_path):
        for full in (False, True):
            data = self.make_data(full=full)
            path = tmp_path / f"t{full}.lslt"
            save_transfer(path, data)
            loaded = load_transfer(path)
            assert loaded.values.tobytes() == data.values.tobytes()
            assert np.array_equal(loaded.mask, data.mask)
            assert loaded.tau == data.tau

    def test_siso_file_stores_diagonal_only(self, tmp_path):
        K, T = 4, 9
        diag = self.make_data(K=K, T=T, full=False)
        full = self.make_data(K=K, T=T, full=True)
        p1, p2 = tmp_path / "diag.lslt", tmp_path / "full.lslt"
        save_transfer(p1, diag)
        save_transfer(p2, full)
        header = 32 + K * K
        assert p1.stat().st_size == header + 8 * T * K
        assert p2.stat().st_size == header + 8 * T * K * K

    def test_corrupted_mimo_flagged_by_reciprocity(self, tmp_path):
        rng = np.random.default_rng(3)
        sym = rng.standard_normal((3, 3, 6))
        sym = 0.5 * (sym + sym.transpose(1, 0, 2))
        mask = np.full((3, 3), MaskState.MEASURED, dtype=np.int8)
        path = tmp_path / "mimo.lslt"
        save_transfer(path, TransferData(sym, mask, 1.0))
        blob = bytearray(path.read_bytes())
        offset = 32 + 9 + 8 * 6 + 8 * 2  # third sample of series (0, 1)
        blob[offset : offset + 8] = np.float64(99.0).tobytes()
        path.write_bytes(bytes(blob))
        loaded = load_transfer(path)
        assert loaded.reciprocity_defect() > 0.5

    def test_bad_magic_and_truncation(self, tmp_path):
        data = self.make_data()
        path = tmp_path / "t.lslt"
        save_transfer(path, data)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_transfer(path)
        save_transfer(path, data)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_transfer(path)


class TestPgm:
    def test_constant_field_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        render_pgm(np.full((5, 8), 3.7), path)
        pixels = load_pgm(path)
        assert pixels.shape == (5, 8)
        assert (pixels == pixels[0, 0]).all()
        assert abs(int(pixels[0, 0]) - 32768) <= 1

    def test_monotone_ramp(self, tmp_path):
        values = np.tile(np.linspace(0.0, 1.0, 32), (4, 1))
        path = tmp_path / "ramp.pgm"
        render_pgm(values, path, clip_percentiles=(0.0, 100.0))
        pixels = load_pgm(path).astype(int)
        rows = pixels[1]
        assert (np.diff(rows) >= 0).all()
        assert rows[0] == 0 and rows[-1] == 65535

    def test_rows_flip_to_image_orientation(self, tmp_path):
        values = np.zeros((3, 3))
        values[2, 0] = 1.0  # top of the domain
        path = tmp_path / "o.pgm"
        render_pgm(values, path, clip_percentiles=(0.0, 100.0))
        pixels = load_pgm(path)
        assert pixels[0, 0] == 65535

    def test_non_finite_rejected(self, tmp_path):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(DomainError):
            render_pgm(bad, tmp_path / "bad.pgm")

    def test_two_target_reconstruction_blobs(self, tmp_path, two_target_run):
        # the completed reconstruction renders as two bright blobs whose
        # centroids land within two inversion cells of the target centers
        from scipy.ndimage import center_of_mass, label

        cfg = two_target_run.cfg
        q = two_target_run.potentials["mimo-1"]
        path = tmp_path / "recon.pgm"
        render_pgm(np.asarray(q.values), path)
        pixels = load_pgm(path).astype(float)[::-1]  # back to domain rows
        labels, count = label(pixels > 0.55 * pixels.max())
        grid = q.grid
        blobs = []
        for index in range(1, count + 1):
            size = int((labels == index).sum())
            if size < 3:
                continue
            cy, cx = center_of_mass(pixels, labels, index)
            blobs.append((size, grid.xs()[0] + cx * grid.hx, grid.ys()[0] + cy * grid.hy))
        blobs = sorted(blobs, reverse=True)[:2]
        assert len(blobs) == 2
        cell = grid.hx
        targets = [(inc.x, inc.y) for inc in cfg.inclusions]
        matched = set()
        for _, px, py in blobs:
            dists = [np.hypot(px - tx, py - ty) for tx, ty in targets]
            assert min(dists) <= 2.0 * cell
            matched.add(int(np.argmin(dists)))
        assert matched == {0, 1}

