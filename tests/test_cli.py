import struct

import numpy as np
import pytest

from lslkit.cli import main
from lslkit.core import MaskState, TransferData
from lslkit.io import load_field, load_pgm, load_transfer, save_transfer

SMALL_CONFIG = """
[domain]
width = 40.0
height = 20.0

[simulation]
nx = 40
ny = 20

[sources]
count = 3
sigma = 2.0
depth = 3.0
first_x = 8.0
last_x = 32.0

[time]
tau = 2.0
n = 12

[solver]
substeps = 4

[model]
margin = 3.0
inclusions = blob

[inclusion blob]
shape = ellipse
x = 20.0
y = 10.0
width = 10.0
height = 5.0
amplitude = 0.05
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSurface:
    def test_simulate_artifacts(self, tmp_path, config_path):
        assert run("simulate", "--config", config_path) == 0
        out = tmp_path / "out"
        # the background is recomputed by every command, never stored
        assert sorted(p.name for p in out.iterdir()) == ["mimo.lslt", "q_true.lslf", "siso.lslt"]
        siso = load_transfer(out / "siso.lslt")
        assert not siso.is_full
        mimo = load_transfer(out / "mimo.lslt")
        assert mimo.is_full

    def test_full_chain_matches_pipeline_bitwise(self, tmp_path, config_path):
        pipe_dir = tmp_path / "pipe"
        assert run("pipeline", "--config", config_path, "--iterations", 1,
                   "--out", pipe_dir) == 0
        chain_dir = tmp_path / "chain"
        assert run("simulate", "--config", config_path, "--out", chain_dir) == 0
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--out", chain_dir) == 0
        assert run("lift", "--config", config_path, "--out", chain_dir) == 0
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--out", chain_dir, "--data", chain_dir / "lifted.lslt") == 0
        final = (pipe_dir / "q_final.lslf").read_bytes()
        chained = (chain_dir / "q_mimo.lslf").read_bytes()
        assert final == chained
        assert not [p for p in pipe_dir.iterdir() if p.is_dir()]

    def test_second_round_chain_matches_pipeline_bitwise(self, tmp_path, config_path):
        pipe_dir = tmp_path / "pipe"
        assert run("pipeline", "--config", config_path, "--iterations", 2,
                   "--out", pipe_dir) == 0
        chain_dir = tmp_path / "chain"
        common = ("--config", config_path, "--out", chain_dir)
        assert run("simulate", *common) == 0
        assert run("invert", "--method", "lsl", *common) == 0
        assert run("lift", *common) == 0
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted.lslt") == 0
        # round two re-synthesizes the block-ROM fields from the completed record
        assert run("lift", *common, "--q", chain_dir / "q_mimo.lslf",
                   "--data", chain_dir / "lifted.lslt",
                   "--data-out", chain_dir / "lifted_2.lslt") == 0
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted_2.lslt",
                   "--q-out", chain_dir / "q_mimo_2.lslf") == 0
        assert (chain_dir / "lifted_2.lslt").read_bytes() == (
            pipe_dir / "lifted_2.lslt"
        ).read_bytes()
        assert (chain_dir / "q_mimo_2.lslf").read_bytes() == (
            pipe_dir / "q_final.lslf"
        ).read_bytes()

    def test_born_and_compare_and_render(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        assert run("invert", "--method", "born", "--config", config_path) == 0
        assert (out / "q_born.lslf").exists()
        assert run("compare", "--config", config_path, "--truth", out / "q_true.lslf",
                   "--in", out / "q_born.lslf") == 0
        captured = capsys.readouterr().out
        assert "global_rel_l2=" in captured
        assert "region blob" in captured
        assert run("render", "--config", config_path, "--in", out / "q_born.lslf") == 0
        pixels = load_pgm(out / "q_born.pgm")
        assert pixels.shape == (11, 21)  # reconstruction lives on the inversion grid

    def test_seed_changes_noise(self, tmp_path, config_path):
        noisy_cfg = tmp_path / "noisy.cfg"
        noisy_cfg.write_text(
            SMALL_CONFIG + f"\n[noise]\nlevel = 0.05\n[output]\ndirectory = {tmp_path / 'n1'}\n"
        )
        assert run("simulate", "--config", noisy_cfg, "--seed", 1) == 0
        a = load_transfer(tmp_path / "n1" / "siso.lslt")
        assert run("simulate", "--config", noisy_cfg, "--seed", 2, "--out", tmp_path / "n2") == 0
        b = load_transfer(tmp_path / "n2" / "siso.lslt")
        assert not np.array_equal(a.values, b.values)
        assert run("simulate", "--config", noisy_cfg, "--seed", 1, "--out", tmp_path / "n3") == 0
        c = load_transfer(tmp_path / "n3" / "siso.lslt")
        assert np.array_equal(a.values, c.values)

    def test_threads_flag_keeps_results(self, tmp_path, config_path):
        assert run("pipeline", "--config", config_path, "--out", tmp_path / "t1") == 0
        assert run("pipeline", "--config", config_path, "--out", tmp_path / "t2",
                   "--threads", 3) == 0
        assert (tmp_path / "t1" / "q_final.lslf").read_bytes() == (
            tmp_path / "t2" / "q_final.lslf"
        ).read_bytes()

    def test_positivity_flag(self, tmp_path, config_path):
        assert run("simulate", "--config", config_path) == 0
        assert run("invert", "--method", "born", "--config", config_path,
                   "--positivity", "--q-out", tmp_path / "out" / "q_pos.lslf") == 0
        _, values = load_field(tmp_path / "out" / "q_pos.lslf")
        assert values.min() >= 0.0


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        assert run("simulate", "--config", tmp_path / "missing.cfg") == 2
        assert "error:" in capsys.readouterr().err

    def test_cfl_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[solver]\nsubsteps = 1\n[time]\ntau = 5.0\n")
        assert run("simulate", "--config", bad) == 2

    def test_io_error(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        (out / "siso.lslt").write_bytes(b"garbage")
        assert run("invert", "--method", "lsl", "--config", config_path) == 4

    def test_numerical_error(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        # a full record with no positive-definite structure at all
        K, T = 3, 12
        values = -np.ones((K, K, T))
        mask = np.full((K, K), MaskState.LIFTED, dtype=np.int8)
        np.fill_diagonal(mask, MaskState.MEASURED)
        save_transfer(out / "evil.lslt", TransferData(values, mask, 2.0))
        code = run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "evil.lslt")
        assert code == 3

    def test_non_finite_artifacts(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        siso = load_transfer(out / "siso.lslt")
        values = np.array(siso.values)
        values[1, 1, 5] = np.nan
        save_transfer(out / "nan.lslt", TransferData(values, siso.mask, siso.tau))
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "nan.lslt") == 4
        assert "non-finite" in capsys.readouterr().err
        blob = bytearray((out / "q_true.lslf").read_bytes())
        blob[-8:] = struct.pack("<d", np.inf)
        (out / "inf.lslf").write_bytes(bytes(blob))
        assert run("lift", "--config", config_path, "--q", out / "inf.lslf") == 4

    def test_oversized_header(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        # K=3 and T=2^40 would ask for 72 TiB; the file holds a few bytes
        header = struct.pack("<4sIQQd", b"LSLT", 1, 3, 2**40, 2.0)
        (out / "huge.lslt").write_bytes(header + bytes([1, 0, 0, 0, 1, 0, 0, 0, 1]) + b"\0" * 64)
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "huge.lslt") == 4
        assert "truncated" in capsys.readouterr().err
