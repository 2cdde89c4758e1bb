import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lslkit.cli
from lslkit.cli import main
from lslkit.core import MaskState, TransferData
from lslkit.io import load_field, load_transfer, save_transfer
from reference import load_pgm

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

    @pytest.mark.parametrize("flags", [(), ("--positivity",)], ids=["plain", "positivity"])
    def test_full_chain_matches_pipeline_bitwise(self, tmp_path, config_path, capsys, flags):
        # --positivity clamps each estimate where it is made, so the chain's
        # lift reads the same clamped q_siso that `pipeline` lifts from, and
        # the printed rel_l2 is that of the written q_final
        pipe_dir = tmp_path / "pipe"
        assert run("pipeline", "--config", config_path, "--iterations", 1,
                   "--out", pipe_dir, *flags) == 0
        stage_line = capsys.readouterr().out.splitlines()[-2]
        chain_dir = tmp_path / "chain"
        assert run("simulate", "--config", config_path, "--out", chain_dir) == 0
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--out", chain_dir, *flags) == 0
        assert run("lift", "--config", config_path, "--out", chain_dir) == 0
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--out", chain_dir, "--data", chain_dir / "lifted.lslt", *flags) == 0
        assert (chain_dir / "lifted.lslt").read_bytes() == (pipe_dir / "lifted.lslt").read_bytes()
        final = (pipe_dir / "q_final.lslf").read_bytes()
        chained = (chain_dir / "q_mimo.lslf").read_bytes()
        assert final == chained
        assert not [p for p in pipe_dir.iterdir() if p.is_dir()]
        capsys.readouterr()
        assert run("compare", "--config", config_path, "--truth", pipe_dir / "q_true.lslf",
                   "--in", pipe_dir / "q_final.lslf") == 0
        compared = capsys.readouterr().out.splitlines()[0]
        printed = dict(token.split("=") for token in stage_line.split())
        assert compared == f"global_rel_l2={printed['rel_l2']}"

    def test_second_round_chain_matches_pipeline_bitwise(self, tmp_path, config_path, capsys):
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
        capsys.readouterr()
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted_2.lslt",
                   "--q-out", chain_dir / "q_mimo_2.lslf") == 0
        # the round follows from the record's length, as in `pipeline`
        assert "stage mimo-2, N=3" in capsys.readouterr().out
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

    def test_siso_is_the_mimo_diagonal(self, tmp_path, config_path):
        # noise-free: the measured record is the diagonal of the one simulation
        assert run("simulate", "--config", config_path) == 0
        siso = load_transfer(tmp_path / "out" / "siso.lslt")
        mimo = load_transfer(tmp_path / "out" / "mimo.lslt")
        K = mimo.num_sources
        for i in range(K):
            assert np.array_equal(siso.values[i, i], mimo.values[i, i])
        off = ~np.eye(K, dtype=bool)
        assert (siso.mask[off] == MaskState.ABSENT).all()
        assert (siso.values[off] == 0.0).all()

    def test_born_reads_data_flag(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        assert run("invert", "--method", "born", "--config", config_path) == 0
        siso = load_transfer(out / "siso.lslt")
        save_transfer(out / "scaled.lslt", TransferData(1.3 * siso.values, siso.mask, siso.tau))
        assert run("invert", "--method", "born", "--config", config_path,
                   "--data", out / "scaled.lslt", "--q-out", out / "q_scaled.lslf") == 0
        assert (out / "q_scaled.lslf").read_bytes() != (out / "q_born.lslf").read_bytes()

    def test_invert_reads_measured_record_once(self, tmp_path, config_path, monkeypatch):
        # with --data left at its default, siso.lslt is both measured and data
        assert run("simulate", "--config", config_path) == 0
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_transfer(path)

        monkeypatch.setattr(lslkit.cli.lio, "load_transfer", counting_load)
        assert run("invert", "--method", "lsl", "--config", config_path) == 0
        assert calls == [tmp_path / "out" / "siso.lslt"]

    def test_threads_flag_rejected(self, config_path):
        # parallelism is BLAS's alone; argparse exits 2 on the unknown flag
        with pytest.raises(SystemExit) as exc:
            run("pipeline", "--config", config_path, "--threads", 2)
        assert exc.value.code == 2

    def test_import_leaves_out_scipy(self):
        # numpy is the only runtime dependency: scipy would bring a second
        # OpenBLAS thread pool and about a quarter second of import time
        src = Path(lslkit.cli.__file__).parents[1]
        probe = (
            "import sys, lslkit.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], cwd=src, capture_output=True, timeout=120
        )
        assert result.returncode == 0, result.stderr.decode()

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

    def test_tsvd_below_floor(self, tmp_path, config_path, capsys):
        low = tmp_path / "low.cfg"
        low.write_text(config_path.read_text() + "\n[inversion]\ntsvd_siso = 1e-5\n")
        assert run("pipeline", "--config", low) == 2
        assert "inversion.tsvd_siso" in capsys.readouterr().err

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

    @pytest.mark.parametrize("level", [
        pytest.param(1e308, marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered in add:RuntimeWarning")),
        1e200,
    ])
    def test_overflowing_record(self, tmp_path, config_path, capsys, level):
        # finite samples too large for the ROM: at 1e308 the angle-sum
        # Gram overflows, the overflow this case tests, and the mass
        # matrix is not finite; at 1e200 the Gram, its eigenvalues and
        # eps0 are finite, and the Cholesky factor overflows
        message = {1e308: "non-finite", 1e200: "positive definite"}[level]
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        siso = load_transfer(out / "siso.lslt")
        values = np.zeros_like(siso.values)
        values[np.eye(3, dtype=bool)] = level
        save_transfer(out / "huge.lslt", TransferData(values, siso.mask, siso.tau))
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "huge.lslt") == 3
        assert message in capsys.readouterr().err

    def test_malformed_header_floats(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        siso = (out / "siso.lslt").read_bytes()
        for tau in (np.nan, 0.0):  # the header's f64 tau sits at byte 24
            bad = out / "bad_tau.lslt"
            bad.write_bytes(siso[:24] + struct.pack("<d", tau) + siso[32:])
            assert run("invert", "--method", "lsl", "--config", config_path,
                       "--data", bad) == 4
            assert "sample interval" in capsys.readouterr().err
        field = (out / "q_true.lslf").read_bytes()
        bad = out / "bad_hx.lslf"  # origin x, y then spacing x, y from byte 24
        bad.write_bytes(field[:40] + struct.pack("<d", np.nan) + field[48:])
        assert run("lift", "--config", config_path, "--q", bad) == 4
        assert "bad field geometry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, record",
        [("invert", "two_sources"), ("lift", "two_sources"),
         ("lift", "four_sources"), ("lift", "double_tau")],
    )
    def test_record_must_fit_config(self, tmp_path, config_path, capsys, command, record):
        # the config has 3 sources at tau = 2; every other record is refused
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        assert run("invert", "--method", "lsl", "--config", config_path) == 0
        siso = load_transfer(out / "siso.lslt")
        if record == "two_sources":
            bad = TransferData(siso.values[:2, :2], siso.mask[:2, :2], siso.tau)
        elif record == "four_sources":
            values = np.zeros((4, 4, siso.num_samples))
            values[:3, :3] = siso.values
            values[3, 3] = siso.values[0, 0]
            bad = TransferData(values, np.eye(4, dtype=np.int8), siso.tau)
        else:
            bad = TransferData(siso.values, siso.mask, 2.0 * siso.tau)
        save_transfer(out / "bad.lslt", bad)
        argv = ["--method", "lsl"] if command == "invert" else []
        assert run(command, *argv, "--config", config_path, "--data", out / "bad.lslt") == 2
        err = capsys.readouterr().err
        assert ("sources.count" if record.endswith("sources") else "time.tau") in err
        assert not (out / "lifted.lslt").exists()

    @pytest.mark.parametrize("record", ["short_diagonal", "long_full"])
    def test_record_length_names_time_n(self, tmp_path, config_path, capsys, record):
        # n = 12: a diagonal record needs 23 samples, a full one holds at most 23
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        if record == "short_diagonal":
            siso = load_transfer(out / "siso.lslt")
            bad = TransferData(siso.values[:, :, :20], siso.mask, siso.tau)
        else:
            mimo = load_transfer(out / "mimo.lslt")
            values = np.concatenate([mimo.values, mimo.values[:, :, -4:]], axis=2)
            bad = TransferData(values, mimo.mask, mimo.tau)
        save_transfer(out / "bad.lslt", bad)
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "bad.lslt") == 2
        assert "time.n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [(("--clip-lo", 150), "--clip-lo"), (("--clip-lo", "nan"), "--clip-lo"),
         (("--clip-hi", -1), "--clip-hi"), (("--clip-lo", 60, "--clip-hi", 40), "--clip-lo")],
    )
    def test_render_clip_percentiles(self, tmp_path, config_path, capsys, flags, named):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        assert run("render", "--config", config_path, "--in", out / "q_true.lslf", *flags) == 2
        assert named in capsys.readouterr().err
        assert not (out / "q_true.pgm").exists()

    def test_negative_seed(self, tmp_path, config_path, capsys):
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(config_path.read_text() + "\n[noise]\nlevel = 0.05\n")
        assert run("simulate", "--config", noisy, "--seed", -1) == 2
        assert "noise.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "key"])
    @pytest.mark.parametrize("iterations, code", [(-1, 2), (3, 0), (4, 2)])
    def test_pipeline_iterations(self, tmp_path, config_path, capsys, source, iterations, code):
        # the flag is validated like the config key, before anything is written;
        # n = 12 halves to 6, 3 and 2 samples, so a fourth round cannot run
        if source == "flag":
            argv = ("--config", config_path, "--iterations", iterations)
        else:
            rounds = tmp_path / "rounds.cfg"
            key = f"\n[inversion]\niterations = {iterations}\n"
            rounds.write_text(config_path.read_text() + key)
            argv = ("--config", rounds)
        assert run("pipeline", *argv) == code
        if code:
            assert "inversion.iterations" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        else:
            assert (tmp_path / "out" / "q_mimo_3.lslf").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize(
        "old, new, named",
        [("count = 3", "count = 1", "sources.count"),
         ("sigma = 2.0", "sigma = 2.0\namplitude = 0.0", "sources.amplitude"),
         ("[inclusion blob]", "[inclusion ]", "[inclusion ]")],
        ids=["one_source", "zero_amplitude", "nameless_inclusion"],
    )
    def test_config_refused_before_output(self, tmp_path, config_path, capsys,
                                          command, old, new, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_path.read_text().replace(old, new))
        assert run(command, "--config", bad) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_float(self, tmp_path, config_path, capsys):
        bad = tmp_path / "nan.cfg"
        bad.write_text(config_path.read_text().replace("width = 40.0", "width = nan"))
        assert run("simulate", "--config", bad) == 2
        assert "domain.width" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_header(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        # K=3 and T=2^40 would ask for 72 TiB; the file holds a few bytes
        header = struct.pack("<4sIQQd", b"LSLT", 1, 3, 2**40, 2.0)
        (out / "huge.lslt").write_bytes(header + bytes([1, 0, 0, 0, 1, 0, 0, 0, 1]) + b"\0" * 64)
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "huge.lslt") == 4
        assert "truncated" in capsys.readouterr().err
        # K=1 and T=2^61 with the diagonal absent: refused before allocating
        (out / "bare.lslt").write_bytes(struct.pack("<4sIQQd", b"LSLT", 1, 1, 2**61, 2.0) + b"\0")
        assert run("invert", "--method", "born", "--config", config_path,
                   "--data", out / "bare.lslt") == 4
        assert "diagonal" in capsys.readouterr().err
