import importlib.util
import inspect
import random
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lslkit.cli
import lslkit.pipeline
import lslkit.wavesim
from lslkit.cli import main
from lslkit.config import bundled_config_path, parse_config
from lslkit.core import MaskState, TimeAxis, TransferData
from lslkit.errors import ConfigurationError, DegenerateDataError, FormatError, LslError
from lslkit.io import load_field, load_transfer, save_field, save_transfer
from lslkit.rom import halved_length
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


def load_record(path):
    """A record the commands write under SMALL_CONFIG: 3 sources, n = 12."""
    return load_transfer(path, 3, TimeAxis(2.0, 12))


class TestSurface:
    def test_simulate_artifacts(self, tmp_path, config_path):
        assert run("simulate", "--config", config_path) == 0
        out = tmp_path / "out"
        # the background is recomputed by every command, never stored
        assert sorted(p.name for p in out.iterdir()) == ["mimo.lslt", "q_true.lslf", "siso.lslt"]
        siso = load_record(out / "siso.lslt")
        assert not siso.is_full
        mimo = load_record(out / "mimo.lslt")
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

    def test_second_round_evaluates_only_its_samples(self, tmp_path, config_path, monkeypatch):
        # round two's T reads halved_length(n) samples per field, and so do
        # the bands its inversion and its lift evaluate; `pipeline`
        # evaluates exactly the background of the chain, step for step
        pipe_dir, chain_dir = tmp_path / "pipe", tmp_path / "chain"
        calls = []
        bands = lslkit.pipeline.BackgroundBands

        def recording_bands(grid, sources, axis, settings, band_grid):
            calls.append((band_grid.shape, axis.n))
            return bands(grid, sources, axis, settings, band_grid)

        monkeypatch.setattr(lslkit.pipeline, "BackgroundBands", recording_bands)
        assert run("pipeline", "--config", config_path, "--iterations", 2,
                   "--out", pipe_dir) == 0
        piped = calls.copy()
        calls.clear()
        common = ("--config", config_path, "--out", chain_dir)
        for argv in (("simulate",), ("invert", "--method", "lsl"), ("lift",)):
            assert run(*argv, *common) == 0
        lifted = chain_dir / "lifted.lslt"
        second = len(calls)
        assert run("invert", "--method", "lsl", *common, "--data", lifted) == 0
        assert run("lift", *common, "--q", chain_dir / "q_mimo.lslf", "--data", lifted) == 0
        half = halved_length(parse_config(config_path).n)
        assert [steps for _, steps in calls[second:]] == [half, half]
        for name in ("q_mimo.lslf", "lifted_2.lslt"):
            assert (chain_dir / name).read_bytes() == (pipe_dir / name).read_bytes()
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted_2.lslt",
                   "--q-out", chain_dir / "q_mimo_2.lslf") == 0
        assert calls == piped

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
        a = load_record(tmp_path / "n1" / "siso.lslt")
        assert run("simulate", "--config", noisy_cfg, "--seed", 2, "--out", tmp_path / "n2") == 0
        b = load_record(tmp_path / "n2" / "siso.lslt")
        assert not np.array_equal(a.values, b.values)
        assert run("simulate", "--config", noisy_cfg, "--seed", 1, "--out", tmp_path / "n3") == 0
        c = load_record(tmp_path / "n3" / "siso.lslt")
        assert np.array_equal(a.values, c.values)

    def test_siso_is_the_mimo_diagonal(self, tmp_path, config_path):
        # noise-free: the measured record is the diagonal of the one simulation
        assert run("simulate", "--config", config_path) == 0
        siso = load_record(tmp_path / "out" / "siso.lslt")
        mimo = load_record(tmp_path / "out" / "mimo.lslt")
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
        siso = load_record(out / "siso.lslt")
        save_transfer(out / "scaled.lslt", TransferData(1.3 * siso.values, siso.mask, siso.tau))
        assert run("invert", "--method", "born", "--config", config_path,
                   "--data", out / "scaled.lslt", "--q-out", out / "q_scaled.lslf") == 0
        assert (out / "q_scaled.lslf").read_bytes() != (out / "q_born.lslf").read_bytes()

    @pytest.mark.parametrize("data", [None, "lifted.lslt"], ids=["default", "lifted"])
    @pytest.mark.parametrize("command", ["invert", "lift"])
    def test_each_command_reads_one_record(self, tmp_path, config_path, monkeypatch,
                                           command, data):
        # a step fits, or copies, the measured diagonal of the record it is
        # given: --data, or siso.lslt by default, is the only record it loads
        out = tmp_path / "out"
        common = ("--config", config_path)
        assert run("simulate", *common) == 0
        assert run("invert", "--method", "lsl", *common) == 0
        assert run("lift", *common) == 0
        assert run("invert", "--method", "lsl", *common, "--data", out / "lifted.lslt") == 0
        calls = []

        def counting_load(path, *config):
            calls.append(path)
            return load_transfer(path, *config)

        monkeypatch.setattr(lslkit.cli.lio, "load_transfer", counting_load)
        method = ("--method", "lsl") if command == "invert" else ()
        flags = ("--data", out / data) if data else ()
        assert run(command, *method, *common, *flags) == 0
        assert calls == [out / (data or "siso.lslt")]

    def test_lifted_records_need_no_siso_record(self, tmp_path, config_path):
        # every lifted record carries the measured diagonal: with siso.lslt
        # gone, the chain from lifted.lslt on is bitwise the `pipeline` run
        pipe = tmp_path / "pipe"
        common = ("--config", config_path)
        assert run("pipeline", *common, "--iterations", 2, "--out", pipe) == 0
        out = tmp_path / "out"
        assert run("simulate", *common) == 0
        assert run("invert", "--method", "lsl", *common) == 0
        assert run("lift", *common) == 0
        (out / "siso.lslt").unlink()
        assert run("invert", "--method", "lsl", *common, "--data", out / "lifted.lslt") == 0
        assert (out / "q_mimo.lslf").read_bytes() == (pipe / "q_mimo.lslf").read_bytes()
        assert run("lift", *common, "--data", out / "lifted.lslt") == 0
        assert (out / "lifted_2.lslt").read_bytes() == (pipe / "lifted_2.lslt").read_bytes()
        assert run("invert", "--method", "lsl", *common, "--data", out / "lifted_2.lslt") == 0
        assert (out / "q_mimo_2.lslf").read_bytes() == (pipe / "q_final.lslf").read_bytes()

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

    def test_default_names_follow_the_round(self, tmp_path, config_path):
        # with no --q, --data-out or --q-out, a two-round chain writes
        # `pipeline --iterations 2`'s files, by name and by byte
        pipe_dir, chain_dir = tmp_path / "pipe", tmp_path / "chain"
        assert run("pipeline", "--config", config_path, "--iterations", 2,
                   "--out", pipe_dir) == 0
        common = ("--config", config_path, "--out", chain_dir)
        assert run("simulate", *common) == 0
        assert run("invert", "--method", "lsl", *common) == 0
        assert run("lift", *common) == 0
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted.lslt") == 0
        assert run("lift", *common, "--data", chain_dir / "lifted.lslt") == 0
        assert run("invert", "--method", "lsl", *common, "--data", chain_dir / "lifted_2.lslt") == 0
        names = sorted(p.name for p in pipe_dir.iterdir()
                       if p.name not in ("q_final.lslf", "metrics.txt"))
        assert sorted(p.name for p in chain_dir.iterdir()) == names
        for name in names:
            assert (chain_dir / name).read_bytes() == (pipe_dir / name).read_bytes(), name

    @pytest.mark.parametrize("command, written", [
        (("invert", "--method", "born"), "q_born.lslf"),
        (("invert", "--method", "lsl"), "q_siso.lslf"),
        (("pipeline",), "q_final.lslf"),
    ], ids=["born", "lsl", "pipeline"])
    def test_positivity_flag_on_every_command(self, tmp_path, config_path, command, written):
        minima = []
        for flags in ((), ("--positivity",)):
            out = tmp_path / ("clamped" if flags else "plain")
            if command[0] == "invert":
                assert run("simulate", "--config", config_path, "--out", out) == 0
            assert run(*command, "--config", config_path, "--out", out, *flags) == 0
            minima.append(load_field(out / written)[1].min())
        assert minima[0] < 0.0 <= minima[1]

    @pytest.mark.parametrize("command", ["simulate", "invert", "lift", "pipeline",
                                         "compare", "render"])
    def test_seed_flag_on_every_command(self, tmp_path, config_path, capsys, command):
        # each command applies --seed to its config and validates it
        # before it reads or writes a file
        argv = {"invert": ("--method", "lsl"), "render": ("--in", tmp_path / "q.lslf"),
                "compare": ("--truth", tmp_path / "q.lslf", "--in", tmp_path / "q.lslf")}
        assert run(command, "--config", config_path, "--seed", -1, *argv.get(command, ())) == 2
        assert "noise.seed -1 must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_reaches_pipeline_noise(self, tmp_path, config_path):
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(config_path.read_text() + "\n[noise]\nlevel = 0.05\n")
        for command, seed in (("simulate", 1), ("pipeline", 1), ("pipeline", 2)):
            out = tmp_path / f"{command}_{seed}"
            assert run(command, "--config", noisy, "--seed", seed, "--out", out) == 0
        siso = {name: (tmp_path / name / "siso.lslt").read_bytes()
                for name in ("simulate_1", "pipeline_1", "pipeline_2")}
        assert siso["pipeline_1"] == siso["simulate_1"] != siso["pipeline_2"]

    def test_zero_iterations_flag(self, tmp_path, config_path):
        # 0 is an override too: the config's one round is not run
        assert run("pipeline", "--config", config_path, "--iterations", 0) == 0
        metrics = (tmp_path / "out" / "metrics.txt").read_text().splitlines()
        assert [line.split()[0] for line in metrics] == ["stage=siso"]
        assert not (tmp_path / "out" / "lifted.lslt").exists()


class TestExitCodes:
    def test_one_error_class_per_exit_code(self):
        assert set(LslError.__subclasses__()) == {ConfigurationError, DegenerateDataError,
                                                  FormatError}

    @pytest.mark.parametrize("error, code", [(ConfigurationError, 2), (DegenerateDataError, 3),
                                             (FormatError, 4)])
    def test_error_class_maps_to_its_code(self, monkeypatch, capsys, error, code):
        def failing(args):
            raise error("the handler failed")

        monkeypatch.setitem(lslkit.cli._HANDLERS, "simulate", failing)
        assert main(["simulate", "--config", "unread.cfg"]) == code
        assert capsys.readouterr().err == "error: the handler failed\n"

    def test_config_error(self, tmp_path, capsys):
        assert run("simulate", "--config", tmp_path / "missing.cfg") == 2
        assert "error:" in capsys.readouterr().err

    def test_cfl_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[solver]\nsubsteps = 1\n[time]\ntau = 5.0\n")
        assert run("simulate", "--config", bad) == 2

    def test_tsvd_below_floor(self, tmp_path, config_path, capsys):
        low = tmp_path / "low.cfg"
        low.write_text(config_path.read_text() + "\n[inversion]\ntsvd = 1e-5\n")
        assert run("pipeline", "--config", low) == 2
        assert "inversion.tsvd" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tsvd_born", "tsvd_siso", "tsvd_mimo"])
    def test_per_stage_tsvd_key_refused(self, tmp_path, config_path, capsys, key):
        # one level serves every inversion: a per-stage key is unknown
        old = tmp_path / "old.cfg"
        old.write_text(config_path.read_text() + f"\n[inversion]\n{key} = 0.03\n")
        assert run("pipeline", "--config", old) == 2
        assert f"unknown config key inversion.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        siso = load_record(out / "siso.lslt")
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
        capsys.readouterr()
        # the loader refuses the field before `render` or `compare` reads a value
        for argv in (("render", "--in", out / "inf.lslf"),
                     ("compare", "--truth", out / "q_true.lslf", "--in", out / "inf.lslf")):
            assert run(*argv, "--config", config_path) == 4
            captured = capsys.readouterr()
            assert "non-finite" in captured.err and not captured.out
        assert not (out / "inf.pgm").exists()

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
        siso = load_record(out / "siso.lslt")
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

    def test_field_origin_refused_at_load(self, tmp_path, config_path, capsys):
        # a field stored at another origin exits 4 naming the origin, never
        # 2 as a pair of grids that fail to nest, and render refuses it too
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        field = (out / "q_true.lslf").read_bytes()
        shifted = out / "shifted.lslf"  # origin x, y from byte 24
        shifted.write_bytes(field[:24] + struct.pack("<2d", 1.0, 0.0) + field[40:])
        for command, *argv in (("lift", "--q", shifted),
                               ("compare", "--truth", out / "q_true.lslf", "--in", shifted),
                               ("render", "--in", shifted)):
            assert run(command, "--config", config_path, *argv) == 4
            assert "origin (1.0, 0.0) is not (0, 0)" in capsys.readouterr().err

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
        siso = load_record(out / "siso.lslt")
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

    @pytest.mark.parametrize("method", ["born", "lsl"])
    @pytest.mark.parametrize(
        "row, changed, message",
        [("count = 3", "count = 4", "record has 3 sources, sources.count is 4"),
         ("tau = 2.0", "tau = 2.5", "record sample interval 2.0 differs from time.tau 2.5")],
        ids=["count", "tau"],
    )
    def test_record_misfit_names_the_config_key(self, tmp_path, config_path, capsys,
                                                method, row, changed, message):
        # both methods refuse the 3-source record at tau = 2 in one message
        assert run("simulate", "--config", config_path) == 0
        other = tmp_path / "other.cfg"
        other.write_text(config_path.read_text().replace(row, changed))
        capsys.readouterr()
        assert run("invert", "--method", method, "--config", other) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lift_loads_its_inputs_before_any_stack(self, tmp_path, config_path, monkeypatch):
        assert run("simulate", "--config", config_path) == 0
        built = []
        bands = lslkit.pipeline.BackgroundBands

        def counting_bands(*args):
            built.append(args[-1])  # the grid the bands cover
            return bands(*args)

        monkeypatch.setattr(lslkit.pipeline, "BackgroundBands", counting_bands)
        assert run("lift", "--config", config_path, "--q", tmp_path / "missing.lslf") == 4
        assert built == []
        assert run("invert", "--method", "lsl", "--config", config_path) == 0
        assert run("lift", "--config", config_path) == 0
        config = parse_config(config_path)
        assert built == [config.inv_grid(), config.sim_grid()]

    @pytest.mark.parametrize("command", [("invert", "--method", "born"),
                                         ("invert", "--method", "lsl"),
                                         ("lift", "--q", "q_siso.lslf"), ("lift",)],
                             ids=["born", "lsl", "lift", "lift_default_q"])
    def test_lifted_diagonal_refused_before_any_stack(self, tmp_path, config_path, capsys,
                                                      monkeypatch, command):
        # a full record whose diagonal is tagged lifted: every step refuses
        # it at the one gate, before any background is evaluated or written;
        # lift refuses it before it reads --q, whose default q_mimo.lslf is absent
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        assert run("invert", "--method", "lsl", "--config", config_path) == 0
        mimo = load_record(out / "mimo.lslt")
        lifted = np.full_like(mimo.mask, MaskState.LIFTED)
        save_transfer(out / "relabeled.lslt", TransferData(mimo.values, lifted, mimo.tau))
        built = []
        bands = lslkit.pipeline.BackgroundBands

        def counting_bands(*args):
            built.append("bands")
            return bands(*args)

        monkeypatch.setattr(lslkit.pipeline, "BackgroundBands", counting_bands)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        command = [out / arg if arg.endswith(".lslf") else arg for arg in command]
        assert run(*command, "--config", config_path, "--data", out / "relabeled.lslt") == 2
        assert capsys.readouterr().err == "error: diagonal transfer entries must be measured\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert built == []

    @pytest.mark.parametrize("record", ["short_diagonal", "long_full", "born_short_full"])
    def test_record_length_names_time_n(self, tmp_path, config_path, capsys, record):
        # n = 12: a diagonal record needs 23 samples, a full one holds at
        # most 23, and Born reads 12 of either (lifted_2.lslt holds 6)
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        siso = load_record(out / "siso.lslt")
        mimo = load_record(out / "mimo.lslt")
        if record == "short_diagonal":
            bad = TransferData(siso.values[:, :, :20], siso.mask, siso.tau)
        elif record == "long_full":
            values = np.concatenate([mimo.values, mimo.values[:, :, -4:]], axis=2)
            bad = TransferData(values, mimo.mask, mimo.tau)
        else:
            bad = TransferData(mimo.values[:, :, :6], mimo.mask, mimo.tau)
        save_transfer(out / "bad.lslt", bad)
        method = "born" if record.startswith("born") else "lsl"
        assert run("invert", "--method", method, "--config", config_path,
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

    def test_overflowing_compare_exits_3(self, tmp_path, config_path, capsys):
        # one finite value of 1e200: its square overflows the error norm
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        grid, values = load_field(out / "q_true.lslf")
        values = np.array(values)
        values[5, 7] = 1e200
        save_field(out / "huge.lslf", grid, values)
        capsys.readouterr()
        for truth, estimate in (("q_true.lslf", "huge.lslf"), ("huge.lslf", "q_true.lslf")):
            assert run("compare", "--config", config_path, "--truth", out / truth,
                       "--in", out / estimate) == 3
            captured = capsys.readouterr()
            assert "relative L2 error is not finite" in captured.err
            assert not captured.out

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
        # a header that does not fit the config (3 sources, n = 12) is refused
        # before its mask is read: K = 100000 would ask for a 10 GB mask and
        # 80 GB of zeros per sample, K = 3 and T = 2^40 for 72 TiB
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        header = lambda K, T: struct.pack("<4sIQQd", b"LSLT", 1, K, T, 2.0)
        (out / "wide.lslt").write_bytes(header(100000, 23))
        (out / "long.lslt").write_bytes(header(3, 2**40) + bytes([1, 0, 0, 0, 1, 0, 0, 0, 1]))
        capsys.readouterr()
        for name, message in (("wide", "record has 100000 sources, sources.count is 3"),
                              ("long", "record holds 1099511627776 samples, time.n 12 "
                                       "takes at most 23")):
            for command in (("invert", "--method", "lsl"), ("invert", "--method", "born"),
                            ("lift",)):
                assert run(*command, "--config", config_path,
                           "--data", out / f"{name}.lslt") == 2
                assert capsys.readouterr().err == f"error: {message}\n"
        # a header that fits but a file that holds a few bytes, and a fitting
        # header with the diagonal absent: refused before any value is read
        (out / "short.lslt").write_bytes(header(3, 23) + bytes([1, 0, 0, 0, 1, 0, 0, 0, 1]))
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "short.lslt") == 4
        assert "truncated" in capsys.readouterr().err
        (out / "bare.lslt").write_bytes(header(3, 23) + bytes(9))
        assert run("invert", "--method", "born", "--config", config_path,
                   "--data", out / "bare.lslt") == 4
        assert "diagonal" in capsys.readouterr().err


class TestBackgroundLifetime:
    # S is one (K, n) stack on box's inversion grid, 8.1 MB, and a
    # simulation-grid stack is 3.9 S
    CONFIG = bundled_config_path("box")

    def traced_fits(self, tmp_path, monkeypatch, command, *flags):
        """Run `command` on box after `simulate` and return, in S, the traced
        memory that each TSVD finds beside its system when it starts."""
        cfg = parse_config(self.CONFIG)
        stack = cfg.source_count * cfg.n * cfg.inv_grid().num_nodes * 8
        common = ("--config", self.CONFIG, "--seed", 1, "--out", tmp_path)
        assert run("simulate", *common) == 0
        seen = []
        solve = lslkit.pipeline.solve_tsvd

        def measured_solve(system):
            current = tracemalloc.get_traced_memory()[0]
            seen.append((current, system.matrix.nbytes + system.rhs.nbytes))
            return solve(system)

        monkeypatch.setattr(lslkit.pipeline, "solve_tsvd", measured_solve)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert run(command, *flags, *common) == 0
        finally:
            tracemalloc.stop()
        return [(current - start - system) / stack for current, system in seen]

    @pytest.mark.parametrize("method", ["born", "lsl"])
    def test_invert_holds_no_stack_through_its_tsvd(self, tmp_path, monkeypatch, method):
        # when the TSVD starts, `invert` holds its system and small records
        # (F0, the data, T: about 0.07 S together), and no u0 or w0 (2 S)
        [beside] = self.traced_fits(tmp_path, monkeypatch, "invert", "--method", method)
        assert beside < 0.5, f"{beside:.2f} S beside the system"

    def simulation_grid_stack(self):
        cfg = parse_config(self.CONFIG)
        return cfg.source_count * cfg.n * cfg.sim_grid().num_nodes * 8

    def test_lift_holds_no_simulation_grid_stack(self, tmp_path):
        # here S is one (K, n) stack on box's simulation grid, 30.2 MiB. The
        # lift evaluates u0 and w0 in row bands of at most
        # `lippmann.LIFT_BAND_BYTES` each (0.1 S) and holds C0 and C (0.3 S
        # together), the closed form's two (n, modes) coefficient arrays
        # (2 S / K) and a few bands; a whole u0 or w0 stack would add S
        common = ("--config", self.CONFIG, "--seed", 1, "--out", tmp_path)
        assert run("simulate", *common) == 0
        assert run("invert", "--method", "lsl", *common) == 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert run("lift", *common) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = (peak - start) / self.simulation_grid_stack()
        assert held < 1.0, f"traced peak {held:.2f} S"

    def test_pipeline_lift_holds_no_simulation_grid_stack(self, tmp_path, monkeypatch):
        # the same bound on what the lift inside `pipeline` adds to the
        # traced memory it starts with
        seen = []
        lift = lslkit.pipeline.run_lift_step

        def measured_lift(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lifted = lift(*args)
            seen.append(tracemalloc.get_traced_memory()[1] - start)
            return lifted

        monkeypatch.setattr(lslkit.pipeline, "run_lift_step", measured_lift)
        tracemalloc.start()
        try:
            assert run("pipeline", "--config", self.CONFIG, "--seed", 1, "--out", tmp_path) == 0
        finally:
            tracemalloc.stop()
        [added] = seen
        held = added / self.simulation_grid_stack()
        assert held < 1.0, f"traced peak {held:.2f} S"

    def test_pipeline_holds_no_stack_through_any_tsvd(self, tmp_path, monkeypatch):
        # every fit finds only small records beside its system: the lift's
        # bands and C0 are freed when it returns
        siso, mimo = self.traced_fits(tmp_path, monkeypatch, "pipeline")
        assert siso < 0.5, f"{siso:.2f} S beside the SISO system"
        assert mimo < 0.5, f"{mimo:.2f} S beside the MIMO system"


class TestMutatedArtifacts:
    """Seeded corruptions of the artifacts that commands read back.

    Bit flips in the first 64 bytes (the header and the start of the
    payload), truncations, and 8-byte overwrites at any payload offset:
    every run ends in an exit code, under the suite's warning filters,
    and never reports a NaN, nor an inf on stdout. An overwrite can leave
    a record or a field finite but so large that the misfit or the error
    norm overflows; that exits 3.
    """

    KINDS = ("flip", "truncate", "overwrite")
    PER_KIND = 25

    @staticmethod
    def mutated(blob, kind, header, rng):
        blob = bytearray(blob)
        if kind == "flip":
            blob[rng.randrange(64)] ^= 1 << rng.randrange(8)
        elif kind == "truncate":
            blob = blob[: rng.randrange(len(blob))]
        else:
            at = rng.randrange(header, len(blob) - 7)
            blob[at : at + 8] = rng.getrandbits(64).to_bytes(8, "little")
        return bytes(blob)

    def test_every_mutation_ends_in_an_exit_code(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("pipeline", "--config", config_path, "--iterations", 1) == 0
        common = ("--config", config_path)
        commands = {
            "siso.lslt": lambda path: ("invert", "--method", "lsl", *common, "--data", path,
                                       "--q-out", tmp_path / "q.lslf"),
            "lifted.lslt": lambda path: ("invert", "--method", "lsl", *common, "--data", path,
                                         "--q-out", tmp_path / "q.lslf"),
            "q_siso.lslf": lambda path: ("lift", *common, "--q", path,
                                         "--data-out", tmp_path / "lifted.lslt"),
            "q_final.lslf": lambda path: ("compare", *common, "--truth", out / "q_true.lslf",
                                          "--in", path),
        }
        # LSLT: 32 header bytes and K * K = 9 mask bytes; LSLF: 56 header bytes
        headers = {".lslt": 41, ".lslf": 56}
        rng = random.Random(7)
        capsys.readouterr()
        codes = []
        for name, command in commands.items():
            blob = (out / name).read_bytes()
            path = tmp_path / f"mutated_{name}"
            for kind in self.KINDS:
                for _ in range(self.PER_KIND):
                    path.write_bytes(self.mutated(blob, kind, headers[path.suffix], rng))
                    code = run(*command(path))
                    captured = capsys.readouterr()
                    text = captured.out + captured.err
                    assert code in (0, 2, 3, 4), (name, kind, text)
                    assert not re.search(r"\bnan\b", text, re.IGNORECASE), (name, kind, text)
                    assert not re.search(r"\binf\b", captured.out, re.IGNORECASE), (name, kind)
                    codes.append((name, code, "residual" in text))
        # the overflowing misfit is among the cases, named as the residual
        assert ("siso.lslt", 3, True) in codes

    def test_overflowing_misfit_exits_3(self, tmp_path, config_path, capsys):
        # one measured sample of 1.47e292: the record is finite and the
        # ROM and the TSVD run, but the misfit norm overflows
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path) == 0
        siso = load_record(out / "siso.lslt")
        values = np.array(siso.values)
        values[1, 1, 7] = 1.47e292
        save_transfer(out / "huge.lslt", TransferData(values, siso.mask, siso.tau))
        capsys.readouterr()
        assert run("invert", "--method", "lsl", "--config", config_path,
                   "--data", out / "huge.lslt") == 3
        captured = capsys.readouterr()
        assert "residual" in captured.err
        assert "nan" not in captured.out + captured.err
        assert not (out / "q_siso.lslf").exists()


class TestReadme:
    """README's command lines stay in step with the parser."""

    def test_every_readme_command_parses(self):
        # `\` continuations are joined and $CFG is a bundled config
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
        config = str(bundled_config_path("two_targets"))
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line.replace("$CFG", config), comments=True)
                    for line in lines if line.startswith("lslkit ")]
        assert len(commands) >= 9
        parser = lslkit.cli._build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")


class TestTracerContract:
    """perfbench/tracer.py wraps lslkit functions by the names its callers
    look up and binds each hook's arguments by parameter name; a rename on
    either side silently drops a per-layer metric or raises in a hook."""

    def test_every_hook_fires(self, tmp_path, config_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        # install() replaces module attributes; monkeypatch puts them back
        for namespace in tracer_module.TRACED_NAMESPACES:
            module = importlib.import_module(namespace)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, attr, value)
        tracer = tracer_module.Tracer("contract")
        tracer.install()
        # BackgroundBands has no span: each band counts to the span of the
        # step that reads it, the inversion's to `lippmann.assemble_system`
        # and the lift's to `lippmann.forward_lift`
        read_in = []  # (the grid a band covers, the innermost open span)
        bands = lslkit.wavesim.BackgroundBands.bands

        def traced_bands(self, budget):
            for band in bands(self, budget):
                read_in.append((self.band_grid, tracer.spans[tracer._stack[-1]]["name"]))
                yield band

        monkeypatch.setattr(lslkit.wavesim.BackgroundBands, "bands", traced_bands)

        out = tmp_path / "out"
        common = ("--config", config_path)
        assert lslkit.cli.main([str(a) for a in ("pipeline", *common)]) == 0
        config = parse_config(config_path)
        assert config.inv_grid() != config.sim_grid()
        assert {(grid, span) for grid, span in read_in} == {
            (config.inv_grid(), "lippmann.assemble_system"),
            (config.sim_grid(), "lippmann.forward_lift"),
        }
        for argv in (("invert", "--method", "born", *common),
                     ("lift", *common),
                     ("compare", *common, "--truth", out / "q_true.lslf",
                      "--in", out / "q_final.lslf"),
                     ("render", *common, "--in", out / "q_final.lslf")):
            assert lslkit.cli.main([str(a) for a in argv]) == 0

        spans = {span["name"] for span in tracer.spans}
        assert set(tracer_module.HOOKS) <= spans, set(tracer_module.HOOKS) - spans
        assert not [name for name in tracer.counts if name.endswith(".failed")]
        for name in ("wavesim.fine_steps", "rom.regularize_spd.calls", "lippmann.tsvd_kept",
                     "lippmann.lift_pairs", "io.files_written", "io.files_read"):
            assert tracer.counts[name] > 0, name
