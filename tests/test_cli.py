"""End-to-end command-line runs through `main`, using real files on disk."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wptsim import cli, harness
from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    load_channel,
    sample_channel,
    save_channel,
)
from wptsim.design import SCHEME_KINDS, DesignScheme, apply_design
from wptsim.fitlab import MEASUREMENT_FIELDS
from wptsim.harness import CDF_FIELDS, CONFIG_KEYS, SWEEP_FIELDS
from wptsim.signals import ToneGrid, csv_text, load_weights, save_weights, tx_power


SRC_DIR = str(Path(cli.__file__).resolve().parents[1])


def _python(*args, cwd=None):
    """Run `python -W error <args>` in a fresh interpreter that imports
    wptsim from this checkout; returns (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _wptsim(*argv, cwd=None):
    """`wptsim <argv>` in a fresh interpreter."""
    return _python("-m", "wptsim.cli", *argv, cwd=cwd)


@pytest.fixture
def channel_json(tmp_path):
    model = ChannelModel(n_taps=1, path_loss_ref=1.0)
    ch = sample_channel(model, ToneGrid.for_band(1), 4, seed=17)
    path = tmp_path / "chan.json"
    save_channel(ch, str(path))
    return str(path)


@pytest.fixture
def measurements_csv(tmp_path):
    curves = [("smf", 8, 1, 14.32, -1.577), ("mrt", 1, 4, 37.07, -1.488)]
    rows = [
        [scheme, n, m, d, format(a * d**b, ".9g")]
        for scheme, n, m, a, b in curves
        for d in (0.6, 1.2, 2.4, 4.8)
    ]
    path = tmp_path / "meas.csv"
    path.write_text(csv_text(MEASUREMENT_FIELDS, rows), encoding="utf-8")
    return str(path)


class TestDesignAndZdc:
    @pytest.mark.parametrize("scheme, n_tones, m_antennas", [("mrt", 1, 4), ("up", 2, 2)])
    def test_design_writes_weights(self, tmp_path, scheme, n_tones, m_antennas):
        model = ChannelModel(n_taps=1, path_loss_ref=1.0)
        ch = sample_channel(model, ToneGrid.for_band(n_tones), m_antennas, seed=17)
        channel, out = tmp_path / "chan.json", tmp_path / "weights.json"
        save_channel(ch, str(channel))
        code = cli.main(
            ["design", "--channel", str(channel), "--scheme", scheme,
             "--power", "0.5", "--out", str(out)]
        )
        assert code == 0
        weights = load_weights(str(out))
        assert weights.w.shape == (n_tones, m_antennas)
        assert np.sum(np.abs(weights.w) ** 2) / 2 == pytest.approx(0.5, rel=1e-9)

    def test_library_cw_weights_match_the_cli(self, tmp_path):
        # The CLI designs a channel file on the default band of its tone
        # count, and CW sends tone 0 of that grid.
        ch = sample_channel(ChannelModel(), ToneGrid.for_band(8), 2, seed=21)
        channel_path, cli_out, lib_out = (
            str(tmp_path / name) for name in ("ch.json", "cli.json", "lib.json")
        )
        save_channel(ch, channel_path)
        argv = ["design", "--channel", channel_path, "--scheme", "cw", "--out", cli_out]
        assert cli.main(argv) == 0
        loaded = load_channel(channel_path)
        grid = ToneGrid.for_band(loaded.n_tones)
        weights = apply_design(DesignScheme("cw"), loaded, grid)
        save_weights(weights, lib_out)
        assert Path(lib_out).read_bytes() == Path(cli_out).read_bytes()

    def test_design_requires_out(self, channel_json, capsys):
        code = cli.main(["design", "--channel", channel_json, "--scheme", "mrt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zdc_prints_number(self, channel_json, capsys):
        code = cli.main(["zdc", "--channel", channel_json, "--scheme", "mrt"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0

    @pytest.mark.parametrize("command", ["design", "zdc"])
    def test_absent_power_and_beta_keep_the_scheme_defaults(
        self, tmp_path, capsys, command
    ):
        # An absent --power or --beta is not passed, so DesignScheme's 1 W and
        # beta = 3 apply; beta = 2 shows that beta is read on four tones.
        channel = tmp_path / "ch.json"
        ch = sample_channel(ChannelModel(), ToneGrid.for_band(4), 2, seed=3)
        save_channel(ch, str(channel))
        outputs = []
        for extra in ([], ["--power", "1", "--beta", "3"], ["--beta", "2"]):
            out = tmp_path / f"w{len(outputs)}.json"
            argv = [command, "--channel", str(channel), "--scheme", "smf", *extra]
            if command == "design":
                argv += ["--out", str(out)]
            assert cli.main(argv) == 0
            written = out.read_bytes() if command == "design" else b""
            outputs.append((capsys.readouterr().out, written))
        assert outputs[0] == outputs[1] != outputs[2]

    def test_zdc_has_no_out(self, channel_json, tmp_path, capsys):
        out = tmp_path / "z.txt"
        argv = ["zdc", "--channel", channel_json, "--scheme", "up", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_channel_file(self, tmp_path, capsys):
        code = cli.main(
            ["zdc", "--channel", str(tmp_path / "nope.json"), "--scheme", "mrt"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _channel_json(**changes):
    data = {
        "path_loss": 263.0,
        "n_tones": 1,
        "m_antennas": 2,
        "entries": [
            {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
            {"tone": 0, "antenna": 1, "real": 0.5, "imag": -0.5},
        ],
    }
    data.update(changes)
    return json.dumps(data)


# file name -> (file text, what the error line must name)
_BAD_CHANNEL_FILES = {
    "dup.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
        {"tone": 0, "antenna": 0, "real": 2.0, "imag": 0.0},
    ]), "entries[1]: duplicate"),
    "frac.json": (_channel_json(entries=[
        {"tone": 0.7, "antenna": 0, "real": 1.0, "imag": 0.0},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
    ]), "'tone'"),
    "huge.json": (_channel_json(n_tones=10**7, m_antennas=10**7), "'entries'"),
    "empty.json": (_channel_json(n_tones=10**7, m_antennas=10**7, entries=[]),
                   "'entries'"),
    "nan.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": float("nan"), "imag": 0.0},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
    ]), "'real'"),
    "nokey.json": (json.dumps({"m_antennas": 1, "entries": []}), "'n_tones'"),
    # Two entries fill -1 x -2 "cells"; the counts are checked first.
    "negdims.json": (_channel_json(n_tones=-1, m_antennas=-2),
                     "n_tones must be an integer >= 1"),
    "zerodims.json": (_channel_json(n_tones=1, m_antennas=0),
                      "m_antennas must be an integer >= 1"),
    "list.json": ("[1, 2]", "'n_tones'"),
    "infloss.json": (_channel_json(path_loss=float("inf")), "path_loss"),
    "nanloss.json": (_channel_json(path_loss=float("nan")), "path_loss"),
    "boolloss.json": (_channel_json(path_loss=True),
                      "'path_loss' must be a number, got True"),
    "boolreal.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": True, "imag": False},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
    ]), "entries[0]: 'real' must be a number, got True"),
    "noimag.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": 1.0},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
    ]), "entries[0]: 'imag' is missing"),
    "fracantenna.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
        {"tone": 0, "antenna": 0.5, "real": 2.0, "imag": 0.0},
    ]), "entries[1]: 'antenna'"),
    "missing.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
    ]), "'entries': missing entries, 1 for 1 tones x 2 antennas"),
    "extra.json": (_channel_json(entries=[
        {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
        {"tone": 0, "antenna": 1, "real": 2.0, "imag": 0.0},
    ]), "'entries': extra entries, 3 for 1 tones x 2 antennas"),
}


class TestRejectedChannelFiles:
    @pytest.mark.parametrize("name", sorted(_BAD_CHANNEL_FILES))
    def test_exits_one_naming_the_field(self, tmp_path, capsys, name):
        text, field = _BAD_CHANNEL_FILES[name]
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["zdc", "--channel", str(path), "--scheme", "up"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert field in captured.err
        assert captured.out == ""


# Two tones and two antennas; MRT is single-tone only.
_TWO_TONES = {
    "n_tones": 2,
    "entries": [
        {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
        {"tone": 0, "antenna": 1, "real": 0.5, "imag": -0.5},
        {"tone": 1, "antenna": 0, "real": -0.25, "imag": 0.75},
        {"tone": 1, "antenna": 1, "real": 0.0, "imag": 1.0},
    ],
}


class TestLegacyDistanceKey:
    """Older versions wrote a `distance` key, which sets nothing a design
    reads: a file holding it designs and evaluates as one without it."""

    @pytest.mark.parametrize("distance", [1.0, 2.0, float("inf"), "inf", "far"])
    @pytest.mark.parametrize(
        "scheme, channel",
        [*(pytest.param(s, {}, id=s) for s in SCHEME_KINDS),
         *(pytest.param(s, _TWO_TONES, id=f"{s}-2x2") for s in ("cw", "up", "smf"))],
    )
    def test_loads_as_without_it(self, tmp_path, capsys, distance, scheme, channel):
        outputs = []
        for name, text in (("new", _channel_json(**channel)),
                           ("old", _channel_json(distance=distance, **channel))):
            path, weights = tmp_path / f"{name}.json", tmp_path / f"{name}.w.json"
            path.write_text(text)
            argv = ["--channel", str(path), "--scheme", scheme]
            assert cli.main(["zdc", *argv]) == 0
            assert cli.main(["design", *argv, "--out", str(weights)]) == 0
            outputs.append((capsys.readouterr(), weights.read_bytes()))
        assert outputs[0] == outputs[1]


# A channel file as older versions wrote it for one tone and two antennas.
_OLD_CHANNEL_CSV = (
    "tone,antenna,real,imag,path_loss,distance\n"
    "0,0,1,0,263,2\n"
    "0,1,0.5,-0.5,263,2\n"
)


class TestNonJsonChannelFiles:
    """A channel file must be UTF-8 JSON; anything else is one `error:` line
    naming the path."""

    @pytest.mark.parametrize(
        "content",
        [_OLD_CHANNEL_CSV.encode(), b"\xff\xfe{}"],
        ids=["old-csv", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["zdc", "design"])
    def test_exits_one_naming_the_path(self, tmp_path, capsys, command, content):
        path = tmp_path / "chan.csv"
        path.write_bytes(content)
        weights = tmp_path / "w.json"
        argv = [command, "--channel", str(path), "--scheme", "up"]
        if command == "design":
            argv += ["--out", str(weights)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {str(path)!r} is not a JSON channel file: "
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not weights.exists()


@pytest.mark.parametrize(
    "command, kind",
    [(["sweep", "--config"], "config"), (["fit"], "CSV")],
    ids=["config", "measurements"],
)
def test_non_utf8_file_is_named(tmp_path, capsys, command, kind):
    # As for a channel file, the error line names the path and its kind.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert cli.main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {str(path)!r} is not a {kind} file: 'utf-8' codec can't decode "
    )
    assert captured.err.count("\n") == 1
    assert captured.out == ""


_MEASUREMENT_HEADER = "scheme,n_tones,m_antennas,distance_m,p_dc\n"
_GOOD_ROW = "smf,1,1,1.5,0.25\n"

# file name -> (file text, what the error line must name)
_BAD_MEASUREMENT_FILES = {
    "short.csv": (_MEASUREMENT_HEADER + "smf,1,1,2\n",
                  "entries[0]: 'p_dc' is missing"),
    "extra.csv": (_MEASUREMENT_HEADER + _GOOD_ROW + "smf,1,1,2,0.5,junk\n",
                  "entries[1]: 1 field(s) beyond"),
    "nanpdc.csv": (_MEASUREMENT_HEADER + "smf,1,1,2,nan\n", "entries[0]: 'p_dc'"),
    "infpdc.csv": (_MEASUREMENT_HEADER + _GOOD_ROW + "smf,1,1,2,inf\n",
                   "entries[1]: 'p_dc'"),
    "infdist.csv": (_MEASUREMENT_HEADER + "smf,1,1,inf,0.5\n",
                    "entries[0]: 'distance_m'"),
    "zerodist.csv": (_MEASUREMENT_HEADER + _GOOD_ROW + "smf,1,1,0,0.5\n",
                     "entries[1]: 'distance_m'"),
    "nandist.csv": (_MEASUREMENT_HEADER + "smf,1,1,nan,0.5\n",
                    "entries[0]: 'distance_m'"),
    "words.csv": (_MEASUREMENT_HEADER + "smf,1,1,two,0.5\n",
                  "entries[0]: 'distance_m'"),
    "fractones.csv": (_MEASUREMENT_HEADER + "smf,1.5,1,2,0.5\n",
                      "entries[0]: 'n_tones'"),
    "booltones.csv": (_MEASUREMENT_HEADER + "smf,True,1,2,0.5\n",
                      "entries[0]: 'n_tones'"),
    "noantenna.csv": (_MEASUREMENT_HEADER + "smf,1,0,2,0.5\n",
                      "entries[0]: m_antennas"),
    "header.csv": ("scheme,n,m,d,p\n" + _GOOD_ROW,
                   "header " + _MEASUREMENT_HEADER.strip()),
    "norows.csv": (_MEASUREMENT_HEADER, "'entries': CSV holds no rows"),
}


class TestRejectedMeasurementFiles:
    @pytest.mark.parametrize("name", sorted(_BAD_MEASUREMENT_FILES))
    def test_exits_one_naming_row_and_key(self, tmp_path, capsys, name):
        text, field = _BAD_MEASUREMENT_FILES[name]
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert field in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestSweepAndCdf:
    ARGS = ["--scheme", "smf", "--tones", "1,2", "--antennas", "1",
            "--realizations", "3", "--seed", "5"]

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", *self.ARGS, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scheme,")
        assert len(lines) == 1 + 2 * 3  # two tone counts, three default distances

    def test_sweep_to_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", *self.ARGS, "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["sweep", *self.ARGS]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_cdf_runs(self, capsys):
        assert cli.main(["cdf", *self.ARGS]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("scheme,")
        assert len(lines) == 1 + 2 * 9  # pooled: 3 distances x 3 realizations

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "schemes = up\ntones = 1\nantennas = 1\ndistances = 1\n"
            "realizations = 2\nseed = 1\n"
        )
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        base = capsys.readouterr().out
        assert cli.main(["sweep", "--config", str(cfg), "--seed", "2"]) == 0
        override = capsys.readouterr().out
        assert base != override
        assert base.count("\n") == override.count("\n")

    def test_invalid_config_exits_one(self, capsys):
        assert cli.main(["sweep", "--scheme", "bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("distances = nan\n", "distances"),
            ("distances = inf\n", "distances"),
            ("csi_enabled = true\nquant_bits = 1\n", "quant_bits"),
            ("f0 = 1e6\nband_limit = 10e6\n", "f0/band_limit"),
            ("seed = 1\nseed = 2\n", "'seed' repeats line 2"),
        ],
    )
    def test_rejected_config_names_key(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 1\n" + lines)
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", "abc", "seed: invalid literal for int() with base 10: 'abc'"),
            ("beta", "1e400", "beta: must be a finite number, got '1e400'"),
            ("realizations", "2.5", "realizations: invalid literal for int()"),
            ("realizations", "0", "invalid experiment config: realizations must be"),
        ],
    )
    def test_flag_is_read_as_its_config_key(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        results = []
        for argv in (["--config", str(cfg)], [f"--{key}", value]):
            code = cli.main(["sweep", *argv])
            results.append((code, capsys.readouterr()))
        (file_code, from_file), (flag_code, from_flag) = results
        assert file_code == flag_code == 1
        assert from_flag.err == from_file.err
        assert from_flag.err.startswith(f"error: {message}")
        assert from_flag.out == from_file.out == ""

    @pytest.mark.parametrize("experiment", ["sweep", "cdf"])
    @pytest.mark.parametrize("command", ["design", "zdc"])
    @pytest.mark.parametrize(
        "flag, key, value, message, validated",
        [
            ("--power", "power_budget", "1e400",
             "power_budget: must be a finite number, got '1e400'", False),
            ("--power", "power_budget", "abc",
             "power_budget: could not convert string to float: 'abc'", False),
            ("--beta", "beta", "1e400", "beta: must be a finite number, got '1e400'",
             False),
            ("--beta", "beta", "abc", "beta: could not convert string to float: 'abc'",
             False),
            ("--beta", "beta", "0", "beta must be positive and finite", True),
            ("--scheme", "schemes", "bogus", "schemes: unknown scheme 'bogus'", True),
        ],
    )
    def test_design_flag_is_read_as_its_config_key(
        self, tmp_path, capsys, channel_json, experiment, command,
        flag, key, value, message, validated,
    ):
        # design and zdc report a bad --power, --beta or --scheme as a sweep
        # config key does; validate adds its prefix to what it finds.
        settings = {"schemes": "smf", "tones": "1", "realizations": "1", key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        weights = tmp_path / "weights.json"
        flags = {"--scheme": "smf", flag: value}
        argv = [command, "--channel", channel_json, *sum(flags.items(), ())]
        if command == "design":
            argv += ["--out", str(weights)]
        assert cli.main(argv) == 1
        from_flag = capsys.readouterr()
        assert cli.main([experiment, "--config", str(cfg)]) == 1
        from_file = capsys.readouterr()
        prefix = "invalid experiment config: " if validated else ""
        assert from_flag.err == f"error: {message}\n"
        assert from_file.err == f"error: {prefix}{message}\n"
        assert from_flag.out == from_file.out == ""
        assert not weights.exists()

    def test_config_with_two_problems_names_the_first(self, tmp_path, capsys):
        # realizations comes before seed in check order; seed is not named.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 0\nseed = -1\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid experiment config: realizations must be an integer >= 1\n"
        )
        assert captured.out == ""


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["sweep", "cdf"])
    @pytest.mark.parametrize(
        "out, message",
        [
            ("missing/x.csv", "out: directory '{tmp}/missing' does not exist"),
            (".", "out: '{tmp}' is a directory"),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, out, message
    ):
        def run(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, f"run_{command}", run)
        argv = [command, "--tones", "1,8", "--antennas", "1,4",
                "--out", str(tmp_path / out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: " + message.format(tmp=tmp_path) + "\n"
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "command, argv, patched",
        [
            ("fit", ["fit", "meas.csv"], "read_measurements_csv"),
            ("paper-check", ["paper-check"], "paper_check"),
            ("design", ["design", "--channel", "ch.json", "--scheme", "up"],
             "load_channel"),
        ],
        ids=["fit", "paper-check", "design"],
    )
    @pytest.mark.parametrize(
        "out, message",
        [
            ("missing/x.out", "out: directory '{tmp}/missing' does not exist"),
            (".", "out: '{tmp}' is a directory"),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_rejected_before_any_file_work(
        self, tmp_path, capsys, monkeypatch, command, argv, patched, out, message
    ):
        def work(*args):
            raise AssertionError(f"{command} started its work")

        monkeypatch.setattr(cli, patched, work)
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: " + message.format(tmp=tmp_path) + "\n"
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv, patched",
        [
            (["sweep", "--out", ""], "run_sweep"),
            (["cdf", "--out", ""], "run_cdf"),
            (["sweep", "--config", "{tmp}/run.cfg"], "run_sweep"),
            (["cdf", "--config", "{tmp}/run.cfg"], "run_cdf"),
            (["fit", "meas.csv", "--out", ""], "read_measurements_csv"),
            (["paper-check", "--out", ""], "paper_check"),
            (["design", "--channel", "ch.json", "--scheme", "up", "--out", ""],
             "load_channel"),
        ],
        ids=["sweep", "cdf", "sweep-config", "cdf-config", "fit", "paper-check",
             "design"],
    )
    def test_empty_out_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, patched
    ):
        def work(*args):
            raise AssertionError(f"{patched} was called")

        monkeypatch.setattr(cli, patched, work)
        (tmp_path / "run.cfg").write_text("realizations = 2\nout =\n")
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out: must not be empty\n"
        assert captured.out == ""

    def test_design_asks_for_out_before_reading_the_channel(self, tmp_path, capsys):
        argv = ["design", "--channel", str(tmp_path / "nope.json"), "--scheme", "up"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: design requires --out for the weight file\n"
        )

    def test_existing_file_is_not_truncated_on_a_rejected_config(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sweep.csv"
        out.write_text("kept\n")
        argv = ["sweep", "--scheme", "bogus", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "bogus" in capsys.readouterr().err
        assert out.read_text() == "kept\n"


class TestChannelKind:
    """`channel_kind` is input only: frequency_flat is n_taps = 1."""

    BASE = "realizations = 5\ntones = 1,4\nantennas = 1,2\nseed = 3\n"
    CSI = "csi_enabled = true\nnoise_variance = 1e-3\n"

    def _sweep(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.BASE + text)
        code = cli.main(["sweep", "--config", str(cfg)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("csi", ["", CSI], ids=["ideal", "csi"])
    @pytest.mark.parametrize(
        "profile", ["", "delay_spread = 1e-6\npdp_decay = 1e300\n"]
    )
    def test_frequency_flat_is_one_tap(self, tmp_path, capsys, csi, profile):
        flat = self._sweep(
            tmp_path, capsys, "channel_kind = frequency_flat\n" + csi + profile
        )
        one_tap = self._sweep(tmp_path, capsys, "n_taps = 1\n" + csi + profile)
        both = self._sweep(
            tmp_path, capsys, "channel_kind = frequency_flat\nn_taps = 1\n" + csi + profile
        )
        assert flat[0] == 0 and flat[2] == ""
        assert flat == one_tap == both

    def test_tapped_delay_changes_nothing(self, tmp_path, capsys):
        default = self._sweep(tmp_path, capsys, "n_taps = 3\n")
        tapped = self._sweep(
            tmp_path, capsys, "channel_kind = tapped_delay\nn_taps = 3\n"
        )
        assert default[0] == 0 and default == tapped

    def test_other_n_taps_beside_frequency_flat_rejected(self, tmp_path, capsys):
        code, out, err = self._sweep(
            tmp_path, capsys, "channel_kind = frequency_flat\nn_taps = 4\n"
        )
        assert code == 1 and out == ""
        assert err == "error: channel_kind/n_taps: frequency_flat means n_taps = 1\n"


class TestBetaRule:
    """Only smf reads beta, so only an smf run checks it."""

    @pytest.mark.parametrize("scheme", ["mrt", "cw", "up"])
    def test_zero_beta_runs_without_smf(self, capsys, scheme):
        argv = ["sweep", "--scheme", scheme, "--tones", "1", "--beta", "0",
                "--realizations", "2"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1 + 3

    @pytest.mark.parametrize("schemes", ["smf", "mrt,smf"])
    def test_zero_beta_rejected_with_smf(self, capsys, schemes):
        argv = ["sweep", "--scheme", schemes, "--tones", "1", "--beta", "0",
                "--realizations", "2"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid experiment config: beta must be positive and finite\n"
        )


class TestOversizedRuns:
    @pytest.mark.parametrize("command", ["sweep", "cdf"])
    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"realizations": 2**62}, "realizations"),
            ({"realizations": 10**30}, "realizations"),
            ({"tones": 2**62}, "tones/antennas"),
            ({"realizations": 2, "antennas": 2**61}, "tones/antennas"),
            ({"n_taps": 2**62}, "n_taps"),
        ],
    )
    def test_beyond_numpy_array_limit_rejected_up_front(
        self, tmp_path, capsys, command, settings, key
    ):
        # numpy refuses arrays this large before allocating, so this
        # allocates nothing.
        settings = {"realizations": 1, "tones": 1, "antennas": 1, **settings}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        assert cli.main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid experiment config: {key}:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep", "cdf"])
    def test_out_of_memory_names_the_sizing_keys(self, monkeypatch, capsys, command):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, f"run_{command}", exhausted)
        argv = [command, "--realizations", str(10**12), "--tones", "1,8",
                "--antennas", "2"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: out of memory: realizations = 1000000000000, tones up to 8, "
            "antennas up to 2 and n_taps = 8"
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""


# config lines -> what the error line must name; distances = 1,1000 unless set
_OVERFLOWING_CONFIGS = {
    "path_loss_exponent = 400": "path_loss_exponent",
    "path_loss_ref = 1e-300": "path_loss_ref",
    "power_budget = 1e200": "power_budget",
    "distances = 1e-200": "distance",
    "k4 = 1e300": "k4",
}


class TestCombEdges:
    """Tone grids that `ToneGrid.for_band` builds run; combs reaching 2*f0
    are rejected before any realization."""

    @pytest.mark.parametrize(
        "lines, tones",
        [
            ("band_limit = 1e6\ntones = 1,8\n", {"1", "8"}),
            (
                "f0 = 915e6\nband_limit = 1829999999.9999998\ntones = 1,24\n",
                {"1", "24"},
            ),
            ("f0 = 1e6\nband_limit = 2e6\ntones = 1,8\n", {"1", "8"}),
        ],
        ids=["1MHz-band-8-tones", "915MHz-edge-24-tones", "exact-2f0-edge-8-tones"],
    )
    def test_config_runs(self, tmp_path, capsys, lines, tones):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 1\n" + lines)
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == tones

    def test_many_tones_on_the_default_band_run(self, capsys):
        argv = ["sweep", "--tones", "596,600", "--scheme", "up", "--antennas", "1",
                "--realizations", "1"]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"596", "600"}

    def test_two_tones_at_the_exact_edge_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 1\nf0 = 1e6\nband_limit = 2e6\ntones = 1,2\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: invalid experiment config: f0/band_limit:"
        )
        assert captured.out == ""


class TestOverflowingSettings:
    @pytest.mark.parametrize("line", sorted(_OVERFLOWING_CONFIGS))
    def test_rejected_with_one_error_line(self, tmp_path, capsys, line):
        distances = "" if line.startswith("distances") else "distances = 1,1000\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"realizations = 2\n{distances}{line}\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert _OVERFLOWING_CONFIGS[line] in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("csi_enabled = true\nquant_bits = 1\n", "quant_bits must be an integer >= 2"),
            ("csi_enabled = true\nquant_bits = 1024\n", "quant_bits must be at most 1023"),
            ("delay_spread = 1e300\n", "invalid experiment config: delay_spread: "),
        ],
        ids=["one-bit", "bits-overflow", "steering-phase-overflow"],
    )
    def test_rejected_before_the_first_cell(
        self, tmp_path, capsys, monkeypatch, lines, message
    ):
        def first_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_zdc_ensemble", first_cell)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 2\ntones = 1,8\n" + lines)
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "lines",
        [
            "csi_enabled = true\nquant_bits = 1023\n",
            "delay_spread = 1e298\n",
            "channel_kind = frequency_flat\ndelay_spread = 1e300\n",
            "n_taps = 1\ndelay_spread = 1e300\n",
            # pdp_decay * delay_spread overflows to -inf, and exp(-inf) = 0.
            "delay_spread = 1e10\npdp_decay = 1e300\n",
        ],
    )
    def test_edges_of_those_ranges_run(self, tmp_path, capsys, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 2\ntones = 1,8\n" + lines)
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\n") == 1 + 2 * 3

    def test_path_loss_checked_before_any_realization(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("distances = 1,1000\npath_loss_exponent = 400\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid experiment config: distances: path loss"
        )

    @pytest.mark.parametrize("scheme", ["cw", "mrt", "up", "smf"])
    def test_sweep_power_budget_whose_double_overflows(
        self, tmp_path, capsys, monkeypatch, scheme
    ):
        def first_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_zdc_ensemble", first_cell)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"realizations = 2\ntones = 1\nschemes = {scheme}\n"
                       "power_budget = 1e308\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid experiment config: power_budget: must be positive "
            "and finite, and at most 8.98846567e+307 since the designs double it\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("scheme", ["cw", "mrt", "up", "smf"])
    def test_zdc_power_budget_whose_double_overflows(
        self, capsys, monkeypatch, scheme
    ):
        def load(path):
            raise AssertionError("the channel file was read")

        monkeypatch.setattr(cli, "load_channel", load)
        argv = ["zdc", "--channel", "ch.json", "--scheme", scheme, "--power", "1e308"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: power_budget: must be positive and finite, and at most "
            "8.98846567e+307 since the designs double it\n"
        )
        assert captured.out == ""

    def test_zdc_power_budget_rejected_without_a_warning(self, channel_json):
        # Doubling 1e308 would overflow with a numpy RuntimeWarning, which
        # -W error turns into a traceback.
        argv = ["zdc", "--channel", channel_json, "--scheme", "up", "--power", "1e308"]
        code, out, err = _wptsim(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: power_budget: must be positive and finite")
        assert err.count("\n") == 1

    def test_zdc_power_overflow(self, channel_json, capsys):
        argv = ["zdc", "--channel", channel_json, "--scheme", "mrt", "--power", "1e200"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: z_dc overflows")
        assert "power_budget" in captured.err
        assert captured.out == ""


class TestChannelScale:
    """Stored channels whose norms overflow or whose normalisation leaves
    float range, and CSI estimates the design cannot normalise: one `error:`
    line, exit 1, no warning.  MRT designs on any channel whose norm is
    finite."""

    @staticmethod
    def _scaled_channel(tmp_path, n, m, scale):
        ch = sample_channel(ChannelModel(), ToneGrid.for_band(n), m, seed=5)
        path = str(tmp_path / "ch.json")
        save_channel(ChannelRealization(ch.h * scale, ch.path_loss), path)
        return path

    # At 1.5e308 every entry is finite but the norm is not; at 1e160 and
    # 1e-170 the norms are finite, but SMF's sixth powers of them are not.
    @pytest.mark.parametrize(
        "n, m, scale, scheme, message",
        [
            (8, 2, 1e60, "smf", "the power normalisation is not positive and finite"),
            (1, 4, 1.5e308, "mrt", "the channel norm overflows"),
            (1, 4, 1.5e308, "smf", "the channel norm overflows"),
            (1, 4, 1e160, "smf", "the power normalisation is not positive and finite"),
            (1, 4, 1e-170, "smf", "the power normalisation is not positive and finite"),
        ],
        ids=["smf-1e60", "mrt-1.5e308", "smf-1.5e308", "smf-1e160", "smf-1e-170"],
    )
    def test_design_and_zdc_exit_one(self, tmp_path, n, m, scale, scheme, message):
        path = self._scaled_channel(tmp_path, n, m, scale)
        weights = tmp_path / "w.json"
        for argv in (["design", "--out", str(weights)], ["zdc"]):
            code, out, err = _wptsim(*argv, "--channel", path, "--scheme", scheme)
            assert (code, out) == (1, "")
            assert err.startswith("error: cannot ") and err.count("\n") == 1
            assert message in err
        assert not weights.exists()

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_mrt_designs_on_a_huge_or_tiny_channel(self, tmp_path, scale):
        path = self._scaled_channel(tmp_path, 1, 4, scale)
        weights = tmp_path / "w.json"
        argv = ("design", "--out", str(weights), "--channel", path, "--scheme", "mrt")
        assert _wptsim(*argv) == (0, "", "")
        assert tx_power(load_weights(str(weights))) == pytest.approx(1.0, rel=1e-14)

    def test_csi_estimate_beyond_the_design_names_noise_variance(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 4\ncsi_enabled = true\nnoise_variance = 1e300\n")
        code, out, err = _wptsim("sweep", "--config", str(cfg), "--scheme", "smf")
        assert (code, out) == (1, "")
        assert err.startswith("error: smf N=1 M=1 d=1: cannot design: ")
        assert err.count("\n") == 1
        assert "noise_variance = 1e+300" in err


class TestCellErrors:
    """An error inside a sweep or CDF cell names the cell once, and SMF's
    normalisation error names beta."""

    def _run(self, tmp_path, capsys, command, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realizations = 2\ntones = 1\n" + lines)
        assert cli.main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.count(" N=") == 1
        return captured.err

    @pytest.mark.parametrize("command", ["sweep", "cdf"])
    def test_z_dc_overflow_names_the_cell(self, tmp_path, capsys, command):
        lines = "schemes = cw\npower_budget = 8e307\n"
        err = self._run(tmp_path, capsys, command, lines)
        assert err.startswith("error: cw N=1 M=1 d=1: z_dc overflows: ")

    def test_mean_overflow_names_the_cell_once(self, tmp_path, capsys):
        lines = "schemes = cw\nantennas = 1\ndistances = 1\npower_budget = 1e100\n"
        err = self._run(tmp_path, capsys, "sweep", lines)
        assert err.startswith("error: cw N=1 M=1 d=1: zdc_mean or zdc_std overflows")

    @pytest.mark.parametrize("command", ["sweep", "cdf"])
    @pytest.mark.parametrize("csi", ["", "csi_enabled = true\nnoise_variance = 1e-6\n"],
                             ids=["true-channel", "csi"])
    def test_smf_normalisation_names_beta(self, tmp_path, capsys, command, csi):
        err = self._run(tmp_path, capsys, command, "schemes = smf\nbeta = 400\n" + csi)
        assert err.startswith("error: smf N=1 M=1 d=4: cannot design: the power "
                              "normalisation is not positive and finite for this "
                              "power budget and beta = 400 (")

    def test_r_ant_overflow_names_the_cell_without_a_traceback(self, tmp_path):
        # R**2 as a float power raised a bare OverflowError above R ~ 1.34e154.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schemes = smf\ntones = 1\nantennas = 4\nrealizations = 2\n"
                       "seed = 917\nr_ant = 1e300\n")
        code, out, err = _wptsim("sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: smf N=1 M=4 d=1: z_dc overflows: ")
        assert err.count("\n") == 1 and "Traceback" not in err


FLOAT_KEYS = [
    "power_budget", "beta", "f0", "band_limit",
    "delay_spread", "pdp_decay", "path_loss_ref", "path_loss_exponent",
    "k2", "k4", "r_ant",
    "noise_variance", "acquisition_time",
]


def _parses_to_float(parse):
    try:
        return isinstance(parse("0.5"), float)
    except ValueError:
        return False


class TestNonFiniteConfigValues:
    def test_every_float_key_is_covered(self):
        parsed = [k for k, (_, _, parse) in CONFIG_KEYS.items() if _parses_to_float(parse)]
        assert sorted(parsed) == sorted(FLOAT_KEYS)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejected_up_front_naming_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        csi = "csi_enabled = true\n" if CONFIG_KEYS[key][0] == "csi" else ""
        cfg.write_text(f"realizations = 1\n{csi}{key} = {value}\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key}: must be a finite number")
        assert captured.out == ""


class TestRemovedConfigKeys:
    def test_account_acquisition_time_is_unknown(self, tmp_path, capsys):
        # acquisition_time alone sets the acquisition overhead.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("csi_enabled = true\naccount_acquisition_time = true\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown config key 'account_acquisition_time'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["pilot_amplitude", "frame_length"])
    def test_removed_csi_key_is_rejected_by_name(self, tmp_path, capsys, key):
        # Both settings are gone: noise_variance is the error variance of a
        # unit pilot, and acquisition_time a share of the frame.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schemes = mrt\ntones = 1\nrealizations = 2\ncsi_enabled = true\n"
                       "noise_variance = 1e-3\nacquisition_time = 0.08\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith(",".join(SWEEP_FIELDS) + "\n")
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = 1\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown config key {key!r}\n"
        assert captured.out == ""


class TestFitAndRange:
    def test_fit_report(self, measurements_csv, capsys):
        assert cli.main(["fit", measurements_csv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["fits"]) == 2
        smf = [f for f in report["fits"] if f["scheme"] == "smf"][0]
        assert smf["a"] == pytest.approx(14.32, rel=1e-6)
        assert smf["b"] == pytest.approx(-1.577, rel=1e-6)

    def test_fit_to_file(self, measurements_csv, tmp_path):
        out = tmp_path / "fits.json"
        assert cli.main(["fit", measurements_csv, "--out", str(out)]) == 0
        json.loads(out.read_text())

    def test_range_explicit_coefficients(self, capsys):
        assert cli.main(["range", "--target", "2.0", "--a", "8.0", "--b", "-2.0"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, rel=1e-9)

    def test_range_attached_exponent_form(self, capsys):
        # argparse reads "-1.5e+00" after a space as a flag; attached with
        # '=' it is the value.
        argv = ["range", "--target=2e+00", "--a=8e+00", "--b=-1.5e+00"]
        assert cli.main(argv) == 0
        attached = capsys.readouterr().out
        assert cli.main(["range", "--target", "2", "--a", "8", "--b", "-1.5"]) == 0
        assert capsys.readouterr().out == attached

    def test_range_reference_lookup(self, capsys):
        assert cli.main(
            ["range", "--target", "2.0", "--scheme", "mrt", "--antennas", "8",
             "--tones", "1"]
        ) == 0
        # 8-antenna curve: d = (2 / 70.97)^(1 / -1.417), printed at 9 digits
        expected = (2.0 / 70.97) ** (1.0 / -1.417)
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            expected, rel=1e-8
        )

    @pytest.mark.parametrize("scheme", [[], *(["--scheme", s] for s in SCHEME_KINDS)])
    def test_range_default_is_baseline(self, capsys, scheme):
        # The (1, 1) reference curve answers for every known scheme.
        assert cli.main(["range", "--target", "8.081"]) == 0
        baseline = capsys.readouterr().out
        assert float(baseline.strip()) == pytest.approx(1.0, rel=1e-9)
        assert cli.main(["range", *scheme, "--target", "8.081"]) == 0
        assert capsys.readouterr().out == baseline

    def test_range_unknown_scheme_rejected(self, capsys):
        # The (1, 1) reference curve answers only for the four SCHEME_KINDS,
        # so paper_fit states the rule and names the lookup it could not make.
        assert cli.main(["range", "--scheme", "bogus", "--target", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: no reference curve for scheme='bogus', n_tones=1, m_antennas=1\n"
        )
        assert captured.out == ""

    def test_half_specified_fit_rejected(self, capsys):
        assert cli.main(["range", "--target", "1.0", "--a", "5.0"]) == 1
        assert "together" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--target", "2", "--a", "inf", "--b", "-1.5"], "a must be positive"),
            (["--target", "2", "--a", "nan", "--b", "-1.5"], "a must be positive"),
            (["--target", "2", "--a", "8", "--b=-inf"], "b must be negative"),
            (["--target", "inf"], "p_target must be positive"),
            (["--target", "nan"], "p_target must be positive"),
        ],
    )
    def test_non_finite_range_inputs_rejected(self, capsys, argv, message):
        assert cli.main(["range", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message} and finite")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "target, b", [("2", "-2e-05"), ("1e10", "-1e-05")], ids=["inf", "0"]
    )
    def test_range_beyond_float_range_rejected(self, capsys, target, b):
        assert cli.main(["range", "--target", target, "--a", "8", f"--b={b}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: range (p_target / a) ** (1 / b)")
        assert captured.err.endswith("is not positive and finite\n")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("smf,1,1,2,0.5\nsmf,1,1,2,0.4\n", "smf N=1 M=1: fit requires at least"),
            ("smf,8,1,1,0.5\nsmf,8,1,2,0.9\n", "smf N=8 M=1: b must be negative"),
            ("smf,1,1,1,0.5\nsmf,1,1,2,0.1\nmrt,1,2,1,0.5\nmrt,1,2,2,0\n",
             "mrt N=1 M=2: fit requires strictly positive p_dc"),
            ("up,1,1,1e300,1e300\nup,1,1,1e301,1e299\n",
             "up N=1 M=1: a must be positive and finite"),
        ],
        ids=["one-distance", "rising", "zero-power", "amplitude-overflow"],
    )
    def test_unfittable_group_named(self, tmp_path, capsys, rows, message):
        path = tmp_path / "meas.csv"
        path.write_text(_MEASUREMENT_HEADER + rows)
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""


class TestPaperCheck:
    def test_passes_with_exit_zero(self, capsys):
        assert cli.main(["paper-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert out.strip().endswith("all claims hold")

    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "claims.txt"
        assert cli.main(["paper-check", "--out", str(out)]) == 0
        assert out.read_text().count("PASS") == 9

    def test_failing_claims_exit_two(self, monkeypatch, capsys):
        from wptsim.fitlab import ClaimCheck, PaperCheckReport

        def broken():
            return PaperCheckReport(checks=(ClaimCheck("made-up", 9.0, 0.0, 1.0),))

        monkeypatch.setattr(cli, "paper_check", broken)
        assert cli.main(["paper-check"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestUsageErrors:
    """argparse's usage errors exit 1 like any invalid input; 2 is kept for
    failed claims, and `main` returns the code instead of raising."""

    @pytest.mark.parametrize(
        "argv",
        [["paper-check", "--bogus"], ["range", "--a", "8", "--b=-1.5"], ["bogus"], []],
        ids=["unknown-flag", "missing-target", "unknown-command", "no-command"],
    )
    def test_exit_one_after_the_usage_and_error_lines(self, capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: wptsim")
        assert re.match(r"wptsim( [a-z-]+)?: error: ", lines[-1])

    @pytest.mark.parametrize("argv", [["--help"], ["range", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: wptsim")
        assert captured.err == ""


_SMALL_SWEEP = ["--scheme", "smf,up", "--tones", "1,4", "--antennas", "2",
                "--realizations", "3"]


class TestParserBuiltOnce:
    """`main` builds its parser on the first call and reuses it."""

    SEQUENCE = [
        ["sweep", "--seed", "5", *_SMALL_SWEEP],
        ["sweep", *_SMALL_SWEEP],
        ["range", "--target", "2", "--a", "8", "--b=-1.5"],
        ["paper-check", "--bogus"],
        ["range", "--target", "2.0", "--scheme", "mrt", "--antennas", "8",
         "--tones", "1"],
    ]

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch, capsys):
        # One terminal width for argparse in and out of process.
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.SEQUENCE:
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == _wptsim(*argv), argv

    def test_many_calls_build_one_parser_tree(self, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert cli.main(self.SEQUENCE[2]) == 0
        first = list(progs)
        assert first.count("wptsim") == 1
        for argv in self.SEQUENCE[2:]:
            cli.main(argv)
        assert progs == first

    def test_import_and_config_build_no_parser(self):
        # Benchmark setup imports the CLI and validates configs without
        # calling main, so neither may build the parser.
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "from wptsim import cli\n"
            "from wptsim.harness import config_from_mapping\n"
            "config_from_mapping({'tones': '1,8', 'realizations': '10'}).validate()\n"
            "print(len(built))\n"
            "cli.main(['range', '--target', '2', '--a', '8', '--b=-1.5'])\n"
            "n = len(built)\n"
            "cli.main(['range', '--target', '3', '--a', '8', '--b=-1.5'])\n"
            "print(n > 0, len(built) == n)\n"
        )
        code, out, err = _python("-c", code)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("0", "True True")


class TestReadmeMatchesProgram:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_every_cli_example_parses(self):
        block = self.README.split("\n## CLI\n", 1)[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(ln)[1:] for ln in lines if ln.startswith("wptsim ")]
        assert len(examples) == 8
        parser = cli.build_parser()
        for argv in examples:
            assert callable(parser.parse_args(argv).func)

    def test_csv_headers_match_fields(self):
        section = self.README.split("### File formats", 1)[1].split("\n## ", 1)[0]
        headers = re.findall(r"`([a-z_]+(?:,[a-z_]+)+)`", section)
        fields = [SWEEP_FIELDS, CDF_FIELDS, MEASUREMENT_FIELDS]
        assert headers == [",".join(f) for f in fields]
