"""End-to-end command-line runs through `main`, using real files on disk."""

import json

import numpy as np
import pytest

from wptsim import cli
from wptsim.channel import ChannelModel, sample_channel, save_channel, save_channel_csv
from wptsim.fitlab import MeasurementRecord, write_measurements_csv
from wptsim.harness import CONFIG_KEYS
from wptsim.signals import ToneGrid, load_weights


@pytest.fixture
def channel_json(tmp_path):
    model = ChannelModel(kind="frequency_flat", path_loss_ref=1.0)
    ch = sample_channel(model, ToneGrid.for_band(1), 4, seed=17)
    path = tmp_path / "chan.json"
    save_channel(ch, str(path))
    return str(path)


@pytest.fixture
def measurements_csv(tmp_path):
    records = []
    for scheme, n, m, a, b in [("smf", 8, 1, 14.32, -1.577), ("mrt", 1, 4, 37.07, -1.488)]:
        for d in (0.6, 1.2, 2.4, 4.8):
            records.append(MeasurementRecord(scheme, n, m, d, a * d**b))
    path = tmp_path / "meas.csv"
    write_measurements_csv(str(path), records)
    return str(path)


class TestDesignAndZdc:
    def test_design_writes_weights(self, channel_json, tmp_path):
        out = tmp_path / "weights.json"
        code = cli.main(
            ["design", "--channel", channel_json, "--scheme", "mrt",
             "--power", "0.5", "--out", str(out)]
        )
        assert code == 0
        weights = load_weights(str(out))
        assert weights.w.shape == (1, 4)
        assert np.sum(np.abs(weights.w) ** 2) / 2 == pytest.approx(0.5, rel=1e-9)

    def test_design_requires_out(self, channel_json, capsys):
        code = cli.main(["design", "--channel", channel_json, "--scheme", "mrt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zdc_prints_number(self, channel_json, capsys):
        code = cli.main(["zdc", "--channel", channel_json, "--scheme", "mrt"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0

    def test_zdc_reads_csv_channels_too(self, tmp_path, capsys):
        model = ChannelModel(kind="frequency_flat", path_loss_ref=1.0)
        ch = sample_channel(model, ToneGrid.for_band(1), 2, seed=3)
        path = tmp_path / "chan.csv"
        save_channel_csv(ch, str(path))
        assert cli.main(["zdc", "--channel", str(path), "--scheme", "up"]) == 0
        float(capsys.readouterr().out.strip())

    def test_missing_channel_file(self, tmp_path, capsys):
        code = cli.main(
            ["zdc", "--channel", str(tmp_path / "nope.json"), "--scheme", "mrt"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _channel_json(**changes):
    data = {
        "path_loss": 263.0,
        "distance": 2.0,
        "n_tones": 1,
        "m_antennas": 2,
        "entries": [
            {"tone": 0, "antenna": 0, "real": 1.0, "imag": 0.0},
            {"tone": 0, "antenna": 1, "real": 0.5, "imag": -0.5},
        ],
    }
    data.update(changes)
    return json.dumps(data)


_CSV_HEADER = "tone,antenna,real,imag,path_loss,distance\n"


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
    "list.json": ("[1, 2]", "'n_tones'"),
    "short.csv": (_CSV_HEADER + "0,0,1\n", "entries[0]: 'imag' is missing"),
    "frac.csv": (_CSV_HEADER + "0.5,0,1,0,263,2\n", "'tone'"),
    "dup.csv": (_CSV_HEADER + "0,0,1,0,263,2\n0,0,1,0,263,2\n", "'entries'"),
    "loss.csv": (_CSV_HEADER + "0,0,1,0,263,2\n0,1,1,0,999,2\n",
                 "'path_loss' differs"),
    "infloss.csv": (_CSV_HEADER + "0,0,1,0,inf,2\n", "path_loss"),
    "infdist.csv": (_CSV_HEADER + "0,0,1,0,263,inf\n", "distance"),
    "infloss.json": (_channel_json(path_loss=float("inf")), "path_loss"),
    "extra.csv": (_CSV_HEADER + "0,0,1,0,263,2,junk\n", "entries[0]"),
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


FLOAT_KEYS = [
    "power_budget", "beta", "f0", "band_limit",
    "delay_spread", "pdp_decay", "path_loss_ref", "path_loss_exponent",
    "k2", "k4", "r_ant",
    "pilot_amplitude", "noise_variance", "frame_length", "acquisition_time",
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

    def test_range_default_is_baseline(self, capsys):
        assert cli.main(["range", "--target", "8.081"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, rel=1e-9)

    def test_half_specified_fit_rejected(self, capsys):
        assert cli.main(["range", "--target", "1.0", "--a", "5.0"]) == 1
        assert "together" in capsys.readouterr().err


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
        from wptsim.harness import ClaimCheck, PaperCheckReport

        def broken():
            return PaperCheckReport(checks=(ClaimCheck("made-up", 9.0, 0.0, 1.0),))

        monkeypatch.setattr(cli, "paper_check", broken)
        assert cli.main(["paper-check"]) == 2
        assert "FAIL" in capsys.readouterr().out
