"""Experiment driver: reproducibility, stream independence, claim checks,
and the config-file front end."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wptsim.channel import ChannelModel
from wptsim.csi import CsiConfig
from wptsim.harness import (
    CDF_FIELDS,
    CONFIG_KEYS,
    SWEEP_FIELDS,
    ClaimCheck,
    ExperimentConfig,
    PaperCheckReport,
    cdf_to_csv,
    config_from_mapping,
    load_config_file,
    paper_check,
    parse_config_text,
    run_cdf,
    run_sweep,
    sweep_to_csv,
)

# Small but non-degenerate: every structural property below is independent
# of ensemble size.
SMALL = ExperimentConfig(
    schemes=("smf", "up"),
    tone_counts=(1,),
    antenna_counts=(1,),
    distances=(1.0, 2.0, 4.0),
    realizations=5,
    seed=123,
)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        ExperimentConfig().validate()

    def test_problems_name_their_fields(self):
        cfg = ExperimentConfig(
            schemes=("smf", "bogus"), realizations=0, distances=(-1.0,)
        )
        with pytest.raises(ValueError) as err:
            cfg.validate()
        message = str(err.value)
        assert "schemes" in message
        assert "realizations" in message
        assert "distances" in message
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="distances"):
                ExperimentConfig(distances=(1.0, bad)).validate()

    @pytest.mark.parametrize("name", ["power_budget", "beta", "f0", "band_limit"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalars_name_their_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name}: must be positive and finite"):
            ExperimentConfig(**{name: value}).validate()

    def test_mrt_multitone_rejected(self):
        cfg = ExperimentConfig(schemes=("mrt",), tone_counts=(1, 8))
        with pytest.raises(ValueError, match="mrt requires n_tones = 1"):
            cfg.validate()

    def test_band_wider_than_twice_f0_rejected(self):
        cfg = ExperimentConfig(f0=1e6, band_limit=10e6)
        with pytest.raises(ValueError, match="f0/band_limit"):
            cfg.validate()
        # A single tone occupies no bandwidth, so any band limit is fine.
        replace(cfg, tone_counts=(1,)).validate()

    def test_grid_uses_band_limit(self):
        grid = ExperimentConfig().grid_for(8)
        assert grid.n_tones == 8
        assert grid.frequencies[-1] - grid.frequencies[0] == pytest.approx(10e6)


class TestSweep:
    def test_row_cardinality_and_order(self):
        rows = run_sweep(SMALL)
        assert len(rows) == 6  # 2 schemes x 1 tone count x 1 antenna count x 3 d
        keys = [(r.scheme, r.n_tones, r.m_antennas, r.distance) for r in rows]
        assert keys == sorted(keys)

    def test_repeat_runs_byte_identical(self):
        a = sweep_to_csv(run_sweep(SMALL))
        b = sweep_to_csv(run_sweep(SMALL))
        assert a == b

    def test_single_realization_has_zero_spread(self):
        rows = run_sweep(replace(SMALL, realizations=1))
        assert all(r.zdc_std == 0.0 for r in rows)
        assert all(r.zdc_mean > 0 for r in rows)

    def test_distance_listing_order_irrelevant(self):
        shuffled = replace(SMALL, distances=(4.0, 1.0, 2.0))
        assert run_sweep(shuffled) == run_sweep(SMALL)

    def test_schemes_share_channel_streams(self):
        # Solo runs must reproduce the combined run cell for cell.
        combined = run_sweep(SMALL)
        for scheme in ("smf", "up"):
            solo = run_sweep(replace(SMALL, schemes=(scheme,)))
            assert solo == [r for r in combined if r.scheme == scheme]

    def test_single_tone_smf_equals_mrt(self):
        # At one tone the matched-filter multisine degenerates to the
        # beamformer; the ensembles agree to rounding (the two design paths
        # order their float operations differently).
        cfg = replace(SMALL, schemes=("mrt", "smf"), antenna_counts=(4,))
        rows = run_sweep(cfg)
        mrt = [r for r in rows if r.scheme == "mrt"]
        smf = [r for r in rows if r.scheme == "smf"]
        for a, b in zip(mrt, smf):
            assert a.zdc_mean == pytest.approx(b.zdc_mean, rel=1e-12)
            assert a.zdc_std == pytest.approx(b.zdc_std, rel=1e-12)

    def test_mean_decays_with_distance(self):
        rows = [r for r in run_sweep(replace(SMALL, realizations=200,
                                             schemes=("smf",)))]
        means = [r.zdc_mean for r in rows]
        assert means == sorted(means, reverse=True)

    def test_csv_shape(self):
        text = sweep_to_csv(run_sweep(SMALL))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_FIELDS)
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "smf"
        float(first[4])  # mean parses

    def test_csi_noise_changes_results(self):
        clean = replace(SMALL, schemes=("smf",),
                        csi=CsiConfig(noise_variance=0.0,
                                      quant_bits_per_component=None))
        noisy = replace(clean, csi=CsiConfig(noise_variance=0.5,
                                             quant_bits_per_component=None))
        ideal = replace(clean, csi=None)
        rows_clean = run_sweep(clean)
        rows_noisy = run_sweep(noisy)
        rows_ideal = run_sweep(ideal)
        for rc, ri in zip(rows_clean, rows_ideal):
            assert rc.zdc_mean == pytest.approx(ri.zdc_mean, rel=1e-12)
        assert any(
            rn.zdc_mean != rc.zdc_mean
            for rn, rc in zip(rows_noisy, rows_clean)
        )


class TestCdf:
    def test_positions_are_plotting_fractions(self):
        cfg = replace(SMALL, schemes=("smf",), distances=(2.0,), realizations=3)
        (curve,) = run_cdf(cfg)
        np.testing.assert_allclose(curve.positions, [1 / 3, 2 / 3, 1.0], rtol=1e-12)
        assert np.all(np.diff(curve.values) >= 0)

    def test_pools_over_distances(self):
        cfg = replace(SMALL, schemes=("smf",), realizations=2)
        (curve,) = run_cdf(cfg)
        assert curve.values.size == 6  # 3 distances x 2 realizations
        assert curve.positions[-1] == 1.0

    def test_median_matches_numpy(self):
        cfg = replace(SMALL, schemes=("smf",), realizations=4)
        (curve,) = run_cdf(cfg)
        assert curve.median == np.median(curve.values)

    def test_curves_sorted_by_group(self):
        curves = run_cdf(SMALL)
        keys = [(c.scheme, c.n_tones, c.m_antennas) for c in curves]
        assert keys == sorted(keys)

    def test_csv_shape(self):
        cfg = replace(SMALL, schemes=("smf",), realizations=2)
        text = cdf_to_csv(run_cdf(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CDF_FIELDS)
        assert len(lines) == 7

    def test_values_immutable(self):
        cfg = replace(SMALL, schemes=("smf",), distances=(1.0,), realizations=2)
        (curve,) = run_cdf(cfg)
        with pytest.raises(ValueError):
            curve.values[0] = 0.0


class TestPaperCheck:
    def test_all_reference_claims_hold(self):
        report = paper_check()
        assert report.all_passed
        assert len(report.checks) == 9

    def test_check_names(self):
        names = [c.name for c in paper_check().checks]
        assert names == [
            "tone-gain-2v1",
            "tone-gain-4v2",
            "tone-gain-8v4",
            "antenna-gain-2v1",
            "antenna-gain-4v2",
            "antenna-gain-8v4",
            "range-expansion-8ant",
            "cumulative-amplitude",
            "exponent-stability",
        ]

    def test_frozen_values(self):
        values = {c.name: c.value for c in paper_check().checks}
        assert values["tone-gain-2v1"] == pytest.approx(1.156824165211502, rel=1e-12)
        assert values["tone-gain-4v2"] == pytest.approx(1.1398942263077503, rel=1e-12)
        assert values["tone-gain-8v4"] == pytest.approx(1.0751992387683786, rel=1e-12)
        assert values["antenna-gain-2v1"] == pytest.approx(
            1.7058801395140055, rel=1e-12
        )
        assert values["antenna-gain-4v2"] == pytest.approx(
            1.697088062168756, rel=1e-12
        )
        assert values["antenna-gain-8v4"] == pytest.approx(
            1.7448027335459173, rel=1e-12
        )
        assert values["range-expansion-8ant"] == pytest.approx(
            4.633623544910529, rel=1e-12
        )
        assert values["cumulative-amplitude"] == pytest.approx(
            65.69018685806212 / 70.97, rel=1e-12
        )
        assert values["exponent-stability"] == pytest.approx(0.083, rel=1e-9)

    def test_report_lines(self):
        lines = paper_check().lines()
        assert lines[0].startswith("PASS tone-gain-2v1: 1.15682417 in [1.05, 1.25]")
        assert lines[-1] == "paper-check: all claims hold"

    def test_failing_report_lines(self):
        report = PaperCheckReport(
            checks=(ClaimCheck("made-up", 0.5, 1.0, 2.0),)
        )
        assert not report.all_passed
        assert report.lines()[0].startswith("FAIL made-up")
        assert report.lines()[-1].endswith("some claims FAILED")


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "\n# full line comment\nseed = 7  # trailing\n\ntones = 1, 8\n"
        values = parse_config_text(text)
        assert values == {"seed": "7", "tones": "1, 8"}

    def test_bad_line_numbered(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("seed = 1\nnot a pair\n")

    def test_duplicate_key_rejected_with_both_lines(self):
        with pytest.raises(ValueError, match="line 3: key 'seed' repeats line 1"):
            parse_config_text("seed = 1\ntones = 1\nseed = 2\n")

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Recognized keys:", 1)[1].split("```")[1]
        keys = re.sub(r"\([^)]*\)", "", block).replace(",", " ").split()
        assert sorted(keys) == sorted(CONFIG_KEYS)

    def test_full_mapping(self):
        cfg = config_from_mapping(
            {
                "schemes": "smf, mrt",
                "tones": "1",
                "antennas": "1, 4",
                "distances": "0.5, 2",
                "realizations": "50",
                "seed": "9",
                "power_budget": "0.01",
                "beta": "2.5",
                "f0": "915e6",
                "band_limit": "5e6",
                "out": "run.csv",
                "channel_kind": "frequency_flat",
                "path_loss_ref": "100",
                "path_loss_exponent": "2",
                "k2": "0.004",
                "r_ant": "75",
                "csi_enabled": "true",
                "noise_variance": "0.01",
                "quant_bits": "10",
            }
        )
        assert cfg.schemes == ("smf", "mrt")
        assert cfg.antenna_counts == (1, 4)
        assert cfg.distances == (0.5, 2.0)
        assert cfg.power_budget == 0.01
        assert cfg.f0 == 915e6
        assert cfg.out_path == "run.csv"
        assert cfg.channel_model.kind == "frequency_flat"
        assert cfg.channel_model.path_loss_ref == 100.0
        assert cfg.rectifier.k2 == 0.004
        assert cfg.rectifier.r_ant == 75.0
        assert cfg.csi is not None
        assert cfg.csi.noise_variance == 0.01
        assert cfg.csi.quant_bits_per_component == 10
        cfg.validate()

    def test_channel_keys_keep_defaults_elsewhere(self):
        cfg = config_from_mapping({"n_taps": "4"})
        assert cfg.channel_model.n_taps == 4
        assert cfg.channel_model.kind == ChannelModel().kind

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'foo'"):
            config_from_mapping({"foo": "1"})

    def test_type_error_names_key(self):
        with pytest.raises(ValueError, match="realizations"):
            config_from_mapping({"realizations": "many"})

    def test_csi_fields_require_enable_flag(self):
        with pytest.raises(ValueError, match="csi_enabled"):
            config_from_mapping({"noise_variance": "0.1"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            config_from_mapping({"csi_enabled": "maybe"})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nschemes = up\n# done\n")
        cfg = config_from_mapping(load_config_file(str(path)))
        assert cfg.seed == 3
        assert cfg.schemes == ("up",)
