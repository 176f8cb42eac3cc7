"""Experiment driver: reproducibility, stream independence, and the
config-file front end."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptsim.channel import ChannelModel, path_loss
from wptsim.csi import CsiConfig
from wptsim.harness import (
    CDF_FIELDS,
    CONFIG_KEYS,
    SWEEP_FIELDS,
    ExperimentConfig,
    cdf_to_csv,
    config_from_mapping,
    load_config_file,
    parse_config_text,
    run_cdf,
    run_sweep,
    sweep_to_csv,
)
from wptsim.rectifier import ReceivedTones, scaling_law_ca

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

# One-key faults in the order `validate` checks them, each with the message
# it gives alone.  Each scheme is built as its DesignScheme, which states the
# budget and beta rules, so power_budget and beta follow schemes.
ORDERED_FAULTS = [
    ({"schemes": ("bogus",)}, "schemes: unknown scheme 'bogus'"),
    ({"power_budget": float("nan")}, "power_budget must be positive and finite"),
    ({"beta": float("nan")}, "beta must be positive and finite"),
    ({"tone_counts": (0,)}, "tones must be an integer >= 1"),
    ({"antenna_counts": (0,)}, "antennas must be an integer >= 1"),
    ({"distances": (-1.0,)}, "distances: distance must be positive and finite"),
    ({"realizations": 0}, "realizations must be an integer >= 1"),
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"f0": float("inf")}, "f0: must be positive and finite"),
    (
        {"band_limit": 1e10},
        "f0/band_limit: occupied bandwidth 1e+10 Hz must stay below 2*f0 = "
        "4.8e+09 Hz: wider combs beat three-tone sums to DC, which the "
        "closed-form rectifier moments omit",
    ),
]


class TestConfigValidation:
    def test_default_config_is_valid(self):
        ExperimentConfig().validate()

    def test_problems_name_their_fields(self):
        # The first problem in check order is named, and only that one.
        cfg = ExperimentConfig(
            schemes=("smf", "bogus"), realizations=0, distances=(-1.0,)
        )
        for field_name, fixed, message in [
            ("schemes", ("smf",), "schemes: unknown scheme 'bogus'"),
            ("distances", (1.0,), "distances: distance must be positive and finite"),
            ("realizations", 1, "realizations must be an integer >= 1"),
        ]:
            with pytest.raises(ValueError) as err:
                cfg.validate()
            assert str(err.value) == f"invalid experiment config: {message}"
            cfg = replace(cfg, **{field_name: fixed})
        cfg.validate()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="distances"):
                ExperimentConfig(distances=(1.0, bad)).validate()

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, len(ORDERED_FAULTS) - 1), min_size=1))
    @example({6, 7})
    def test_several_problems_name_only_the_first(self, picked):
        updates = {}
        for index in picked:
            updates.update(ORDERED_FAULTS[index][0])
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**updates).validate()
        first_updates, first_message = ORDERED_FAULTS[min(picked)]
        assert "; " not in str(err.value)
        assert str(err.value) == f"invalid experiment config: {first_message}"
        with pytest.raises(ValueError) as alone:
            ExperimentConfig(**first_updates).validate()
        assert str(alone.value) == str(err.value)

    @pytest.mark.parametrize("name", ["power_budget", "beta", "f0", "band_limit"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalars_name_their_fields(self, name, value):
        # DesignScheme words the budget and beta rules as positive_finite does.
        rule = f"{name} must" if name in ("power_budget", "beta") else f"{name}: must"
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{name: value}).validate()
        assert str(err.value) == (
            f"invalid experiment config: {rule} be positive and finite"
        )

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

    @settings(max_examples=300, deadline=None)
    @given(
        f0=st.floats(3.0, 10.0).map(lambda e: 10.0**e),
        ulps=st.integers(-4, 4),
        tones=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    )
    @example(f0=915e6, ulps=-1, tones=[1, 24])
    @example(f0=1e6, ulps=0, tones=[1, 8])
    @example(f0=1e6, ulps=0, tones=[2])
    def test_validate_accepts_exactly_the_grids_the_rectifier_accepts(
        self, f0, ulps, tones
    ):
        # The band limit sits within a few ulps of 2*f0.
        band = 2.0 * f0
        for _ in range(abs(ulps)):
            band = math.nextafter(band, math.inf if ulps > 0 else 0.0)
        cfg = ExperimentConfig(f0=f0, band_limit=band, tone_counts=tuple(tones))

        def rectifier_accepts(n):
            try:
                ReceivedTones(np.zeros(n), cfg.grid_for(n))
            except ValueError:
                return False
            return True

        expected = all(rectifier_accepts(n) for n in tones)
        if expected:
            cfg.validate()
        else:
            with pytest.raises(ValueError, match="f0/band_limit"):
                cfg.validate()

    def test_band_too_narrow_for_a_positive_spacing_named(self):
        cfg = ExperimentConfig(band_limit=5e-324, tone_counts=(1, 8))
        with pytest.raises(ValueError, match="band_limit: delta_f must be positive"):
            cfg.validate()

    def test_tone_count_beyond_float_range_rejected_by_size(self):
        cfg = ExperimentConfig(tone_counts=(1, 10**400))
        with pytest.raises(ValueError, match="tones/antennas") as info:
            cfg.validate()
        assert "band_limit" not in str(info.value)

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


def up_one_tap_mean(params, loss, p, n, m):
    """Exact mean of `z_dc` for UP on a one-tap channel, i.i.d. CN(0, 1)
    across antennas.

    Every tone then receives sqrt(2 p / (N M L)) S with S = sum_m |h_m|, so
    E z = k2 R p E[S^2] / (M L) + (3/8) k4 R^2 (2 p / (N M L))^2 Q(N) E[S^4],
    with the Rayleigh moments E|h| = sqrt(pi) / 2, E|h|^2 = 1,
    E|h|^3 = 3 sqrt(pi) / 4 and E|h|^4 = 2 in the expansions of E[S^2] and
    E[S^4].
    """
    s2 = m + m * (m - 1) * math.pi / 4
    s4 = (
        2 * m
        + (3 + 1.5 * math.pi) * m * (m - 1)
        + 1.5 * math.pi * m * (m - 1) * (m - 2)
        + math.pi**2 / 16 * m * (m - 1) * (m - 2) * (m - 3)
    )
    q = (2 * n**3 + n) // 3
    second = params.k2 * params.r_ant * p * s2 / (m * loss)
    amplitude2 = 2 * p / (n * m * loss)
    fourth = 0.375 * params.k4 * params.r_ant**2 * amplitude2**2 * q * s4
    return second + fourth


class TestMeanLaw:
    """Sweep means against their exact ensemble means, within 4.5 standard
    errors: `scaling_law_ca` for smf on a one-tap channel and for mrt and cw
    (the N = M = 1 law) on the default tapped-delay channel, and
    `up_one_tap_mean` for up on the one-tap channel.  At 1 W the
    fourth-order term dominates, at 1 mW the second."""

    # Fixed before the first run; never re-pick it to pass.
    SEED = 2

    @pytest.mark.parametrize("power_budget", [1.0, 1e-3])
    def test_sweep_means_match_the_law(self, power_budget):
        one_tap = ExperimentConfig(
            schemes=("smf", "up"),
            tone_counts=(1, 4, 8),
            antenna_counts=(1, 2, 4),
            distances=(1.0,),
            realizations=2000,
            seed=self.SEED,
            power_budget=power_budget,
            channel_model=ChannelModel(n_taps=1),
        )
        beam = replace(
            one_tap,
            schemes=("cw", "mrt"),
            tone_counts=(1,),
            antenna_counts=(1, 2, 4, 8),
            channel_model=ChannelModel(),
        )
        scores = {}
        for cfg in (one_tap, beam):
            loss = path_loss(cfg.channel_model, 1.0)
            for row in run_sweep(cfg):
                n, m = (1, 1) if row.scheme == "cw" else (row.n_tones, row.m_antennas)
                law = (up_one_tap_mean if row.scheme == "up" else scaling_law_ca)(
                    cfg.rectifier, loss, power_budget, n, m
                )
                sem = row.zdc_std / math.sqrt(cfg.realizations)
                scores[row.scheme, row.n_tones, row.m_antennas] = (
                    (row.zdc_mean - law) / sem
                )
        assert len(scores) == 26
        assert max(map(abs, scores.values())) <= 4.5, scores


def quadratic_gamma_law(params, loss, p, n):
    """(alpha, gamma) with z_dc = alpha X + gamma X^2 and X = ||h||^2 ~
    Gamma(M, 1), wherever `scaling_law_ca` is exact: MRT on any channel and
    SMF on a one-tap channel, where every tone carries the amplitude
    sqrt(2 p / (N L)) ||h||, and CW, which takes the N = M = 1 law."""
    alpha = params.k2 * params.r_ant * p / loss
    gamma = 0.375 * params.k4 * params.r_ant**2 * (2 * p / (n * loss)) ** 2
    return alpha, gamma * ((2 * n**3 + n) // 3)


def quadratic_gamma_cdf(z, alpha, gamma, m):
    """P(z_dc <= z) = P(M, x*(z)), with x* the positive root of
    alpha x + gamma x^2 = z and P(M, x) = 1 - exp(-x) sum_{k<M} x^k / k!,
    the Gamma(M, 1) CDF."""
    x = 2 * z / (alpha + np.sqrt(alpha**2 + 4 * gamma * z))
    term, partial = np.ones_like(x), np.zeros_like(x)
    for k in range(m):
        partial += term
        term = term * x / (k + 1)
    return 1 - np.exp(-x) * partial


def quadratic_gamma_spread(alpha, gamma, m, realizations):
    """Exact standard deviation of z_dc, and the standard error of the
    population spread of `realizations` draws, from the Gamma moments
    E X^j = M (M + 1) ... (M + j - 1) (delta method on the variance)."""
    def raw(k):  # E z^k, expanding (alpha X + gamma X^2)^k
        return sum(
            math.comb(k, i) * alpha**i * gamma ** (k - i)
            * math.prod(range(m, m + 2 * k - i))
            for i in range(k + 1)
        )

    m1, m2, m3, m4 = map(raw, (1, 2, 3, 4))
    var = m2 - m1**2
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    std = math.sqrt(var)
    return std, math.sqrt((mu4 - var**2) / realizations) / (2 * std)


class TestExactDistribution:
    """CDF curves and sweep spreads against the exact distribution of z_dc
    on the cells where the mean law is exact: smf on a one-tap channel, mrt
    and cw (at any N and M) on the default tapped-delay channel.

    A `run_cdf` curve pools several distances, so it must follow the
    equal-weight mixture of the per-distance laws, within sqrt(n) KS <= 1.95
    (P(K > 1.95) ~ 0.001 under the Kolmogorov distribution).  Each sweep
    `zdc_std` must lie within 5 standard errors of the exact spread.  The
    curves run at 1 mW, where the second-order term dominates, and the
    spreads at 1 W, where the fourth-order one does and E X^8 enters."""

    # Fixed before the first run; never re-pick it to pass.
    SEED = 12

    @staticmethod
    def configs(power_budget):
        one_tap = ExperimentConfig(
            schemes=("smf",),
            tone_counts=(1, 4, 8),
            antenna_counts=(1, 2, 4),
            distances=(1.0, 2.0, 4.0),
            realizations=1000,
            seed=TestExactDistribution.SEED,
            power_budget=power_budget,
            channel_model=ChannelModel(n_taps=1),
        )
        beam = replace(
            one_tap,
            schemes=("cw", "mrt"),
            tone_counts=(1,),
            antenna_counts=(1, 2, 4, 8),
            channel_model=ChannelModel(),
        )
        wide_cw = replace(beam, schemes=("cw",), tone_counts=(8,), antenna_counts=(4,))
        return one_tap, beam, wide_cw

    @staticmethod
    def law(cfg, scheme, n, m, distance):
        """(alpha, gamma, M) of a cell at one distance."""
        n, m = (1, 1) if scheme == "cw" else (n, m)
        loss = path_loss(cfg.channel_model, distance)
        return (*quadratic_gamma_law(cfg.rectifier, loss, cfg.power_budget, n), m)

    def test_cdf_curves_follow_the_distance_mixture(self):
        scores = {}
        for cfg in self.configs(1e-3):
            for curve in run_cdf(cfg):
                key = (curve.scheme, curve.n_tones, curve.m_antennas)
                mixture = np.mean(
                    [
                        quadratic_gamma_cdf(curve.values, *self.law(cfg, *key, d))
                        for d in cfg.distances
                    ],
                    axis=0,
                )
                n = curve.values.size
                ks = max(
                    np.max(curve.positions - mixture),
                    np.max(mixture - (curve.positions - 1 / n)),
                )
                scores[key] = math.sqrt(n) * ks
        assert len(scores) == 18
        assert max(scores.values()) <= 1.95, scores

    def test_sweep_spreads_match_the_exact_spread(self):
        scores = {}
        for cfg in self.configs(1.0):
            for row in run_sweep(cfg):
                key = (row.scheme, row.n_tones, row.m_antennas, row.distance)
                std, sem = quadratic_gamma_spread(
                    *self.law(cfg, *key), cfg.realizations
                )
                scores[key] = (row.zdc_std - std) / sem
        assert len(scores) == 54
        assert max(map(abs, scores.values())) <= 5, scores

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 8), (8, 1), (8, 4)])
    def test_law_mean_is_the_mean_law(self, n, m):
        params = ExperimentConfig().rectifier
        alpha, gamma = quadratic_gamma_law(params, 263.0, 0.5, n)
        assert alpha * m + gamma * m * (m + 1) == pytest.approx(
            scaling_law_ca(params, 263.0, 0.5, n, m), rel=1e-12
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
        assert cfg.channel_model.n_taps == 1
        assert cfg.channel_model.path_loss_ref == 100.0
        assert cfg.rectifier.k2 == 0.004
        assert cfg.rectifier.r_ant == 75.0
        assert cfg.csi is not None
        assert cfg.csi.noise_variance == 0.01
        assert cfg.csi.quant_bits_per_component == 10
        cfg.validate()

    def test_channel_keys_keep_defaults_elsewhere(self):
        cfg = config_from_mapping({"n_taps": "4"})
        assert cfg.channel_model == ChannelModel(n_taps=4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'foo'"):
            config_from_mapping({"foo": "1"})

    def test_type_error_names_key(self):
        with pytest.raises(ValueError, match="realizations"):
            config_from_mapping({"realizations": "many"})

    def test_csi_fields_require_enable_flag(self):
        with pytest.raises(ValueError, match="csi_enabled"):
            config_from_mapping({"noise_variance": "0.1"})

    def test_csi_fields_beside_a_false_enable_flag_rejected(self):
        with pytest.raises(ValueError) as err:
            config_from_mapping({"csi_enabled": "false", "noise_variance": "0.1"})
        assert str(err.value) == "csi settings given without csi_enabled = true"

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            config_from_mapping({"csi_enabled": "maybe"})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nschemes = up\n# done\n")
        cfg = config_from_mapping(load_config_file(str(path)))
        assert cfg.seed == 3
        assert cfg.schemes == ("up",)
