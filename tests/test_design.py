"""Transmit designs: power budgets, phase alignment, limiting cases."""

import numpy as np
import pytest

from wptsim.channel import ChannelRealization, complex_normal, make_rng
from wptsim.design import (
    DesignScheme,
    apply_design,
    design_cw,
    design_mrt,
    design_smf,
    design_up,
    effective_channel,
)
from wptsim.signals import ToneGrid, tx_power

GRID1 = ToneGrid.for_band(1)


def random_channel(rng, n_tones, m_antennas, **kwargs):
    h = complex_normal(rng, (n_tones, m_antennas))
    return ChannelRealization(h=h, path_loss=kwargs.get("path_loss", 1.0),
                              distance=kwargs.get("distance", 1.0))


class TestCw:
    def test_amplitude(self):
        w = design_cw(1.0)
        np.testing.assert_allclose(w.w, [[np.sqrt(2.0)]], rtol=1e-12)
        assert tx_power(w) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_multitone_grid(self):
        with pytest.raises(ValueError, match="single"):
            design_cw(1.0, grid=ToneGrid.for_band(2))

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            design_cw(0.0)


class TestMrt:
    def test_worked_real_channel(self):
        ch = ChannelRealization(h=np.array([[3.0 + 0j, 4.0 + 0j]]),
                               path_loss=1.0, distance=1.0)
        w = design_mrt(ch, 1.0, grid=GRID1)
        np.testing.assert_allclose(
            w.w, [[np.sqrt(2.0) * 0.6, np.sqrt(2.0) * 0.8]], rtol=1e-12
        )

    def test_conjugate_alignment(self):
        ch = ChannelRealization(h=np.array([[1.0 + 0j, 1j]]),
                               path_loss=1.0, distance=1.0)
        w = design_mrt(ch, 1.0, grid=GRID1)
        np.testing.assert_allclose(w.w, [[1.0, -1.0j]], rtol=1e-12)
        combined = (ch.h[0] * w.w[0]).sum()
        assert combined == pytest.approx(2.0, rel=1e-12)

    def test_power_budget_met_exactly(self):
        rng = make_rng(5)
        for _ in range(20):
            ch = random_channel(rng, 1, 8)
            w = design_mrt(ch, 0.25, grid=GRID1)
            assert tx_power(w) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_multitone_channel(self):
        ch = random_channel(make_rng(0), 2, 2)
        with pytest.raises(ValueError, match="single"):
            design_mrt(ch, 1.0, grid=ToneGrid.for_band(2))

    def test_rejects_zero_channel(self):
        ch = ChannelRealization(h=np.zeros((1, 2), dtype=complex),
                               path_loss=1.0, distance=1.0)
        with pytest.raises(ValueError):
            design_mrt(ch, 1.0, grid=GRID1)


class TestUp:
    def test_amplitudes_uniform(self):
        rng = make_rng(6)
        ch = random_channel(rng, 4, 3)
        w = design_up(ch, 1.0, grid=ToneGrid.for_band(4))
        np.testing.assert_allclose(
            np.abs(w.w), np.full((4, 3), np.sqrt(2.0 / 12.0)), rtol=1e-12
        )
        assert tx_power(w) == pytest.approx(1.0, rel=1e-12)

    def test_phases_cancel_channel(self):
        rng = make_rng(7)
        ch = random_channel(rng, 4, 3)
        w = design_up(ch, 1.0, grid=ToneGrid.for_band(4))
        combined = ch.h * w.w
        np.testing.assert_allclose(combined.imag, 0.0, atol=1e-12)
        assert np.all(combined.real > 0)


class TestSmf:
    def test_worked_two_tone(self):
        h = np.array([[0.5 + 0j], [1.0 + 0j]])
        ch = ChannelRealization(h=h, path_loss=1.0, distance=1.0)
        w = design_smf(ch, 1.0, beta=3.0, grid=ToneGrid.for_band(2))
        np.testing.assert_allclose(
            np.abs(w.w).ravel(), [0.1754116, 1.40329283], rtol=1e-6
        )
        assert tx_power(w) == pytest.approx(1.0, rel=1e-12)

    def test_reduces_to_mrt_single_tone(self):
        rng = make_rng(8)
        for _ in range(10):
            ch = random_channel(rng, 1, 4)
            smf = design_smf(ch, 1.0, beta=3.0, grid=GRID1)
            mrt = design_mrt(ch, 1.0, grid=GRID1)
            np.testing.assert_allclose(smf.w, mrt.w, rtol=1e-12)

    def test_per_tone_power_follows_norm_power_law(self):
        rng = make_rng(9)
        ch = random_channel(rng, 6, 2)
        beta = 2.5
        w = design_smf(ch, 1.0, beta=beta, grid=ToneGrid.for_band(6))
        per_tone = (np.abs(w.w) ** 2).sum(axis=1)
        norms = np.linalg.norm(ch.h, axis=1)
        expected = norms ** (2 * beta)
        np.testing.assert_allclose(
            per_tone / per_tone.sum(), expected / expected.sum(), rtol=1e-12
        )

    def test_larger_beta_concentrates_power(self):
        # Ratio of strongest to weakest tone power must grow with beta.
        rng = make_rng(10)
        ch = random_channel(rng, 8, 2)
        grid = ToneGrid.for_band(8)
        ratios = []
        for beta in (1.0, 2.0, 3.0, 5.0):
            w = design_smf(ch, 1.0, beta=beta, grid=grid)
            per_tone = (np.abs(w.w) ** 2).sum(axis=1)
            ratios.append(per_tone.max() / per_tone.min())
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0]

    def test_beta_one_is_per_tone_matched_filter(self):
        rng = make_rng(11)
        ch = random_channel(rng, 5, 3)
        w = design_smf(ch, 1.0, beta=1.0, grid=ToneGrid.for_band(5))
        per_tone = (np.abs(w.w) ** 2).sum(axis=1)
        norms2 = np.linalg.norm(ch.h, axis=1) ** 2
        np.testing.assert_allclose(
            per_tone / per_tone.sum(), norms2 / norms2.sum(), rtol=1e-12
        )

    def test_zero_row_gets_zero_power(self):
        h = np.array([[0.0 + 0j, 0.0 + 0j], [1.0 + 0j, 1j]])
        ch = ChannelRealization(h=h, path_loss=1.0, distance=1.0)
        w = design_smf(ch, 1.0, beta=3.0, grid=ToneGrid.for_band(2))
        np.testing.assert_array_equal(w.w[0], 0.0)
        assert tx_power(w) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_all_zero_channel(self):
        ch = ChannelRealization(h=np.zeros((2, 2), dtype=complex),
                               path_loss=1.0, distance=1.0)
        with pytest.raises(ValueError):
            design_smf(ch, 1.0, grid=ToneGrid.for_band(2))


class TestScheme:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DesignScheme(kind="zf")

    def test_non_positive_power_rejected(self):
        with pytest.raises(ValueError):
            DesignScheme(kind="up", power_budget=0.0)

    @pytest.mark.parametrize("name", ["power_budget", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            DesignScheme(kind="smf", **{name: value})

    def test_smf_beta_validated(self):
        with pytest.raises(ValueError):
            DesignScheme(kind="smf", beta=0.0)
        DesignScheme(kind="up", beta=0.0)  # beta ignored off-smf

    @pytest.mark.parametrize("kind", ["up", "smf"])
    def test_apply_design_matches_direct_call(self, kind):
        rng = make_rng(12)
        ch = random_channel(rng, 4, 2)
        grid = ToneGrid.for_band(4)
        scheme = DesignScheme(kind=kind, power_budget=0.5, beta=3.0)
        w = apply_design(scheme, ch, grid=grid)
        direct = (design_up if kind == "up" else design_smf)(
            ch, 0.5, grid=grid, **({} if kind == "up" else {"beta": 3.0})
        )
        np.testing.assert_allclose(w.w, direct.w, rtol=1e-12)

    def test_apply_design_cw_uses_sub_channel(self):
        rng = make_rng(13)
        ch = random_channel(rng, 4, 3)
        scheme = DesignScheme(kind="cw", power_budget=1.0)
        w = apply_design(scheme, ch, grid=ToneGrid.for_band(4))
        assert w.w.shape == (1, 1)
        assert tx_power(w) == pytest.approx(1.0, rel=1e-12)
        eff = effective_channel(scheme, ch)
        assert eff.h.shape == (1, 1)
        assert eff.h[0, 0] == ch.h[0, 0]

    def test_effective_channel_identity_for_multitone_schemes(self):
        rng = make_rng(14)
        ch = random_channel(rng, 4, 3)
        for kind in ("up", "smf"):
            eff = effective_channel(DesignScheme(kind=kind), ch)
            assert eff is ch

    def test_apply_design_mrt_requires_single_tone(self):
        rng = make_rng(15)
        ch = random_channel(rng, 2, 2)
        with pytest.raises(ValueError, match="single"):
            apply_design(DesignScheme(kind="mrt"), ch, grid=ToneGrid.for_band(2))


class TestDeliveredPowerOrdering:
    def test_mrt_beats_single_antenna_on_average(self):
        # Coherent combining across M antennas must raise the mean
        # delivered tone power by about M.
        rng = make_rng(16)
        gains_1 = []
        gains_4 = []
        for _ in range(2000):
            ch1 = random_channel(rng, 1, 1)
            ch4 = random_channel(rng, 1, 4)
            w1 = design_mrt(ch1, 1.0, grid=GRID1)
            w4 = design_mrt(ch4, 1.0, grid=GRID1)
            gains_1.append(abs((ch1.h[0] * w1.w[0]).sum()) ** 2)
            gains_4.append(abs((ch4.h[0] * w4.w[0]).sum()) ** 2)
        ratio = np.mean(gains_4) / np.mean(gains_1)
        assert 3.2 < ratio < 4.8
