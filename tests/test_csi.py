"""Acquisition loop: LS estimation, feedback quantization, frame accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    complex_normal,
    derive_seed,
    make_rng,
    sample_channel,
)
from wptsim.csi import (
    MAX_QUANT_BITS,
    CsiConfig,
    csi_loop_zdc,
    ls_estimate,
    quantize_csi,
)
from wptsim.design import DesignScheme, apply_design, effective_channel
from wptsim.rectifier import RectifierParams, received_tones, z_dc
from wptsim.signals import ToneGrid

PARAMS = RectifierParams()
FLAT = ChannelModel(n_taps=1, path_loss_ref=1.0)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(noise_variance=-1e-9),
            dict(quant_bits_per_component=0),
            dict(acquisition_time=-1e-9),
            dict(acquisition_time=1.0),
            dict(quant_bits_per_component=1),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            CsiConfig(**kwargs)

    @pytest.mark.parametrize("name", ["noise_variance", "acquisition_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_naming_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            CsiConfig(**{name: value})

    @pytest.mark.parametrize("time", [0.0, 0.08, 0.5, np.nextafter(1.0, 0.0)])
    def test_acquisition_time_is_a_share_of_the_frame(self, time):
        # 0 <= acquisition_time < 1, and the rest of the frame delivers power.
        assert CsiConfig(acquisition_time=time).duty_factor == 1.0 - time > 0.0

    def test_fields_are_the_three_the_frame_model_reads(self):
        names = [f.name for f in dataclasses.fields(CsiConfig)]
        assert names == ["noise_variance", "quant_bits_per_component", "acquisition_time"]

    @pytest.mark.parametrize("name", ["pilot_amplitude", "frame_length"])
    def test_removed_settings_are_not_arguments(self, name):
        with pytest.raises(TypeError, match=name):
            CsiConfig(**{name: 1.0})

    def test_default_duty_factor(self):
        # No acquisition overhead by default: the factor is exactly 1.
        assert CsiConfig().acquisition_time == 0.0
        assert CsiConfig().duty_factor == 1.0
        assert CsiConfig(acquisition_time=0.08).duty_factor == pytest.approx(
            0.92, rel=1e-12
        )

    def test_quantization_can_be_disabled(self):
        assert CsiConfig(quant_bits_per_component=None).quant_bits_per_component is None


class TestLsEstimate:
    def test_noiseless_is_exact(self):
        rng = make_rng(1)
        h = complex_normal(rng, (4, 3))
        est = ls_estimate(h, noise_seed=0, cfg=CsiConfig())
        np.testing.assert_array_equal(est, h)

    def test_error_variance(self):
        # err = sqrt(var) * CN(0,1), so E|err|^2 = var.
        cfg = CsiConfig(noise_variance=0.01)
        h = np.zeros((100, 100), dtype=np.complex128)
        est = ls_estimate(h, noise_seed=7, cfg=cfg)
        assert np.mean(np.abs(est) ** 2) == pytest.approx(0.01, rel=0.05)

    def test_noise_direction_fixed_across_variances(self):
        # The unit draw happens before scaling, so halving the variance
        # shrinks the same error vector instead of redrawing it.
        rng = make_rng(2)
        h = complex_normal(rng, (2, 2))
        e1 = ls_estimate(h, 5, CsiConfig(noise_variance=0.01)) - h
        e4 = ls_estimate(h, 5, CsiConfig(noise_variance=0.04)) - h
        np.testing.assert_allclose(e4, 2.0 * e1, rtol=1e-12)

    def test_seed_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ls_estimate(np.ones((2, 1, 2)), [0, 1, 2], CsiConfig())

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)])
    def test_non_finite_channel_is_rejected(self, bad):
        h = np.ones((2, 2), dtype=np.complex128)
        h[1, 0] = bad
        with pytest.raises(ValueError, match="h entries must be finite"):
            ls_estimate(h, 0, CsiConfig(noise_variance=1e20))

    def test_largest_settings_keep_the_largest_channel(self):
        # sqrt(noise_variance) < 1.4e154 is far under half an ulp of the
        # largest float, so no setting can overflow a finite channel.
        big = np.finfo(float).max
        h = np.full((64, 4), complex(big, -big))
        cfg = CsiConfig(noise_variance=big)
        np.testing.assert_array_equal(ls_estimate(h, list(range(64)), cfg), h)


class TestQuantizer:
    def test_worked_example(self):
        # b = 3, largest component 1: step = 2/7, and 0.5 rounds to 2 steps.
        h = np.array([[1.0 + 0.5j]])
        q = quantize_csi(h, 3)
        assert q[0, 0].imag == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_error_bounded_by_half_step(self):
        rng = make_rng(3)
        for bits in (2, 3, 8):
            h = complex_normal(rng, (6, 4))
            x = max(np.max(np.abs(h.real)), np.max(np.abs(h.imag)))
            step = 2 * x / (2**bits - 1)
            q = quantize_csi(h, bits)
            assert np.max(np.abs(q.real - h.real)) <= step / 2 + 1e-15
            assert np.max(np.abs(q.imag - h.imag)) <= step / 2 + 1e-15

    def test_extreme_components_stay_within_half_step(self):
        h = np.array([[1.0 - 1.0j, 0.25 + 0j]])
        for bits in (2, 5, 8):
            step = 2.0 / (2**bits - 1)
            q = quantize_csi(h, bits)
            assert abs(q[0, 0].real - 1.0) <= step / 2 + 1e-15
            assert abs(q[0, 0].imag + 1.0) <= step / 2 + 1e-15

    def test_zero_is_representable(self):
        h = np.array([[1.0 + 0j, 0.0 + 0j]])
        q = quantize_csi(h, 4)
        assert q[0, 1] == 0.0

    def test_all_zero_matrix_unchanged(self):
        h = np.zeros((2, 3), dtype=np.complex128)
        np.testing.assert_array_equal(quantize_csi(h, 8), h)

    def test_fine_quantization_converges(self):
        rng = make_rng(4)
        h = complex_normal(rng, (3, 3))
        np.testing.assert_allclose(quantize_csi(h, 24), h, atol=1e-6)

    @pytest.mark.parametrize(
        "bits, message",
        [
            (0, "quant_bits must be an integer >= 2"),
            (1, "quant_bits must be an integer >= 2"),
            (8.0, "quant_bits must be an integer >= 2"),
            (True, "quant_bits must be an integer >= 2"),
            (1024, "quant_bits must be at most 1023"),
            (10**6, "quant_bits must be at most 1023"),
        ],
    )
    def test_rejects_bits_outside_the_range_naming_the_key(self, bits, message):
        with pytest.raises(ValueError, match=message):
            quantize_csi(np.ones((1, 1), dtype=complex), bits)
        with pytest.raises(ValueError, match=message):
            CsiConfig(quant_bits_per_component=bits)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-323, 307),
        st.integers(2, MAX_QUANT_BITS),
        st.integers(0, 2**32 - 1),
    )
    def test_every_accepted_bit_count_stays_finite(self, log_scale, bits, seed):
        # At 1023 bits the step of a small matrix underflows to zero, and
        # the matrix is returned as it is instead of as 0 / 0.
        h = 10.0**log_scale * complex_normal(make_rng(seed), (2, 3))
        q = quantize_csi(h, bits)
        assert np.isfinite(q).all()
        peak = max(np.max(np.abs(h.real)), np.max(np.abs(h.imag)))
        step = 2.0 * peak / (2.0**bits - 1.0)
        if step == 0.0:
            assert np.array_equal(q, h)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.complex128,
            hnp.array_shapes(min_dims=2, max_dims=3, max_side=3),
            elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
        ),
        st.integers(2, MAX_QUANT_BITS),
    )
    @example(np.array([[1e308, 1]], dtype=complex), 8)
    @example(np.array([[np.finfo(float).max]], dtype=complex), 2)
    def test_finite_input_quantizes_finite_or_raises(self, h, bits):
        # A peak above max / 2 must not make the step infinite (first example).
        try:
            q = quantize_csi(h, bits)
        except ValueError as error:
            assert str(error).startswith(f"h: quant_bits = {bits} rounds ")
        else:
            assert np.isfinite(q).all()


class TestFrameLoop:
    def _channel(self, seed, n_tones=1, m_antennas=4):
        grid = ToneGrid.for_band(n_tones)
        return sample_channel(FLAT, grid, m_antennas, seed=seed), grid

    def test_ideal_acquisition_matches_direct_design(self):
        cfg = CsiConfig(noise_variance=0.0, quant_bits_per_component=None)
        for kind, n in (("mrt", 1), ("cw", 1), ("up", 8), ("smf", 8)):
            ch, grid = self._channel(seed=10, n_tones=n)
            scheme = DesignScheme(kind=kind, power_budget=1.0)
            z = csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=0, grid=grid)
            w = apply_design(scheme, ch, grid)
            z_direct = z_dc(received_tones(w, effective_channel(scheme, ch)), PARAMS)
            assert z == pytest.approx(z_direct, rel=1e-12)

    def test_default_word_size_near_lossless(self):
        # One 16-bit feedback word per coefficient (8 + 8) should cost well
        # under 0.1% of output relative to unquantized feedback.
        cfg8 = CsiConfig(noise_variance=0.0, quant_bits_per_component=8)
        cfg_inf = CsiConfig(noise_variance=0.0, quant_bits_per_component=None)
        scheme = DesignScheme(kind="mrt", power_budget=1.0)
        rel = []
        for i in range(100):
            ch, grid = self._channel(seed=derive_seed(20, i))
            z8 = csi_loop_zdc(ch, scheme, cfg8, PARAMS, seed=0, grid=grid)
            zi = csi_loop_zdc(ch, scheme, cfg_inf, PARAMS, seed=0, grid=grid)
            rel.append(abs(z8 - zi) / zi)
        assert np.mean(rel) < 1e-3

    def test_duty_factor_applied_with_acquisition_time(self):
        ch, grid = self._channel(seed=30)
        scheme = DesignScheme(kind="mrt", power_budget=1.0)
        on = CsiConfig(acquisition_time=0.08)
        off = CsiConfig()
        z_on = csi_loop_zdc(ch, scheme, on, PARAMS, seed=3, grid=grid)
        z_off = csi_loop_zdc(ch, scheme, off, PARAMS, seed=3, grid=grid)
        assert z_on == pytest.approx(0.92 * z_off, rel=1e-12)
        assert z_on == z_off * ((1.0 - 0.08) / 1.0)

    @pytest.mark.parametrize(
        "kind, n_tones, expected",
        [("mrt", 1, "0x1.2d6184bce6744p+14"), ("smf", 8, "0x1.940614a0dcc84p+16")],
    )
    def test_acquisition_time_output_is_pinned(self, kind, n_tones, expected):
        # Outputs recorded with numpy 2.4 from the frame loop at an 8%
        # acquisition overhead; the loop must keep these bits.
        ch, grid = self._channel(seed=30, n_tones=n_tones)
        scheme = DesignScheme(kind=kind, power_budget=1.0)
        cfg = CsiConfig(noise_variance=1e-3, acquisition_time=0.08)
        z = csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=3, grid=grid)
        assert z == float.fromhex(expected)

    def test_no_overhead_keeps_every_bit(self):
        ch, grid = self._channel(seed=31, n_tones=8)
        scheme = DesignScheme(kind="smf", power_budget=1.0)
        cfg = CsiConfig(noise_variance=1e-3)
        assert cfg.duty_factor == 1.0
        z = csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=4, grid=grid)
        estimate = quantize_csi(ls_estimate(ch.h, 4, cfg), 8)
        believed = ChannelRealization(estimate, ch.path_loss)
        w = apply_design(scheme, believed, grid)
        assert z == z_dc(received_tones(w, effective_channel(scheme, ch)), PARAMS)

    def test_noise_degrades_average_output(self):
        scheme = DesignScheme(kind="mrt", power_budget=1.0)
        clean = CsiConfig(noise_variance=0.0, quant_bits_per_component=None)
        noisy = CsiConfig(noise_variance=0.5, quant_bits_per_component=None)
        z_clean = []
        z_noisy = []
        for i in range(300):
            ch, grid = self._channel(seed=derive_seed(40, i))
            z_clean.append(csi_loop_zdc(ch, scheme, clean, PARAMS, seed=i, grid=grid))
            z_noisy.append(csi_loop_zdc(ch, scheme, noisy, PARAMS, seed=i, grid=grid))
        assert np.mean(z_noisy) < np.mean(z_clean)

    def test_same_seed_reproducible(self):
        ch, grid = self._channel(seed=50)
        cfg = CsiConfig(noise_variance=0.1)
        scheme = DesignScheme(kind="mrt", power_budget=1.0)
        a = csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=9, grid=grid)
        b = csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=9, grid=grid)
        assert a == b

    def test_degenerate_estimate_propagates(self):
        h = np.zeros((2, 2), dtype=np.complex128)
        ch = ChannelRealization(h=h, path_loss=1.0)
        cfg = CsiConfig(noise_variance=0.0)
        with pytest.raises(ValueError):
            csi_loop_zdc(
                ch,
                DesignScheme(kind="smf", power_budget=1.0),
                cfg,
                PARAMS,
                seed=0,
                grid=ToneGrid.for_band(2),
            )

    def test_estimate_beyond_the_design_names_its_settings(self):
        # The estimate's entries near 1e150 overflow smf's power normalisation.
        ch, grid = self._channel(seed=60, n_tones=8, m_antennas=2)
        cfg = CsiConfig(noise_variance=1e300)
        scheme = DesignScheme(kind="smf", power_budget=1.0)
        with pytest.raises(ValueError, match=r"sqrt\(noise_variance\) \(noise_variance = 1e\+300\)"):
            csi_loop_zdc(ch, scheme, cfg, PARAMS, seed=0, grid=grid)


class _EstimateSeen(Exception):
    """Carries the channel estimate `csi_loop_zdc` hands to its design."""


def estimate_seen_by_design(channel, cfg, seeds, grid):
    def spy(scheme, believed, grid=None):
        raise _EstimateSeen(believed.h)

    scheme = DesignScheme(kind="mrt", power_budget=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("wptsim.csi.apply_design", spy)
        with pytest.raises(_EstimateSeen) as seen:
            csi_loop_zdc(channel, scheme, cfg, PARAMS, seeds, grid=grid)
    return seen.value.args[0]


def channel_block(model, n_tones, m_antennas, master, count):
    grid = ToneGrid.for_band(n_tones)
    h = np.stack(
        [
            sample_channel(model, grid, m_antennas, derive_seed(master, r)).h
            for r in range(count)
        ]
    )
    return ChannelRealization(h=h, path_loss=1.0), grid


SELECTIVE = ChannelModel(path_loss_ref=1.0)
EPS = np.finfo(float).eps


class TestEstimateProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_tones=st.integers(1, 8),
        m_antennas=st.integers(1, 4),
        count=st.integers(1, 4),
        master=st.integers(0, 2**32),
    )
    def test_noiseless_unquantized_estimate_is_the_channel(
        self, n_tones, m_antennas, count, master
    ):
        channel, grid = channel_block(SELECTIVE, n_tones, m_antennas, master, count)
        cfg = CsiConfig(noise_variance=0.0, quant_bits_per_component=None)
        estimate = estimate_seen_by_design(channel, cfg, list(range(count)), grid)
        np.testing.assert_array_equal(estimate, channel.h)

    @settings(max_examples=30, deadline=None)
    @given(
        n_tones=st.integers(1, 8),
        m_antennas=st.integers(1, 4),
        count=st.integers(1, 4),
        master=st.integers(0, 2**32),
        bits=st.integers(2, 12),
    )
    def test_quantized_estimate_within_half_a_step(
        self, n_tones, m_antennas, count, master, bits
    ):
        channel, grid = channel_block(SELECTIVE, n_tones, m_antennas, master, count)
        cfg = CsiConfig(noise_variance=0.0, quant_bits_per_component=bits)
        estimate = estimate_seen_by_design(channel, cfg, list(range(count)), grid)
        h = channel.h
        peak = np.maximum(
            np.abs(h.real).max(axis=(-2, -1), keepdims=True),
            np.abs(h.imag).max(axis=(-2, -1), keepdims=True),
        )
        bound = peak / (2.0**bits - 1.0) + 8 * EPS * peak
        assert np.all(np.abs(estimate.real - h.real) <= bound)
        assert np.all(np.abs(estimate.imag - h.imag) <= bound)

    @pytest.mark.parametrize(
        "kind, model, n_tones, m_antennas",
        [("mrt", FLAT, 1, 4), ("smf", SELECTIVE, 4, 2), ("up", SELECTIVE, 4, 2)],
    )
    def test_mean_output_does_not_rise_with_noise(
        self, kind, model, n_tones, m_antennas
    ):
        count = 400
        channel, grid = channel_block(model, n_tones, m_antennas, 60, count)
        scheme = DesignScheme(kind=kind, power_budget=1.0)
        seeds = [derive_seed(61, r) for r in range(count)]
        previous = None
        for variance in (0.0, 0.01, 0.1, 0.3, 1.0, 3.0):
            cfg = CsiConfig(noise_variance=variance)
            z = csi_loop_zdc(channel, scheme, cfg, PARAMS, seeds, grid=grid)
            mean, sem = np.mean(z), np.std(z, ddof=1) / np.sqrt(count)
            if previous is not None:
                assert mean <= previous + sem, (variance, mean, previous, sem)
            previous = mean
