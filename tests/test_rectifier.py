"""Rectifier moments against a brute-force oracle, plus the scaling laws."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim.channel import ChannelRealization, complex_normal, make_rng
from wptsim.rectifier import (
    ReceivedTones,
    RectifierParams,
    min_oracle_samples,
    moment2,
    moment4,
    received_tones,
    scaling_law_ca,
    scaling_law_cw,
    z_dc,
    z_dc_time_oracle,
)
from wptsim.signals import PrecoderWeights, ToneGrid

PARAMS = RectifierParams()


def make_tones(a, f0=32e6, delta_f=1e6):
    a = np.asarray(a, dtype=np.complex128)
    grid = ToneGrid(f0=f0, delta_f=delta_f, n_tones=a.shape[0], band_limit=np.inf)
    return ReceivedTones(a=a, grid=grid)


def moment4_exhaustive(a):
    """O(N^4) reference: loop every index quadruple, keep the resonant ones."""
    n = len(a)
    total = 0.0j
    for n0 in range(n):
        for n1 in range(n):
            for n2 in range(n):
                for n3 in range(n):
                    if n0 + n1 == n2 + n3:
                        total += a[n0] * a[n1] * np.conj(a[n2]) * np.conj(a[n3])
    return 0.375 * total.real


# Zero or a magnitude in [1e-3, 1e3]: keeps fourth powers clear of underflow.
tone_amplitudes = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
)
tone_vectors = st.lists(tone_amplitudes, min_size=1, max_size=10)
nonzero_factors = st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2)


class TestParams:
    @pytest.mark.parametrize("kwargs", [dict(k2=0.0), dict(k4=-1.0), dict(r_ant=0.0)])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            RectifierParams(**kwargs)

    @pytest.mark.parametrize("name", ["k2", "k4", "r_ant"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            RectifierParams(**{name: value})


class TestReceivedTones:
    def test_shape_mismatch_rejected(self):
        grid = ToneGrid.for_band(2)
        with pytest.raises(ValueError, match="tones"):
            ReceivedTones(a=np.ones(3, dtype=complex), grid=grid)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_tones([np.inf + 0j])

    def test_band_wider_than_twice_f0_rejected(self):
        # 10 tones 1 MHz apart span 9 MHz >= 2 * 4 MHz: three-tone sums
        # such as f0 + f0 + f0 - (f0 + 8 df) beat to DC.
        with pytest.raises(ValueError, match="f0"):
            make_tones(np.ones(10), f0=4e6, delta_f=1e6)
        make_tones(np.ones(9), f0=4.5e6, delta_f=1e6)  # 8 MHz < 9 MHz: accepted

    def test_combining_with_path_loss(self):
        grid = ToneGrid.for_band(1)
        w = PrecoderWeights(w=np.array([[1.0 + 0j, 1j]]), grid=grid)
        ch = ChannelRealization(
            h=np.array([[1.0 + 0j, -1j]]), path_loss=4.0, distance=1.0
        )
        tones = received_tones(w, ch)
        # (1*1 + (-j)(j)) / sqrt(4) = 2 / 2
        np.testing.assert_allclose(tones.a, [1.0 + 0j], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        grid = ToneGrid.for_band(1)
        w = PrecoderWeights(w=np.ones((1, 2), dtype=complex), grid=grid)
        ch = ChannelRealization(h=np.ones((1, 3), dtype=complex),
                               path_loss=1.0, distance=1.0)
        with pytest.raises(ValueError, match="match"):
            received_tones(w, ch)


class TestMoments:
    def test_moment2_single_tone(self):
        assert moment2(make_tones([0.1 + 0j])) == pytest.approx(0.005, rel=1e-12)

    def test_moment4_single_tone(self):
        assert moment4(make_tones([2.0 + 0j])) == pytest.approx(6.0, rel=1e-12)

    def test_moment4_two_unit_tones(self):
        assert moment4(make_tones([1.0 + 0j, 1.0 + 0j])) == pytest.approx(
            2.25, rel=1e-12
        )

    def test_moment4_four_unit_tones(self):
        assert moment4(make_tones(np.ones(4))) == pytest.approx(16.5, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 128, 512])
    def test_in_phase_closed_form(self, n):
        # Equal unit amplitudes with aligned phases: (2 n^3 + n) / 8.
        got = moment4(make_tones(np.ones(n), f0=4096e6))
        assert got == pytest.approx((2 * n**3 + n) / 8.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_matches_exhaustive_enumeration(self, n):
        rng = make_rng(100 + n)
        for _ in range(5):
            a = complex_normal(rng, n)
            tones = make_tones(a)
            assert moment4(tones) == pytest.approx(
                moment4_exhaustive(a), rel=1e-12, abs=1e-15
            )

    @settings(deadline=None, max_examples=50)
    @given(a=tone_vectors)
    def test_property_matches_exhaustive_enumeration(self, a):
        a = np.asarray(a, dtype=np.complex128)
        scale = float(np.sum(np.abs(a) ** 2)) ** 2
        assert moment4(make_tones(a)) == pytest.approx(
            moment4_exhaustive(a), rel=1e-12, abs=1e-12 * scale
        )

    @given(a=tone_vectors, theta=st.floats(-10.0, 10.0))
    def test_property_common_phase_invariance(self, a, theta):
        a = np.asarray(a, dtype=np.complex128)
        base = moment4(make_tones(a))
        rotated = moment4(make_tones(np.exp(1j * theta) * a))
        assert rotated == pytest.approx(base, rel=1e-11)

    @given(a=tone_vectors, c=nonzero_factors)
    def test_property_quartic_scaling(self, a, c):
        a = np.asarray(a, dtype=np.complex128)
        base = moment4(make_tones(a))
        scaled = moment4(make_tones(c * a))
        assert scaled == pytest.approx(abs(c) ** 4 * base, rel=1e-11)

    def test_scale_homogeneity(self):
        rng = make_rng(201)
        a = complex_normal(rng, 6)
        c = 1.7 * np.exp(0.3j)
        base = make_tones(a)
        scaled = make_tones(c * a)
        assert moment2(scaled) == pytest.approx(
            abs(c) ** 2 * moment2(base), rel=1e-12
        )
        assert moment4(scaled) == pytest.approx(
            abs(c) ** 4 * moment4(base), rel=1e-12
        )

    def test_common_phase_invariance(self):
        rng = make_rng(202)
        a = complex_normal(rng, 7)
        rotated = make_tones(np.exp(1.234j) * a)
        assert moment4(rotated) == pytest.approx(moment4(make_tones(a)), rel=1e-12)


class TestZdc:
    def test_worked_single_tone(self):
        # |a| = 0.1: m2 = 5e-3, m4 = 3.75e-5,
        # z = 0.0034*50*5e-3 + 0.3829*2500*3.75e-5.
        assert z_dc(make_tones([0.1 + 0j]), PARAMS) == pytest.approx(
            0.036746875, rel=1e-9
        )

    def test_linear_in_coefficients(self):
        tones = make_tones([0.3 + 0.1j, 0.2 - 0.4j])
        doubled = RectifierParams(k2=2 * PARAMS.k2, k4=2 * PARAMS.k4)
        assert z_dc(tones, doubled) == pytest.approx(2 * z_dc(tones, PARAMS), rel=1e-12)


class TestTimeOracle:
    def test_agrees_on_random_tones(self):
        rng = make_rng(300)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 9))
            q0 = int(rng.integers(16, 65))
            a = complex_normal(rng, n) * 0.3
            tones = make_tones(a, f0=q0 * 1e6, delta_f=1e6)
            z = z_dc(tones, PARAMS)
            z_ref = z_dc_time_oracle(tones, PARAMS)
            worst = max(worst, abs(z - z_ref) / abs(z_ref))
        assert worst <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(tone_amplitudes, min_size=1, max_size=8), q0=st.integers(16, 64))
    def test_agrees_on_any_tones_up_to_eight(self, a, q0):
        tones = make_tones(a, f0=q0 * 1e6, delta_f=1e6)
        z_ref = z_dc_time_oracle(tones, PARAMS)
        assert abs(z_dc(tones, PARAMS) - z_ref) <= 1e-8 * abs(z_ref)

    def test_agrees_at_512_tones(self):
        rng = make_rng(301)
        a = complex_normal(rng, 512) * 0.3 / np.sqrt(512)
        tones = make_tones(a, f0=1024e6, delta_f=1e6)
        z = z_dc(tones, PARAMS)
        assert z == pytest.approx(z_dc_time_oracle(tones, PARAMS), rel=1e-8)

    def test_more_samples_change_nothing(self):
        tones = make_tones([0.2 + 0.1j, -0.1 + 0.3j], f0=20e6, delta_f=1e6)
        base = z_dc_time_oracle(tones, PARAMS)
        finer = z_dc_time_oracle(tones, PARAMS, samples=5 * min_oracle_samples(tones))
        assert finer == pytest.approx(base, rel=1e-10)

    def test_min_samples_formula(self):
        tones = make_tones(np.ones(4), f0=32e6, delta_f=1e6)
        assert min_oracle_samples(tones) == 8 * (32 + 4)

    def test_undersampling_rejected(self):
        tones = make_tones(np.ones(4), f0=32e6, delta_f=1e6)
        with pytest.raises(ValueError, match="insufficient"):
            z_dc_time_oracle(tones, PARAMS, samples=min_oracle_samples(tones) - 1)

    def test_absurd_grid_rejected(self):
        tones = make_tones([0.1 + 0j], f0=2.4e9, delta_f=1.0)
        with pytest.raises(ValueError, match="too fine"):
            z_dc_time_oracle(tones, PARAMS)

    def test_oversized_request_rejected(self):
        tones = make_tones([0.1 + 0j], f0=32e6, delta_f=1e6)
        with pytest.raises(ValueError, match="budget"):
            z_dc_time_oracle(tones, PARAMS, samples=1 << 27)


class TestScalingLaws:
    def test_cw_worked_value(self):
        assert scaling_law_cw(PARAMS, 1.0, 0.001) == pytest.approx(
            0.00304175, rel=1e-9
        )

    def test_ca_worked_value(self):
        assert scaling_law_ca(PARAMS, 1.0, 0.001, 8, 4) == pytest.approx(
            0.123208, rel=1e-6
        )

    def test_ca_reduces_toward_cw_structure(self):
        # N = M = 1 keeps both terms but drops the Rayleigh fourth-moment
        # factor 3 that only applies to the fading-averaged CW law.
        ca = scaling_law_ca(PARAMS, 2.0, 0.01, 1, 1)
        expected = PARAMS.k2 * 50 * 0.01 / 2 + PARAMS.k4 * 2500 * 1e-4 / 4
        assert ca == pytest.approx(expected, rel=1e-12)

    def test_ca_monotone_in_tones_and_antennas(self):
        vals_n = [scaling_law_ca(PARAMS, 1.0, 0.01, n, 2) for n in (1, 2, 4, 8)]
        vals_m = [scaling_law_ca(PARAMS, 1.0, 0.01, 2, m) for m in (1, 2, 4, 8)]
        assert vals_n == sorted(vals_n) and len(set(vals_n)) == 4
        assert vals_m == sorted(vals_m) and len(set(vals_m)) == 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda: scaling_law_cw(PARAMS, 0.0, 1.0),
            lambda: scaling_law_cw(PARAMS, 1.0, 0.0),
            lambda: scaling_law_ca(PARAMS, 1.0, 1.0, 0, 1),
            lambda: scaling_law_ca(PARAMS, 1.0, 1.0, 1, 0),
        ],
    )
    def test_rejects_bad_arguments(self, call):
        with pytest.raises(ValueError):
            call()


class TestMoment4Speed:
    def test_moment4_is_fast_after_warmup(self):
        rng = make_rng(400)
        tones = make_tones(complex_normal(rng, 16))
        moment4(tones)  # warm up numpy's convolution path before timing
        t0 = time.perf_counter()
        for _ in range(100):
            moment4(tones)
        assert time.perf_counter() - t0 < 1.0
