"""Rectifier moments against a brute-force oracle, plus the exact mean law."""

import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    complex_normal,
    make_rng,
    sample_channel,
)
from wptsim.design import DesignScheme, apply_design
from wptsim.rectifier import (
    ReceivedTones,
    RectifierParams,
    moment2,
    moment4,
    received_tones,
    scaling_law_ca,
    z_dc,
    z_dc_time_oracle,
)
from wptsim.signals import PrecoderWeights, ToneGrid, period_samples

PARAMS = RectifierParams()


def make_tones(a, f0=32e6, delta_f=1e6):
    a = np.asarray(a, dtype=np.complex128)
    grid = ToneGrid(f0=f0, delta_f=delta_f, n_tones=a.shape[0])
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


def moment6(a):
    """(5/16) ||a * a * a||^2, the period average of y^6 on a comb with
    N - 1 < q0: the 3-against-3 tone sums n0 + n1 + n2 = n3 + n4 + n5 are
    its only DC terms there, each with weight 5/16."""
    c = np.convolve(np.convolve(a, a), a)
    return 0.3125 * np.vdot(c, c).real


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
        ch = ChannelRealization(h=np.array([[1.0 + 0j, -1j]]), path_loss=4.0)
        tones = received_tones(w, ch)
        # (1*1 + (-j)(j)) / sqrt(4) = 2 / 2
        np.testing.assert_allclose(tones.a, [1.0 + 0j], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        grid = ToneGrid.for_band(1)
        w = PrecoderWeights(w=np.ones((1, 2), dtype=complex), grid=grid)
        ch = ChannelRealization(h=np.ones((1, 3), dtype=complex), path_loss=1.0)
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
    @given(
        a=st.lists(tone_amplitudes, min_size=1, max_size=8),
        q0=st.integers(0, 64),
        frac=st.floats(0.0, 0.49),
    )
    @example(a=[0.5j], q0=0, frac=0.1)
    @example(a=[0.5j, 0.2, 0.1 - 0.3j], q0=1, frac=0.4)
    @example(a=[0.5j, 0.2, 0.1 - 0.3j, 0.4, 0.3j], q0=2, frac=0.4)
    @example(a=[0.5j, 0.2, 0.1 - 0.3j, 0.4], q0=2, frac=0.0)
    def test_agrees_on_any_tones_up_to_eight(self, a, q0, frac):
        # f0 snaps to q0 harmonics, where the comb rule N - 1 < 2 (q0 + frac)
        # of `ReceivedTones` still admits N - 1 = 2 q0: the oracle raises
        # exactly there.  The first three examples have the f0 / delta_f and
        # N of grids (1, 10, 1), (14, 10, 3) and (24, 10, 5), on which the
        # oracle used to return a value that disagreed with z_dc.
        assume(q0 + frac > 0 and len(a) - 1 < 2 * (q0 + frac))
        tones = make_tones(a, f0=(q0 + frac) * 1e6, delta_f=1e6)
        if len(a) - 1 >= 2 * q0:
            with pytest.raises(ValueError, match=f"snaps to q0 = {q0} harmonics"):
                z_dc_time_oracle(tones, PARAMS)
            return
        z_ref = z_dc_time_oracle(tones, PARAMS)
        assert abs(z_dc(tones, PARAMS) - z_ref) <= 1e-8 * abs(z_ref)

    def test_agrees_at_512_tones(self):
        rng = make_rng(301)
        a = complex_normal(rng, 512) * 0.3 / np.sqrt(512)
        tones = make_tones(a, f0=1024e6, delta_f=1e6)
        z = z_dc(tones, PARAMS)
        assert z == pytest.approx(z_dc_time_oracle(tones, PARAMS), rel=1e-8)

    def test_min_samples_formula(self):
        tones = make_tones(np.ones(4), f0=32e6, delta_f=1e6)
        assert period_samples(tones.grid, tones.a).shape[0] == 8 * (32 + 4)

    def test_takes_only_tones_and_params(self):
        assert list(inspect.signature(z_dc_time_oracle).parameters) == [
            "tones", "params"
        ]

    @pytest.mark.parametrize("f0, delta_f", [(2.4e9, 1.0), (1e300, 1e-10)])
    def test_absurd_grid_rejected(self, f0, delta_f):
        # f0 / delta_f = 1e310 overflows to inf: a ValueError, not OverflowError.
        tones = make_tones([0.1 + 0j], f0=f0, delta_f=delta_f)
        with pytest.raises(ValueError, match="too fine"):
            z_dc_time_oracle(tones, PARAMS)


class TestSixthMoment:
    """The sixth-order term that the k2/k4 truncation drops, k6 R^3 m6, with
    k6 = 0.4 k4^2 / k2 from the diode series that gives k2 and k4."""

    @pytest.mark.parametrize("q0, n", [(8, 8), (1, 1), (3, 2), (17, 16)])
    def test_closed_form_is_the_period_average(self, q0, n):
        # The 8 (q0 + N) samples average y^6 exactly: its highest frequency,
        # 6 (q0 + N - 1), stays below the sample count.
        rng = make_rng(500 + n)
        grid = ToneGrid(q0 * 1e3, 1e3, n)
        worst = 0.0
        for _ in range(50):
            a = complex_normal(rng, n)
            sampled = np.mean(period_samples(grid, a) ** 6)
            worst = max(worst, abs(moment6(a) - sampled) / sampled)
        assert worst <= 1e-14

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_four_against_two_sums_reach_dc_at_q0_of_n_minus_one(self, n):
        # At N - 1 = q0, which check_comb's N - 1 < 2 q0 admits, the sums
        # 4 q0 - 2 (q0 + N - 1) of four tone 0s against two tone N - 1s reach
        # DC and add (15/32) Re(a_0^4 conj(a_{N-1})^2) to the average.
        rng = make_rng(600 + n)
        grid = ToneGrid((n - 1) * 1e3, 1e3, n)
        worst = 0.0
        for _ in range(50):
            a = complex_normal(rng, n)
            sampled = np.mean(period_samples(grid, a) ** 6)
            beat = 15 / 32 * (a[0] ** 4 * np.conj(a[-1]) ** 2).real
            assert moment6(a) + beat == pytest.approx(sampled, rel=1e-13, abs=0)
            worst = max(worst, abs(moment6(a) - sampled) / sampled)
        assert worst > 1e-6  # far above the rounding where N - 1 < q0

    def test_k6_follows_the_diode_series(self):
        # k_i = i_s / (i! (n v_t)^i), with i_s = 5 uA, n = 1.05, v_t = 25.86 mV.
        nvt = 1.05 * 25.86e-3
        k2, k4, k6 = (5e-6 / (math.factorial(i) * nvt**i) for i in (2, 4, 6))
        assert (k2, k4) == pytest.approx((PARAMS.k2, PARAMS.k4), rel=3e-3)
        assert k6 == pytest.approx(0.4 * k4**2 / k2, rel=1e-13)

    @pytest.mark.parametrize("kind, n, m", [("smf", 8, 1), ("mrt", 1, 8), ("up", 4, 2)])
    def test_terms_grow_as_powers_of_the_budget(self, kind, n, m):
        # At a fixed channel the tones scale as sqrt(p), so term4 / term2
        # grows as p and term6 / term2 as p^2.
        grid = ToneGrid.for_band(n)
        channel = sample_channel(ChannelModel(), grid, m, seed=7, distance=2.0)
        k6 = 0.4 * PARAMS.k4**2 / PARAMS.k2
        r = PARAMS.r_ant
        ratios = []
        for p in (1e-3, 1.0):
            weights = apply_design(DesignScheme(kind, p), channel, grid)
            tones = received_tones(weights, channel)
            term2 = PARAMS.k2 * r * moment2(tones)
            ratios.append((
                PARAMS.k4 * r**2 * moment4(tones) / term2,
                k6 * r**3 * moment6(tones.a) / term2,
            ))
        (low4, low6), (high4, high6) = ratios
        assert high4 == pytest.approx(1e3 * low4, rel=1e-12)
        assert high6 == pytest.approx(1e6 * low6, rel=1e-12)


class TestScalingLaws:
    def test_worked_values(self):
        assert scaling_law_ca(PARAMS, 1.0, 0.001, 1, 1) == pytest.approx(
            0.00304175, rel=1e-9
        )
        assert scaling_law_ca(PARAMS, 1.0, 0.001, 8, 4) == pytest.approx(
            0.1550365625, rel=1e-9
        )

    @pytest.mark.parametrize("path_loss, p", [(1.0, 1e-3), (263.0, 1.0), (2.0, 0.01)])
    def test_single_tone_single_antenna_is_the_cw_fading_law(self, path_loss, p):
        # k2 R p / L + 3 k4 R^2 p^2 / L^2; the factor 3 is (3/2) times the
        # fourth moment (= 2) of a unit-variance Rayleigh channel amplitude.
        cw = (
            PARAMS.k2 * PARAMS.r_ant * p / path_loss
            + 3.0 * PARAMS.k4 * PARAMS.r_ant**2 * p**2 / path_loss**2
        )
        assert scaling_law_ca(PARAMS, path_loss, p, 1, 1) == pytest.approx(
            cw, rel=1e-15
        )

    def test_monotone_in_tones_and_antennas(self):
        vals_n = [scaling_law_ca(PARAMS, 1.0, 0.01, n, 2) for n in (1, 2, 4, 8)]
        vals_m = [scaling_law_ca(PARAMS, 1.0, 0.01, 2, m) for m in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(vals_n, vals_n[1:]))
        assert all(a < b for a, b in zip(vals_m, vals_m[1:]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: scaling_law_ca(PARAMS, 0.0, 1.0, 1, 1),
            lambda: scaling_law_ca(PARAMS, 1.0, 0.0, 1, 1),
            lambda: scaling_law_ca(PARAMS, 1.0, 1.0, 0, 1),
            lambda: scaling_law_ca(PARAMS, 1.0, 1.0, 1, 0),
        ],
    )
    def test_rejects_bad_arguments(self, call):
        with pytest.raises(ValueError):
            call()


# Log-uniform on [1e-300, 1e300]: settings that RectifierParams accepts.
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestOverflowIsAValueError:
    """A finite input whose output overflows raises ValueError, never a bare
    OverflowError."""

    @settings(max_examples=200, deadline=None)
    @given(k2=log_uniform, k4=log_uniform, r_ant=log_uniform,
           a=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
    @example(k2=PARAMS.k2, k4=PARAMS.k4, r_ant=1e300, a=1j)
    def test_z_dc(self, k2, k4, r_ant, a):
        params = RectifierParams(k2=k2, k4=k4, r_ant=r_ant)
        try:
            z = z_dc(make_tones([a, 0.5 * a]), params)
        except ValueError as error:
            assert str(error).startswith("z_dc overflows: ")
        else:
            assert np.isfinite(z)

    @pytest.mark.parametrize("k4", [PARAMS.k4, 1e-300])
    def test_time_oracle_raises_as_z_dc_does(self, k4):
        tones = ReceivedTones(a=[1j], grid=ToneGrid.for_band(1))
        params = RectifierParams(k4=k4, r_ant=1e300)
        with pytest.raises(ValueError, match="^z_dc overflows: ") as direct:
            z_dc(tones, params)
        with pytest.raises(ValueError) as oracle:
            z_dc_time_oracle(tones, params)
        assert str(oracle.value) == str(direct.value)

    @settings(max_examples=200, deadline=None)
    @given(k2=log_uniform, k4=log_uniform, r_ant=log_uniform,
           path_loss=log_uniform, p=log_uniform)
    @example(k2=PARAMS.k2, k4=PARAMS.k4, r_ant=1e300, path_loss=1.0, p=1.0)
    @example(k2=PARAMS.k2, k4=PARAMS.k4, r_ant=PARAMS.r_ant, path_loss=1.0, p=1e200)
    def test_scaling_law_ca(self, k2, k4, r_ant, path_loss, p):
        params = RectifierParams(k2=k2, k4=k4, r_ant=r_ant)
        try:
            mean = scaling_law_ca(params, path_loss, p, 8, 4)
        except ValueError as error:
            assert str(error).startswith("scaling_law_ca overflows: ")
        else:
            assert np.isfinite(mean)

    def test_scaling_law_ca_on_a_count_beyond_float_range(self):
        with pytest.raises(ValueError, match="^scaling_law_ca overflows: "):
            scaling_law_ca(PARAMS, 1.0, 1.0, 10**110, 1)


class TestMoment4Speed:
    def test_moment4_is_fast_after_warmup(self):
        rng = make_rng(400)
        tones = make_tones(complex_normal(rng, 16))
        moment4(tones)  # warm up numpy's convolution path before timing
        t0 = time.perf_counter()
        for _ in range(100):
            moment4(tones)
        assert time.perf_counter() - t0 < 1.0
