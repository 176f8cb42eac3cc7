"""Acceptance suite: the ten headline guarantees of this package.

Each test prints one PASS/FAIL line (visible under `pytest -s`) with the
measured quantity and its pinned tolerance, then asserts.  Tolerances are
frozen here on purpose; loosening them is a behavior change, not a test fix.
"""

import time
from dataclasses import replace

import numpy as np

from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    complex_normal,
    derive_seed,
    make_rng,
    sample_channel,
)
from wptsim.csi import CsiConfig, csi_loop_zdc
from wptsim.design import (
    DesignScheme,
    design_cw,
    design_mrt,
    design_smf,
    design_up,
)
from wptsim.fitlab import (
    MeasurementRecord,
    compose_cumulative,
    fit_power_law,
    invert_range,
    paper_baseline,
    paper_fit,
    range_gain,
)
from wptsim.harness import ExperimentConfig, run_cdf
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
from wptsim.signals import ToneGrid

PARAMS = RectifierParams()
FLAT_UNIT = ChannelModel(n_taps=1, path_loss_ref=1.0)


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def test_criterion_01_rectifier_oracle_equivalence():
    # Closed-form z_dc vs brute-force time sampling on 200 random designed
    # receptions, N <= 16 tones, M <= 8 antennas: relative deviation <= 1e-8.
    rng = make_rng(20260821)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))
        q0 = int(rng.integers(16, 65))
        grid = ToneGrid(f0=q0 * 1e6, delta_f=1e6, n_tones=n)
        h = complex_normal(rng, (n, m))
        channel = ChannelRealization(h=h, path_loss=float(rng.uniform(0.5, 4.0)))
        p = float(rng.uniform(0.001, 1.0))
        if i % 3 == 0:
            weights = design_up(channel, p, grid=grid)
        elif i % 3 == 1:
            weights = design_smf(channel, p, beta=3.0, grid=grid)
        else:
            weights = design_smf(channel, p, beta=1.5, grid=grid)
        tones = received_tones(weights, channel)
        z = z_dc(tones, PARAMS)
        z_ref = z_dc_time_oracle(tones, PARAMS)
        worst = max(worst, abs(z - z_ref) / abs(z_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        ok,
        f"criterion 1: closed form vs time oracle on 200 instances, "
        f"worst rel dev {worst:.3e} <= 1e-8, {elapsed:.1f} s < 10 s",
    )


def test_criterion_02_in_phase_fourth_moment_law():
    # N equal in-phase tones of amplitude A: moment4 = (2 N^3 + N) / 8 * A^4.
    worst = 0.0
    for n in (1, 2, 4, 8, 16):
        for amp in (1.0, 0.7):
            grid = ToneGrid(f0=32e6, delta_f=1e6, n_tones=n)
            tones = ReceivedTones(a=np.full(n, amp, dtype=complex), grid=grid)
            expected = (2 * n**3 + n) / 8.0 * amp**4
            worst = max(worst, abs(moment4(tones) - expected) / expected)
    ok = worst <= 1e-9
    _report(
        ok,
        f"criterion 2: in-phase moment4 law for N in {{1,2,4,8,16}}, "
        f"worst rel dev {worst:.3e} <= 1e-9",
    )


def test_criterion_03_cw_fading_law_monte_carlo():
    # Mean CW output over 1e5 Rayleigh draws vs the mean law at N = M = 1,
    # k2 R P / L + 3 k4 R^2 P^2 / L^2, within 5%.
    start = time.perf_counter()
    grid = ToneGrid.for_band(1)
    p = 0.001
    weights = design_cw(p, grid=grid)
    rng = make_rng(31)
    draws = 100_000
    h = complex_normal(rng, draws)
    total = 0.0
    for i in range(draws):
        channel = ChannelRealization(h=h[i : i + 1, np.newaxis], path_loss=1.0)
        total += z_dc(received_tones(weights, channel), PARAMS)
    ratio = (total / draws) / scaling_law_ca(PARAMS, 1.0, p, 1, 1)
    elapsed = time.perf_counter() - start
    ok = 0.95 <= ratio <= 1.05 and elapsed < 30.0
    _report(
        ok,
        f"criterion 3: CW Monte-Carlo mean / closed-form law = {ratio:.4f} "
        f"in [0.95, 1.05], {elapsed:.1f} s < 30 s",
    )


def test_criterion_04_adaptive_law_trends():
    # (a) The MRT second-order term scales linearly in the antenna count:
    # its mean over 2e4 draws divided by k2 R P M stays within 5% of 1.
    grid = ToneGrid.for_band(1)
    p = 0.001
    rng = make_rng(41)
    worst = 0.0
    for m in (1, 2, 4, 8):
        acc = 0.0
        for _ in range(20_000):
            h = complex_normal(rng, (1, m))
            channel = ChannelRealization(h=h, path_loss=1.0)
            weights = design_mrt(channel, p, grid=grid)
            acc += PARAMS.k2 * PARAMS.r_ant * moment2(
                received_tones(weights, channel)
            )
        ratio = (acc / 20_000) / (PARAMS.k2 * PARAMS.r_ant * p * m)
        worst = max(worst, abs(ratio - 1.0))
    ok_a = worst <= 0.05

    # (b) Fixed total power split evenly over in-phase tones: the
    # fourth-order term at N = 8 vs N = 4 is exactly 43/22 (~1.9545).
    def fourth_term(n):
        amp = np.sqrt(2 * p / n)
        grid_n = ToneGrid(f0=32e6, delta_f=1e6, n_tones=n)
        tones = ReceivedTones(a=np.full(n, amp, dtype=complex), grid=grid_n)
        return PARAMS.k4 * PARAMS.r_ant**2 * moment4(tones)

    ratio_84 = fourth_term(8) / fourth_term(4)
    dev = abs(ratio_84 - 43.0 / 22.0) / (43.0 / 22.0)
    ok_b = dev <= 1e-9
    _report(
        ok_a and ok_b,
        f"criterion 4: MRT second-order term linear in M (worst dev "
        f"{worst:.4f} <= 0.05); N=8 vs N=4 fourth-order ratio "
        f"{ratio_84:.10f} = 43/22 within 1e-9 (dev {dev:.2e})",
    )


def test_criterion_05_doubling_range_gains():
    start = time.perf_counter()
    p_target = 2.0
    tone_gains = [
        range_gain(paper_fit("smf", 2, 1), paper_fit("smf", 1, 1), p_target),
        range_gain(paper_fit("smf", 4, 1), paper_fit("smf", 2, 1), p_target),
        range_gain(paper_fit("smf", 8, 1), paper_fit("smf", 4, 1), p_target),
    ]
    antenna_gains = [
        range_gain(paper_fit("mrt", 1, 2), paper_baseline(), p_target),
        range_gain(paper_fit("mrt", 1, 4), paper_fit("mrt", 1, 2), p_target),
        range_gain(paper_fit("mrt", 1, 8), paper_fit("mrt", 1, 4), p_target),
    ]
    frozen_tone = [1.156824165211502, 1.1398942263077503, 1.0751992387683786]
    frozen_ant = [1.7058801395140055, 1.697088062168756, 1.7448027335459173]
    elapsed = time.perf_counter() - start
    ok = (
        all(1.05 <= g <= 1.25 for g in tone_gains)
        and all(1.50 <= g <= 1.80 for g in antenna_gains)
        and np.allclose(tone_gains, frozen_tone, rtol=1e-12)
        and np.allclose(antenna_gains, frozen_ant, rtol=1e-12)
        and elapsed < 1.0
    )
    _report(
        ok,
        "criterion 5: tone-doubling range gains "
        f"{[format(g, '.4f') for g in tone_gains]} in [1.05, 1.25]; "
        f"antenna-doubling {[format(g, '.4f') for g in antenna_gains]} "
        f"in [1.50, 1.80], {elapsed * 1e3:.0f} ms < 1 s",
    )


def test_criterion_06_four_times_range():
    base = paper_baseline()
    d_eight = invert_range(paper_fit("mrt", 1, 8), base.a)
    d_base = invert_range(base, base.a)
    ratio = d_eight / d_base
    ok = (
        abs(d_base - 1.0) <= 1e-12
        and abs(d_eight - 4.633623544910529) <= 1e-9
        and 3.7 <= ratio <= 5.2
    )
    _report(
        ok,
        f"criterion 6: 8-antenna range {d_eight:.3f} m vs baseline "
        f"{d_base:.3f} m, ratio {ratio:.3f} in [3.7, 5.2]",
    )


def test_criterion_07_cumulative_gain_overlap():
    composed = compose_cumulative(
        paper_baseline(), paper_fit("smf", 8, 1), paper_fit("mrt", 1, 4)
    )
    ratio = composed.a / paper_fit("mrt", 1, 8).a
    ok = abs(composed.a - 65.69018685806212) <= 1e-9 and 0.90 <= ratio <= 1.10
    _report(
        ok,
        f"criterion 7: composed amplitude {composed.a:.2f} vs measured "
        f"8-antenna 70.97, ratio {ratio:.4f} in [0.90, 1.10]",
    )


def test_criterion_08_fit_recovery():
    start = time.perf_counter()
    # Noiseless: exact recovery.
    clean = [
        MeasurementRecord("smf", 1, 1, d, 3.7 * d**-1.52)
        for d in (0.6, 1.0, 2.0, 4.4)
    ]
    fit = fit_power_law(clean)
    exact = abs(fit.a - 3.7) <= 3.7 * 1e-12 and abs(fit.b + 1.52) <= 1.52 * 1e-12

    # Noisy: log-normal sigma = 0.1, 50 points, 100 seeded trials; both
    # coefficients within 5% of truth in at least 90 trials.
    distances = np.geomspace(0.6, 5.4, 50)
    hits = 0
    for trial in range(100):
        rng = make_rng(derive_seed(81, trial))
        records = [
            MeasurementRecord(
                "smf", 1, 1, float(d),
                float(5.0 * d**-1.5 * np.exp(0.1 * rng.standard_normal())),
            )
            for d in distances
        ]
        noisy = fit_power_law(records)
        if abs(noisy.a / 5.0 - 1.0) <= 0.05 and abs(noisy.b / -1.5 - 1.0) <= 0.05:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = exact and hits >= 90 and elapsed < 5.0
    _report(
        ok,
        f"criterion 8: noiseless fit exact to 1e-12; noisy recovery "
        f"{hits}/100 trials within 5% (need >= 90), {elapsed:.1f} s < 5 s",
    )


def test_criterion_09_cdf_ordering_and_trade():
    # Desk-scale frequency-selective operating point: default tapped-delay
    # channel, d = 2 m, 10 mW budget, 1e4 realizations per cell.
    start = time.perf_counter()
    shared = dict(distances=(2.0,), realizations=10_000, seed=0,
                  power_budget=0.01)
    smf_base = ExperimentConfig(
        schemes=("smf",), tone_counts=(1,), antenna_counts=(1,), **shared
    )
    smf_multi = replace(smf_base, tone_counts=(8,), antenna_counts=(1, 2, 4))
    mrt = replace(smf_base, schemes=("mrt",), antenna_counts=(1, 2, 4, 8))

    medians = {}
    for cfg in (smf_base, smf_multi, mrt):
        for curve in run_cdf(cfg):
            medians[(curve.scheme, curve.n_tones, curve.m_antennas)] = curve.median

    smf_chain = [
        medians[("smf", 1, 1)],
        medians[("smf", 8, 1)],
        medians[("smf", 8, 2)],
        medians[("smf", 8, 4)],
    ]
    mrt_chain = [medians[("mrt", 1, m)] for m in (1, 2, 4, 8)]
    trades = [
        medians[("smf", 8, m)] / medians[("mrt", 1, 2 * m)] for m in (1, 2, 4)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        all(a < b for a, b in zip(smf_chain, smf_chain[1:]))
        and all(a < b for a, b in zip(mrt_chain, mrt_chain[1:]))
        and all(0.8 <= t <= 1.2 for t in trades)
        and elapsed < 60.0
    )
    _report(
        ok,
        "criterion 9: median chains strictly increase (more tones, more "
        f"antennas); 8-tone vs doubled-antenna medians "
        f"{[format(t, '.3f') for t in trades]} in [0.8, 1.2], "
        f"{elapsed:.1f} s < 60 s",
    )


def test_criterion_10_imperfect_csi_sanity():
    grid = ToneGrid.for_band(1)
    scheme = DesignScheme(kind="mrt", power_budget=1.0)

    # 16-bit feedback words (8 bits per component), no noise: mean output
    # within 0.5% of perfect CSI over 100 seeds, MRT with 4 antennas.
    quantized = CsiConfig(noise_variance=0.0, quant_bits_per_component=8)
    perfect = CsiConfig(noise_variance=0.0, quant_bits_per_component=None)
    z_q = 0.0
    z_p = 0.0
    for i in range(100):
        channel = sample_channel(FLAT_UNIT, grid, 4, seed=derive_seed(101, i))
        z_q += csi_loop_zdc(channel, scheme, quantized, PARAMS, seed=0, grid=grid)
        z_p += csi_loop_zdc(channel, scheme, perfect, PARAMS, seed=0, grid=grid)
    degradation = 1.0 - z_q / z_p

    # Mean output is monotone non-increasing in the estimation noise
    # variance (common noise directions, scaled).
    means = []
    for variance in (0.0, 1e-3, 1e-2, 1e-1):
        cfg = CsiConfig(noise_variance=variance, quant_bits_per_component=None)
        total = 0.0
        for i in range(1000):
            channel = sample_channel(FLAT_UNIT, grid, 4, seed=derive_seed(102, i))
            total += csi_loop_zdc(
                channel, scheme, cfg, PARAMS, seed=derive_seed(103, i), grid=grid
            )
        means.append(total / 1000)
    monotone = all(a >= b for a, b in zip(means, means[1:])) and means[-1] < means[0]

    ok = degradation < 0.005 and monotone
    _report(
        ok,
        f"criterion 10: 16-bit feedback degradation {degradation * 100:.3f}% "
        f"< 0.5% over 100 seeds; mean output non-increasing over noise "
        f"variances (0, 1e-3, 1e-2, 1e-1): "
        f"{[format(m, '.4g') for m in means]}",
    )
