"""The array-first core: batched layers agree with the batch of one.

`harness._zdc_ensemble` designs, receives and rectifies whole blocks of
realizations at once.  These tests hold it to the per-realization chain bit
for bit, check batched invariants with hypothesis, and keep the benchmark's
patch targets and oracle chain working.
"""

import importlib
import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wptsim import harness, rectifier
from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    channel_to_json,
    complex_normal,
    derive_seed,
    make_rng,
    path_loss,
    sample_channel,
)
from wptsim.csi import CsiConfig, csi_loop_zdc
from wptsim.design import (
    SCHEME_KINDS,
    DesignScheme,
    apply_design,
    design_mrt,
    design_smf,
    effective_channel,
)
from wptsim.harness import ExperimentConfig
from wptsim.rectifier import RectifierParams, received_tones, z_dc
from wptsim.signals import ToneGrid, tx_power

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
PARAMS = RectifierParams()
CSI = CsiConfig(noise_variance=1e-3, quant_bits_per_component=8,
                acquisition_time=0.08)


def scalar_ensemble(cfg, scheme_name, n_tones, m_antennas, distance, d_index):
    """One realization at a time: derive, sample, design, receive, rectify."""
    scheme = cfg.scheme_obj(scheme_name)
    grid = cfg.grid_for(n_tones)
    values = np.empty(cfg.realizations)
    for r in range(cfg.realizations):
        seed = derive_seed(cfg.seed, 0, n_tones, m_antennas, d_index, r)
        channel = sample_channel(cfg.channel_model, grid, m_antennas, seed, distance)
        if cfg.csi is not None:
            noise_seed = derive_seed(cfg.seed, 1, n_tones, m_antennas, d_index, r)
            z = csi_loop_zdc(channel, scheme, cfg.csi, cfg.rectifier, noise_seed, grid)
        else:
            weights = apply_design(scheme, channel, grid)
            z = z_dc(received_tones(weights, effective_channel(scheme, channel)),
                     cfg.rectifier)
        assert type(z) is float
        values[r] = z
    return values


def reference_zdc(cfg, scheme, grid, m, distance, d_index, r):
    """One realization with the single-matrix arithmetic of the scalar-only
    code: 1-D norms, per-matrix quantizer step, Python-float scale factors."""
    n, p, model, csi = grid.n_tones, scheme.power_budget, cfg.channel_model, cfg.csi
    rng = make_rng(derive_seed(cfg.seed, 0, n, m, d_index, r))
    if model.n_taps == 1:
        h = np.broadcast_to(complex_normal(rng, (1, m)), (n, m)).copy()
    else:
        alpha = complex_normal(rng, (model.n_taps, m))
        alpha *= np.sqrt(model.tap_powers())[:, None]
        h = np.exp(-2j * np.pi * np.outer(grid.frequencies, model.tap_delays())) @ alpha
    believed = h
    if csi is not None:
        unit = complex_normal(make_rng(derive_seed(cfg.seed, 1, n, m, d_index, r)),
                              h.shape)
        believed = h + np.sqrt(csi.noise_variance) * unit
        x = max(np.max(np.abs(believed.real)), np.max(np.abs(believed.imag)))
        step = 2.0 * float(x) / (2.0**csi.quant_bits_per_component - 1.0)
        believed = (step * np.round(believed.real / step)
                    + 1j * step * np.round(believed.imag / step))
    if scheme.kind == "cw":
        w, h = np.array([[math.sqrt(2.0 * p)]], dtype=np.complex128), h[:1, :1]
    elif scheme.kind == "mrt":
        norm = float(np.linalg.norm(believed[0]))
        w = (math.sqrt(2.0 * p) / norm) * np.conj(believed[0])[None, :]
    elif scheme.kind == "up":
        w = math.sqrt(2.0 * p / (n * m)) * np.exp(-1j * np.angle(believed))
    else:
        norms = np.linalg.norm(believed, axis=1)
        shape = norms[:, None] ** (scheme.beta - 1.0) * np.conj(believed)
        w = math.sqrt(2.0 * p / float(np.sum(norms ** (2.0 * scheme.beta)))) * shape
    a = (h * w).sum(axis=1) / np.sqrt(path_loss(model, distance))
    c = np.convolve(a, a)
    m2, m4 = float(np.sum(np.abs(a) ** 2)) / 2.0, 0.375 * float(np.vdot(c, c).real)
    k2, k4, r_ant = cfg.rectifier.k2, cfg.rectifier.k4, cfg.rectifier.r_ant
    z = k2 * r_ant * m2 + k4 * r_ant**2 * m4
    if csi is not None:
        z *= csi.duty_factor
    return z


class TestEnsembleBitIdentity:
    @pytest.mark.parametrize("csi", [None, CSI], ids=["ideal", "csi"])
    @pytest.mark.parametrize("n_taps", [1, 8], ids=["one_tap", "eight_taps"])
    @pytest.mark.parametrize("m_antennas", [1, 8])
    @pytest.mark.parametrize("scheme", SCHEME_KINDS)
    def test_blocks_match_per_realization_chain(self, scheme, m_antennas, n_taps, csi):
        # 257 realizations cross the first block boundary.
        assert harness.BLOCK_SIZE < 257
        n_tones = 1 if scheme == "mrt" else 8
        cfg = ExperimentConfig(
            realizations=257, seed=11, power_budget=0.01,
            channel_model=ChannelModel(n_taps=n_taps), csi=csi,
        )
        batched = harness._zdc_ensemble(cfg, scheme, n_tones, m_antennas, 2.0, 1)
        scalar = scalar_ensemble(cfg, scheme, n_tones, m_antennas, 2.0, 1)
        assert np.array_equal(batched, scalar)
        grid, design = cfg.grid_for(n_tones), cfg.scheme_obj(scheme)
        reference = [reference_zdc(cfg, design, grid, m_antennas, 2.0, 1, r)
                     for r in range(cfg.realizations)]
        assert np.array_equal(batched, reference)


class TestDegenerateBlock:
    SCHEME = DesignScheme(kind="smf", power_budget=1.0)
    GRID = ToneGrid.for_band(2)

    def _scalar_error(self):
        zero = ChannelRealization(np.zeros((2, 2), complex), 1.0)
        with pytest.raises(ValueError) as scalar:
            csi_loop_zdc(zero, self.SCHEME, CsiConfig(), PARAMS, 0, self.GRID)
        return str(scalar.value)

    def test_zero_estimate_in_a_block_raises_like_the_scalar_path(self):
        h = np.ones((3, 2, 2), complex)
        h[1] = 0.0
        block = ChannelRealization(h, path_loss=1.0)
        with pytest.raises(ValueError) as batched:
            csi_loop_zdc(block, self.SCHEME, CsiConfig(), PARAMS, [0, 1, 2], self.GRID)
        assert str(batched.value) == self._scalar_error()

    def test_zero_estimate_aborts_the_ensemble(self, monkeypatch):
        real_sample = harness.sample_channel

        def zero_in_second_block(model, grid, m, seed, distance):
            channel = real_sample(model, grid, m, seed, distance=distance)
            draws.append(seed)
            if len(draws) == harness.BLOCK_SIZE + 3:
                return ChannelRealization(np.zeros_like(channel.h), channel.path_loss)
            return channel

        draws = []
        monkeypatch.setattr(harness, "sample_channel", zero_in_second_block)
        cfg = ExperimentConfig(
            realizations=harness.BLOCK_SIZE + 10, power_budget=1.0,
            csi=CsiConfig(noise_variance=0.0),
        )
        with pytest.raises(ValueError) as ensemble:
            harness._zdc_ensemble(cfg, "smf", 2, 2, 1.0, 0)
        assert str(ensemble.value) == self._scalar_error()


def channel_batches(max_tones=8):
    """(scheme, beta, channel batch) with R <= 5, N <= 8 (1 for mrt), M <= 8."""

    @st.composite
    def build(draw):
        scheme = draw(st.sampled_from(SCHEME_KINDS))
        r = draw(st.integers(1, 5))
        n = 1 if scheme == "mrt" else draw(st.integers(1, max_tones))
        m = draw(st.integers(1, 8))
        entries = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)
        h = draw(hnp.arrays(np.complex128, (r, n, m), elements=entries))
        beta = draw(st.floats(0.25, 5.0))
        return scheme, beta, ChannelRealization(h, path_loss=263.0)

    return build()


def zdc_of(scheme, channel):
    grid = ToneGrid.for_band(channel.n_tones)
    weights = apply_design(scheme, channel, grid)
    return z_dc(received_tones(weights, effective_channel(scheme, channel)), PARAMS)


class TestBatchedProperties:
    @settings(max_examples=60, deadline=None)
    @given(channel_batches(), st.floats(1e-3, 10.0))
    def test_every_realization_radiates_the_budget(self, case, budget):
        kind, beta, channel = case
        scheme = DesignScheme(kind=kind, power_budget=budget, beta=beta)
        weights = apply_design(scheme, channel, ToneGrid.for_band(channel.n_tones))
        power = tx_power(weights)
        assert power.shape == channel.h.shape[:1]
        np.testing.assert_allclose(power, budget, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(channel_batches(max_tones=1), st.floats(1e-3, 10.0))
    def test_smf_on_one_tone_is_mrt(self, case, budget):
        _, beta, channel = case
        grid = ToneGrid.for_band(1)
        smf = design_smf(channel, budget, grid, beta=beta)
        mrt = design_mrt(channel, budget, grid)
        np.testing.assert_allclose(smf.w, mrt.w, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(channel_batches(), st.floats(0.0, 2 * np.pi))
    def test_common_phase_rotation_leaves_zdc_unchanged(self, case, theta):
        kind, beta, channel = case
        scheme = DesignScheme(kind=kind, beta=beta)
        rotated = ChannelRealization(channel.h * np.exp(1j * theta), channel.path_loss)
        base = zdc_of(scheme, channel)
        assert base.shape == channel.h.shape[:1]
        np.testing.assert_allclose(zdc_of(scheme, rotated), base, rtol=1e-12)


class TestShapes:
    def test_single_reception_gives_a_float_and_a_batch_an_array(self):
        h = np.ones((3, 2, 4), complex)
        block = ChannelRealization(h, path_loss=4.0)
        single = ChannelRealization(h[0], path_loss=4.0)
        scheme = DesignScheme(kind="up")
        assert type(zdc_of(scheme, single)) is float
        assert zdc_of(scheme, block).shape == (3,)
        assert np.array_equal(zdc_of(scheme, block), [zdc_of(scheme, single)] * 3)

    def test_time_oracle_and_codecs_take_single_realizations(self):
        grid = ToneGrid.for_band(2)
        tones = rectifier.ReceivedTones(np.ones((3, 2), complex), grid)
        with pytest.raises(ValueError, match="single realization"):
            rectifier.z_dc_time_oracle(tones, PARAMS)
        block = ChannelRealization(np.ones((3, 2, 1), complex), 1.0)
        with pytest.raises(ValueError, match="single realization"):
            channel_to_json(block)


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    def test_every_patched_layer_resolves(self):
        for module_name, attr, _ in load_bench_module("spans").LAYER_PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert callable(vars(owner).get(leaf)), f"{module_name}.{attr}"

    @pytest.mark.parametrize("workload", ["cdf_c9", "csi_flat"])
    def test_oracle_chain_returns_floats_matching_the_time_oracle(
        self, workload, tmp_path, monkeypatch
    ):
        # csi_flat covers every scheme, CW included on M = 1, 2, 4, 8.
        monkeypatch.syspath_prepend(BENCH_DIR)
        worker = load_bench_module("worker")
        workloads = importlib.import_module("workloads")
        spec = workloads.WORKLOADS[workload]
        for name, text in workloads.config_files(spec, 3, 0, realizations=2).items():
            (tmp_path / name).write_text(text)

        results = []

        def recording_z_dc(tones, params):
            results.append(real_z_dc(tones, params))
            return results[-1]

        real_z_dc = rectifier.z_dc
        monkeypatch.setattr(rectifier, "z_dc", recording_z_dc)
        report = worker.oracle(
            {"workload": workload, "dir": str(tmp_path), "trace": False, "pick": 0}
        )
        assert report["checks"] == len(results) > 0
        assert report["failures"] == []
        assert report["max_rel_err"] <= 1e-8
        assert all(type(z) is float for z in results)
        if workload == "csi_flat":
            schemes = ",".join(call.settings["schemes"] for call in spec.calls)
            assert set(schemes.split(",")) == set(SCHEME_KINDS)
