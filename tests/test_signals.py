"""Tone grids, precoder weights, and waveform synthesis."""

import json
import re

import numpy as np
import pytest

from wptsim.channel import ChannelRealization
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    load_weights,
    normalize_power,
    received_signal,
    save_weights,
    synthesize_tx,
    tx_power,
    weights_from_json,
    weights_to_json,
)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_weights(w, f0=32e6, delta_f=1e6):
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    grid = ToneGrid(f0=f0, delta_f=delta_f, n_tones=w.shape[0], band_limit=np.inf)
    return PrecoderWeights(w, grid)


class TestToneGrid:
    def test_frequencies(self):
        grid = ToneGrid(f0=2.4e9, delta_f=1e6, n_tones=4)
        np.testing.assert_allclose(
            grid.frequencies, [2.4e9, 2.401e9, 2.402e9, 2.403e9]
        )

    def test_single_tone_has_base_frequency(self):
        grid = ToneGrid(f0=2.4e9, delta_f=5e6, n_tones=1)
        assert grid.frequencies.tolist() == [2.4e9]

    def test_band_limit_enforced(self):
        with pytest.raises(ValueError, match="band limit"):
            ToneGrid(f0=2.4e9, delta_f=1e6, n_tones=16, band_limit=10e6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f0=2.4e9, delta_f=1e6, n_tones=0),
            dict(f0=2.4e9, delta_f=0.0, n_tones=2),
            dict(f0=0.0, delta_f=1e6, n_tones=2),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ToneGrid(**kwargs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 13, 16])
    def test_for_band_fills_band(self, n):
        grid = ToneGrid.for_band(n)
        assert grid.n_tones == n
        if n > 1:
            span = grid.frequencies[-1] - grid.frequencies[0]
            np.testing.assert_allclose(span, 10e6, rtol=1e-12)


class TestPrecoderWeights:
    def test_row_count_must_match_grid(self):
        grid = ToneGrid.for_band(2)
        with pytest.raises(ValueError, match="tones"):
            PrecoderWeights(np.ones((3, 1), dtype=complex), grid)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_weights([[np.inf, 0.0]])

    def test_rejects_non_matrix(self):
        grid = ToneGrid.for_band(2)
        with pytest.raises(ValueError, match="2-D"):
            PrecoderWeights(np.ones(2, dtype=complex), grid)

    def test_weights_are_immutable(self):
        weights = make_weights([[1.0, 2.0]])
        with pytest.raises(ValueError):
            weights.w[0, 0] = 0.0


class TestSynthesize:
    def test_two_inphase_tones_at_zero(self):
        weights = make_weights([[1.0], [1.0]])
        np.testing.assert_allclose(synthesize_tx(weights, 0.0), [2.0])

    def test_quadrature_tone(self):
        # w = j gives x(0) = 0 and a minimum a quarter period later
        weights = make_weights([[1j]], f0=4e6, delta_f=1e6)
        np.testing.assert_allclose(synthesize_tx(weights, 0.0), [0.0], atol=1e-12)
        np.testing.assert_allclose(
            synthesize_tx(weights, 1.0 / (4 * 4e6)), [-1.0], atol=1e-9
        )

    def test_vector_time_axis_shape(self):
        weights = make_weights(np.ones((3, 2), dtype=complex))
        t = np.linspace(0.0, 1e-6, 17)
        assert synthesize_tx(weights, t).shape == (17, 2)

    def test_rejects_non_finite_time(self):
        weights = make_weights([[1.0]])
        with pytest.raises(ValueError):
            synthesize_tx(weights, np.nan)


class TestTxPower:
    def test_single_entry(self):
        assert tx_power(make_weights([[np.sqrt(2.0)]])) == pytest.approx(1.0)

    def test_sums_over_tones_and_antennas(self):
        assert tx_power(make_weights(np.ones((2, 2)))) == pytest.approx(2.0)

    def test_time_average_oracle(self):
        # Average of sum_m x_m(t)^2 over one period must equal sum |w|^2 / 2
        # when f0 is a harmonic of delta_f.  100 random weight matrices.
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 9))
            q0 = int(rng.integers(16, 65))
            delta_f = 1e6
            grid = ToneGrid(q0 * delta_f, delta_f, n, band_limit=np.inf)
            weights = PrecoderWeights(crandn(rng, (n, m)), grid)
            samples = 8 * (q0 + n)
            t = np.arange(samples) / (samples * delta_f)
            x = synthesize_tx(weights, t)
            avg = float(np.mean(np.sum(x**2, axis=1)))
            worst = max(worst, abs(avg - tx_power(weights)) / tx_power(weights))
        assert worst <= 1e-9


class TestNormalize:
    def test_worked_example(self):
        weights = normalize_power(make_weights([[3.0, 4.0]]), 1.0)
        np.testing.assert_allclose(
            weights.w, np.sqrt(2.0) / 5.0 * np.array([[3.0, 4.0]]), rtol=1e-12
        )

    def test_sets_power_exactly(self):
        rng = np.random.default_rng(5)
        weights = make_weights(crandn(rng, (4, 3)))
        for p in (0.25, 1.0, 7.5):
            assert tx_power(normalize_power(weights, p)) == pytest.approx(
                p, rel=1e-12
            )

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        once = normalize_power(make_weights(crandn(rng, (3, 2))), 2.0)
        twice = normalize_power(once, 2.0)
        np.testing.assert_allclose(twice.w, once.w, rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize_power(make_weights([[0.0, 0.0]]), 1.0)

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError):
            normalize_power(make_weights([[1.0]]), 0.0)


class TestReceivedSignal:
    def test_identity_channel_reproduces_tx(self):
        rng = np.random.default_rng(7)
        weights = make_weights(crandn(rng, (3, 1)))
        channel = ChannelRealization(
            h=np.ones((3, 1), dtype=complex), path_loss=1.0, distance=1.0
        )
        t = np.linspace(0.0, 2e-6, 33)
        np.testing.assert_allclose(
            received_signal(weights, channel, t),
            synthesize_tx(weights, t)[:, 0],
            rtol=1e-12,
            atol=1e-12,
        )

    def test_path_loss_four_halves_amplitude(self):
        weights = make_weights([[np.sqrt(2.0)]])
        channel = ChannelRealization(
            h=np.ones((1, 1), dtype=complex), path_loss=4.0, distance=1.0
        )
        assert received_signal(weights, channel, 0.0) == pytest.approx(
            np.sqrt(2.0) / 2.0
        )

    def test_linear_in_weights(self):
        rng = np.random.default_rng(8)
        w1 = crandn(rng, (4, 2))
        w2 = crandn(rng, (4, 2))
        grid = ToneGrid(32e6, 1e6, 4, band_limit=np.inf)
        channel = ChannelRealization(
            h=crandn(rng, (4, 2)), path_loss=2.0, distance=1.0
        )
        t = np.linspace(0.0, 1e-6, 11)
        y_sum = received_signal(PrecoderWeights(w1 + w2, grid), channel, t)
        y_parts = received_signal(
            PrecoderWeights(w1, grid), channel, t
        ) + received_signal(PrecoderWeights(w2, grid), channel, t)
        np.testing.assert_allclose(y_sum, y_parts, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        weights = make_weights(np.ones((2, 2)))
        channel = ChannelRealization(
            h=np.ones((2, 3), dtype=complex), path_loss=1.0, distance=1.0
        )
        with pytest.raises(ValueError, match="match"):
            received_signal(weights, channel, 0.0)


class TestWeightsIo:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        weights = make_weights(crandn(rng, (3, 2)))
        path = tmp_path / "weights.json"
        save_weights(weights, str(path))
        loaded = load_weights(str(path))
        np.testing.assert_array_equal(loaded.w, weights.w)
        assert loaded.grid == weights.grid

    def test_missing_entries_rejected(self):
        data = weights_to_json(make_weights(np.ones((2, 2))))
        del data["entries"][-1]
        with pytest.raises(ValueError, match="missing"):
            weights_from_json(data)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["entries"][0].update(antenna=10**15), "'entries'"),
            (lambda d: d["entries"][1].update(antenna=0), "entries[1]: duplicate"),
            (lambda d: d["entries"][0].update(tone=0.7), "'tone'"),
            (lambda d: d["entries"][0].update(tone=True), "'tone'"),
            (lambda d: d["entries"][0].update(imag=float("inf")), "'imag'"),
            (lambda d: d.pop("f0"), "'f0'"),
            (lambda d: d.update(entries={}), "'entries'"),
            (lambda d: d.update(json.loads('{"f0": Infinity}')), "f0 must"),
            (lambda d: d.update(json.loads('{"f0": 1e999}')), "f0 must"),
            (lambda d: d.update(f0=float("nan")), "f0 must"),
            (lambda d: d.update(delta_f=float("inf")), "delta_f must"),
            (lambda d: d.update(delta_f=float("nan")), "delta_f must"),
            (lambda d: d.update(band_limit=float("nan")), "band_limit must"),
        ],
        ids=["huge-antenna", "duplicate", "fractional", "boolean", "inf", "no-f0",
             "not-a-list", "inf-f0", "overflow-f0", "nan-f0", "inf-delta_f",
             "nan-delta_f", "nan-band_limit"],
    )
    def test_bad_files_rejected_naming_the_field(self, edit, field):
        data = weights_to_json(make_weights(np.ones((2, 2))))
        edit(data)
        with pytest.raises(ValueError, match=re.escape(field)):
            weights_from_json(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            weights_from_json([])
