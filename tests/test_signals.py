"""Tone grids, precoder weights, and one-period waveform sampling."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wptsim
from wptsim.rectifier import ReceivedTones
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    load_weights,
    period_samples,
    save_weights,
    tx_power,
    weights_from_json,
    weights_to_json,
)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_weights(w, f0=32e6, delta_f=1e6):
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    grid = ToneGrid(f0=f0, delta_f=delta_f, n_tones=w.shape[0])
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

    def test_direct_grid_is_not_band_capped(self):
        # A band limit only sets for_band's spacing: a direct grid may span
        # 15 MHz, and the rectifier still rejects a comb reaching 2 f0.
        grid = ToneGrid(f0=2.4e9, delta_f=1e6, n_tones=16)
        assert grid.frequencies[-1] - grid.frequencies[0] == 15e6
        with pytest.raises(ValueError, match="f0/band_limit"):
            ReceivedTones(np.ones(16), ToneGrid(f0=7.5e6, delta_f=1e6, n_tones=16))

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ToneGrid)] == [
            "f0", "delta_f", "n_tones"
        ]

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

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 4096),
        f0=st.floats(3.0, 10.0).map(lambda e: 10.0**e),
        band=st.floats(-3.0, 12.0).map(lambda e: 10.0**e),
    )
    @example(n=8, f0=2.4e9, band=1e6)
    @example(n=596, f0=2.4e9, band=10e6)
    @example(n=600, f0=2.4e9, band=10e6)
    @example(n=24, f0=915e6, band=1829999999.9999998)
    def test_for_band_grid_passes_its_own_band_check(self, n, f0, band):
        grid = ToneGrid.for_band(n, f0, band)
        assert (n - 1) * grid.delta_f <= band
        if n > 1:
            # At most one ulp below the even split of the band.
            assert math.nextafter(band / (n - 1), 0.0) <= grid.delta_f <= band / (n - 1)


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


class TestPeriodSamples:
    def test_two_inphase_tones_at_zero(self):
        y = period_samples(ToneGrid(32e6, 1e6, 2), np.ones(2, complex))
        assert y[0] == 2.0

    def test_quadrature_tone(self):
        # a = j at 2 delta_f on 8 (2 + 1) = 24 samples: y = -sin(2 pi 2 k / 24),
        # a minimum at k = 3
        y = period_samples(ToneGrid(2e6, 1e6, 1), np.array([1j]))
        np.testing.assert_allclose(y[[0, 3]], [0.0, -1.0], atol=1e-15)

    def test_trailing_axes_shape(self):
        # q0 = round(32.4) = 32, so 8 (q0 + N) = 8 * 35 samples
        grid = ToneGrid(32.4e6, 1e6, 3)
        assert period_samples(grid, np.ones(3, complex)).shape == (280,)
        assert period_samples(grid, np.ones((3, 2, 4), complex)).shape == (280, 2, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        a=hnp.arrays(
            np.complex128,
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False),
        ),
        q0=st.integers(4, 64),
    )
    def test_matrix_is_its_columns_bit_for_bit(self, a, q0):
        # q0 >= 4 keeps N - 1 < 2 q0 for up to eight tones.
        grid = ToneGrid(q0 * 1e6 + 1e5, 1e6, a.shape[0])
        y = period_samples(grid, a)
        for m in range(a.shape[1]):
            assert y[:, m].tobytes() == period_samples(grid, a[:, m]).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4, 3), ()])
    def test_amplitudes_of_another_tone_count_rejected(self, shape):
        grid = ToneGrid(32e6, 1e6, 3)
        with pytest.raises(ValueError, match=r"first axis of 3, the grid's tone count"):
            period_samples(grid, np.ones(shape, complex))

    @pytest.mark.parametrize(
        "f0, n_tones, q0", [(1e6, 3, 1), (0.4e6, 1, 0), (2.6e6, 8, 3)]
    )
    def test_snapped_comb_rule(self, f0, n_tones, q0):
        # N - 1 >= 2 q0 on the grid snapped to q0 = round(f0 / delta_f)
        with pytest.raises(ValueError, match=f"snaps to q0 = {q0} harmonics"):
            period_samples(ToneGrid(f0, 1e6, n_tones), np.ones(n_tones, complex))

    @pytest.mark.parametrize("f0, delta_f", [(2.4e9, 1.0), (2.0**23, 1.0), (1e300, 1e-10)])
    def test_too_fine_grid_rejected(self, f0, delta_f):
        # 8 (q0 + 1) > 2^26 samples, the smallest such q0 = 2^23 included;
        # f0 / delta_f = 1e310 overflows to inf.
        with pytest.raises(ValueError, match="too fine"):
            period_samples(ToneGrid(f0, delta_f, 1), np.ones(1, complex))


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
            grid = ToneGrid(q0 * 1e6, 1e6, n)
            weights = PrecoderWeights(crandn(rng, (n, m)), grid)
            x = period_samples(grid, weights.w)
            avg = float(np.mean(np.sum(x**2, axis=1)))
            worst = max(worst, abs(avg - tx_power(weights)) / tx_power(weights))
        assert worst <= 1e-9


def test_package_exports_resolve():
    for name in wptsim.__all__:
        assert getattr(wptsim, name) is not None, name
    for removed in ("multisine", "synthesize_tx", "received_signal"):
        assert removed not in wptsim.__all__
        for module in (wptsim, wptsim.signals, wptsim.rectifier):
            assert not hasattr(module, removed), (module.__name__, removed)


class TestWeightsIo:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        weights = make_weights(crandn(rng, (3, 2)))
        path = tmp_path / "weights.json"
        save_weights(weights, str(path))
        loaded = load_weights(str(path))
        np.testing.assert_array_equal(loaded.w, weights.w)
        assert loaded.grid == weights.grid

    def test_file_keys(self):
        data = weights_to_json(make_weights(np.ones((2, 2))))
        assert list(data) == ["f0", "delta_f", "n_tones", "m_antennas", "entries"]

    def test_wide_grid_loads(self):
        # 16 tones at 1 MHz span 15 MHz; no band limit caps a weight file.
        data = weights_to_json(make_weights(np.ones((16, 2)), f0=2.4e9))
        loaded = weights_from_json(data)
        assert loaded.grid == ToneGrid(f0=2.4e9, delta_f=1e6, n_tones=16)
        np.testing.assert_array_equal(loaded.w, np.ones((16, 2)))

    def test_band_limit_key_is_ignored(self):
        weights = make_weights(np.arange(6.0).reshape(3, 2) + 1j)
        data = weights_to_json(weights)
        for band_limit in (10e6, 1.0, float("nan")):
            loaded = weights_from_json({**data, "band_limit": band_limit})
            assert loaded.grid == weights.grid
            np.testing.assert_array_equal(loaded.w, weights.w)

    def test_missing_entries_rejected(self):
        data = weights_to_json(make_weights(np.ones((2, 2))))
        del data["entries"][-1]
        with pytest.raises(ValueError, match="missing"):
            weights_from_json(data)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["entries"][0].update(antenna=10**15),
             "entries[0]: index (0, 1000000000000000) out of range"),
            (lambda d: d.pop("m_antennas"), "'m_antennas' is missing"),
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
            (lambda d: d.update(f0=True, delta_f=True),
             "'f0' must be a number, got True"),
            (lambda d: d.update(delta_f=True), "'delta_f' must be a number, got True"),
        ],
        ids=["huge-antenna", "no-m_antennas", "duplicate", "fractional", "boolean",
             "inf", "no-f0", "not-a-list", "inf-f0", "overflow-f0", "nan-f0",
             "inf-delta_f", "nan-delta_f", "boolean-grid", "boolean-delta_f"],
    )
    def test_bad_files_rejected_naming_the_field(self, edit, field):
        data = weights_to_json(make_weights(np.ones((2, 2))))
        edit(data)
        with pytest.raises(ValueError, match=re.escape(field)):
            weights_from_json(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            weights_from_json([])

    @pytest.mark.parametrize(
        "content",
        [b"f0,delta_f,n_tones\n2.4e9,1e6,2\n", b"\xff\xfe{}"],
        ids=["csv", "not-utf8"],
    )
    def test_non_json_file_is_one_error_naming_the_path(self, tmp_path, content):
        path = tmp_path / "weights.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            load_weights(str(path))
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{str(path)!r} is not a JSON weight file: ")
