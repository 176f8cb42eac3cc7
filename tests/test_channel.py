"""Channel models: path loss, sampling statistics, determinism, replay."""

import numpy as np
import pytest

from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    channel_from_json,
    channel_to_json,
    derive_seed,
    load_channel,
    load_channel_csv,
    path_loss,
    sample_channel,
    save_channel,
    save_channel_csv,
)
from wptsim.signals import ToneGrid

FLAT = ChannelModel(kind="frequency_flat", path_loss_ref=1.0, path_loss_exponent=1.55)
SELECTIVE = ChannelModel(
    kind="tapped_delay",
    n_taps=8,
    delay_spread=300e-9,
    pdp_decay=5e6,
    path_loss_ref=1.0,
    path_loss_exponent=1.55,
)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(FLAT, 1.0) == pytest.approx(1.0)

    def test_two_meters(self):
        assert path_loss(FLAT, 2.0) == pytest.approx(2.0**1.55, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_distance(self, bad):
        with pytest.raises(ValueError, match="positive"):
            path_loss(FLAT, bad)


class TestModelValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChannelModel(kind="rayleigh")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_taps=0),
            dict(delay_spread=-1e-9),
            dict(pdp_decay=-1.0),
            dict(path_loss_ref=0.0),
            dict(path_loss_exponent=0.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ChannelModel(**kwargs)

    @pytest.mark.parametrize(
        "name", ["delay_spread", "pdp_decay", "path_loss_ref", "path_loss_exponent"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            ChannelModel(**{name: value})

    def test_tap_powers_normalized(self):
        assert SELECTIVE.tap_powers().sum() == pytest.approx(1.0, rel=1e-12)


class TestRealization:
    def test_amplitude_phase_recoverable(self):
        h = np.array([[0.3 - 0.4j, 1.0 + 2.0j]])
        ch = ChannelRealization(h=h, path_loss=2.0, distance=1.5)
        np.testing.assert_allclose(
            ch.amplitudes * np.exp(1j * ch.phases), h, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h=np.ones((1, 1), dtype=complex), path_loss=0.0, distance=1.0),
            dict(h=np.ones((1, 1), dtype=complex), path_loss=1.0, distance=0.0),
            dict(h=np.array([[np.nan + 0j]]), path_loss=1.0, distance=1.0),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ChannelRealization(**kwargs)


class TestSampling:
    def test_same_seed_same_draw(self):
        grid = ToneGrid.for_band(4)
        a = sample_channel(SELECTIVE, grid, 3, seed=42, distance=2.0)
        b = sample_channel(SELECTIVE, grid, 3, seed=42, distance=2.0)
        np.testing.assert_array_equal(a.h, b.h)
        assert a.path_loss == b.path_loss

    def test_different_seeds_differ(self):
        grid = ToneGrid.for_band(4)
        a = sample_channel(SELECTIVE, grid, 3, seed=1)
        b = sample_channel(SELECTIVE, grid, 3, seed=2)
        assert not np.array_equal(a.h, b.h)

    def test_flat_model_repeats_rows(self):
        grid = ToneGrid.for_band(8)
        ch = sample_channel(FLAT, grid, 4, seed=3)
        np.testing.assert_array_equal(ch.h, np.broadcast_to(ch.h[0], ch.h.shape))

    def test_single_tap_is_flat(self):
        model = ChannelModel(kind="tapped_delay", n_taps=1, path_loss_ref=1.0)
        ch = sample_channel(model, ToneGrid.for_band(8), 2, seed=4)
        np.testing.assert_allclose(
            ch.h, np.broadcast_to(ch.h[0], ch.h.shape), rtol=1e-12
        )

    def test_distance_sets_path_loss(self):
        model = ChannelModel(kind="frequency_flat", path_loss_ref=263.0)
        ch = sample_channel(model, ToneGrid.for_band(1), 1, seed=5, distance=2.0)
        assert ch.path_loss == pytest.approx(263.0 * 2.0**1.55, rel=1e-12)
        assert ch.distance == 2.0

    def test_rejects_bad_antenna_count(self):
        with pytest.raises(ValueError):
            sample_channel(FLAT, ToneGrid.for_band(1), 0, seed=0)

    @pytest.mark.parametrize("model", [FLAT, SELECTIVE], ids=["flat", "selective"])
    def test_unit_energy_and_fourth_moment(self, model):
        # E|h|^2 = 1 and E|h|^4 = 2 (complex Gaussian) per tone/antenna entry,
        # checked over 1e5 independently seeded realizations.
        grid = ToneGrid.for_band(4)
        acc2 = 0.0
        acc4 = 0.0
        count = 100_000
        for i in range(count):
            h00 = sample_channel(model, grid, 1, seed=derive_seed(99, i)).h[0, 0]
            p = abs(h00) ** 2
            acc2 += p
            acc4 += p * p
        assert 0.98 <= acc2 / count <= 1.02
        assert 1.94 <= acc4 / count <= 2.06

    def test_frequency_correlation_decreases_with_delay_spread(self):
        # Cross-band tone correlation must drop as the delay spread grows.
        grid = ToneGrid.for_band(8)
        corr = {}
        for spread in (10e-9, 400e-9):
            model = ChannelModel(
                kind="tapped_delay",
                n_taps=8,
                delay_spread=spread,
                pdp_decay=0.0,
                path_loss_ref=1.0,
            )
            acc = 0.0j
            draws = 4000
            for i in range(draws):
                h = sample_channel(model, grid, 1, seed=derive_seed(7, i)).h[:, 0]
                acc += h[0] * np.conj(h[-1])
            corr[spread] = abs(acc) / draws
        assert corr[10e-9] > 0.9
        assert corr[400e-9] < corr[10e-9] - 0.3


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_paths_distinguished(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(1, -2)


class TestSerialization:
    def _channel(self):
        return sample_channel(SELECTIVE, ToneGrid.for_band(3), 2, seed=11, distance=2.5)

    def test_csv_round_trip_exact(self, tmp_path):
        ch = self._channel()
        path = tmp_path / "chan.csv"
        save_channel_csv(ch, str(path))
        loaded = load_channel_csv(str(path))
        np.testing.assert_array_equal(loaded.h, ch.h)
        assert loaded.path_loss == ch.path_loss
        assert loaded.distance == ch.distance

    def test_json_round_trip_exact(self, tmp_path):
        ch = self._channel()
        path = tmp_path / "chan.json"
        save_channel(ch, str(path))
        loaded = load_channel(str(path))
        np.testing.assert_array_equal(loaded.h, ch.h)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tone,antenna,re,im,pl,d\n0,0,1,0,1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_channel_csv(str(path))

    def test_missing_entries_rejected(self):
        ch = self._channel()
        data = channel_to_json(ch)
        del data["entries"][0]
        with pytest.raises(ValueError, match="missing"):
            channel_from_json(data)
