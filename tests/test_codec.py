"""Tone/antenna entries: the one codec behind channel JSON, channel CSV and weights."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim.channel import (
    ChannelRealization,
    channel_from_json,
    channel_to_json,
    load_channel_csv,
    save_channel_csv,
)
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    weights_from_json,
    weights_to_json,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def matrices(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entries = st.builds(complex, finite, finite)
    values = draw(st.lists(entries, min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.complex128).reshape(n, m)


def channel_json(channel, edit):
    data = json.loads(json.dumps(channel_to_json(channel)))
    data["entries"] = edit(data["entries"])
    return channel_from_json(data)


def channel_csv(channel, edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chan.csv")
        save_channel_csv(channel, path)
        with open(path, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(edit(rows)))
        return load_channel_csv(path)


def weights_json(weights, edit):
    data = json.loads(json.dumps(weights_to_json(weights)))
    data["entries"] = edit(data["entries"])
    return weights_from_json(data)


def shuffler(rnd):
    def shuffled(entries):
        entries = list(entries)
        rnd.shuffle(entries)
        return entries

    return shuffled


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=50)
@given(h=matrices(), path_loss=positive, distance=positive, rnd=st.randoms())
@pytest.mark.parametrize("codec", [channel_json, channel_csv])
def test_channel_round_trip_is_bit_exact(codec, h, path_loss, distance, rnd):
    loaded = codec(ChannelRealization(h, path_loss, distance), shuffler(rnd))
    assert same_bits(loaded.h, h)
    assert (loaded.path_loss, loaded.distance) == (path_loss, distance)


@settings(deadline=None, max_examples=50)
@given(w=matrices(), rnd=st.randoms())
def test_weights_round_trip_is_bit_exact(w, rnd):
    weights = PrecoderWeights(w, ToneGrid.for_band(w.shape[0]))
    loaded = weights_json(weights, shuffler(rnd))
    assert same_bits(loaded.w, w)
    assert loaded.grid == weights.grid


def _decode_matrix(codec, h, edit):
    if codec is weights_json:
        return codec(PrecoderWeights(h, ToneGrid.for_band(h.shape[0])), edit).w
    return codec(ChannelRealization(h, 263.0, 2.0), edit).h


@settings(deadline=None, max_examples=50)
@given(h=matrices(), data=st.data())
@pytest.mark.parametrize("codec", [channel_json, channel_csv, weights_json])
def test_dropping_or_duplicating_an_entry_is_rejected(codec, h, data):
    i = data.draw(st.integers(0, h.size - 1), label="entry")
    with pytest.raises(ValueError):
        _decode_matrix(codec, h, lambda entries: entries + [entries[i]])

    def drop(entries):
        return entries[:i] + entries[i + 1:]

    # A dimension a file does not declare is 1 + its largest index (weights:
    # antennas; CSV: both).  Dropping the last entry of a one-row or
    # one-column grid along such an axis leaves a complete smaller grid,
    # which the file cannot tell apart from a file written that way.
    n, m = h.shape
    last = i == h.size - 1
    if last and n == 1 and m > 1 and codec is not channel_json:
        assert same_bits(_decode_matrix(codec, h, drop), h[:, :-1])
    elif last and m == 1 and n > 1 and codec is channel_csv:
        assert same_bits(_decode_matrix(codec, h, drop), h[:-1])
    else:
        with pytest.raises(ValueError):
            _decode_matrix(codec, h, drop)
