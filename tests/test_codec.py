"""The matrix document: one codec behind channel and weight files.

Both declare `n_tones` and `m_antennas` and hold one entry per element, so
a dropped or duplicated entry is rejected for either kind of file."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptsim.channel import (
    ChannelRealization,
    channel_from_json,
    channel_to_json,
)
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    csv_text,
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
@given(h=matrices(), path_loss=positive, rnd=st.randoms())
def test_channel_round_trip_is_bit_exact(h, path_loss, rnd):
    loaded = channel_json(ChannelRealization(h, path_loss), shuffler(rnd))
    assert same_bits(loaded.h, h)
    assert loaded.path_loss == path_loss


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
    return codec(ChannelRealization(h, 263.0), edit).h


@settings(deadline=None, max_examples=50)
@given(h=matrices(), i=st.integers(0, 23))
# A one-tone file missing its last antenna column is a complete matrix of one
# antenna fewer unless the file declares its antenna count.
@example(h=np.ones((1, 2), dtype=complex), i=1)
@pytest.mark.parametrize("codec", [channel_json, weights_json])
def test_dropping_or_duplicating_an_entry_is_rejected(codec, h, i):
    i %= h.size
    with pytest.raises(ValueError):
        _decode_matrix(codec, h, lambda entries: entries + [entries[i]])

    def drop(entries):
        return entries[:i] + entries[i + 1:]

    with pytest.raises(ValueError):
        _decode_matrix(codec, h, drop)


def test_csv_text_quotes_only_where_needed_and_ends_lines_bare():
    text = csv_text(["a", "b"], [[1, "x,y"], ["", 2.5]])
    assert text == 'a,b\n1,"x,y"\n,2.5\n'
