"""Block seeding against numpy's own SeedSequence, Philox and Generator.

`derive_seed`, `philox_keys` and the re-keyed generator inside
`unit_normals` reimplement or bypass numpy's seeding; each must agree with
the plain per-seed construction bit for bit.  Every channel model and the
CSI noise draw through `unit_normals`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptsim.channel import (
    FREQUENCY_FLAT,
    TAPPED_DELAY,
    ChannelModel,
    complex_normal,
    derive_seed,
    make_rng,
    philox_keys,
    sample_channel,
    seed_array,
    unit_normals,
)
from wptsim.csi import CsiConfig, ls_estimate
from wptsim.signals import ToneGrid

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
# Path components of one, two and three 32-bit words, zero included.
components = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)
CFG = CsiConfig(noise_variance=0.25)


def reference_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def rekeyed_generator(key):
    bitgen = np.random.Philox(0)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [int(k) for k in key]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


class TestPhiloxKeys:
    def test_edge_seeds(self):
        keys = philox_keys(EDGE_SEEDS)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, [reference_key(s) for s in EDGE_SEEDS])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(seeds, min_size=1, max_size=12))
    def test_matches_generate_state(self, values):
        expected = np.array([reference_key(s) for s in values])
        assert np.array_equal(philox_keys(values), expected)

    def test_shapes(self):
        grid = [[0, 2**32], [2**64 - 1, 5]]
        assert np.array_equal(philox_keys(7), reference_key(7))
        keys = philox_keys(grid)
        assert keys.shape == (2, 2, 2)
        assert np.array_equal(keys[1, 0], reference_key(2**64 - 1))
        assert philox_keys([]).shape == (0, 2)

    def test_is_the_key_of_make_rng(self):
        for seed in EDGE_SEEDS:
            state = make_rng(seed).bit_generator.state
            assert np.array_equal(philox_keys(seed), state["state"]["key"])
            assert not state["state"]["counter"].any()
            assert state["buffer_pos"] == 4

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_rekeyed_generator_replays_make_rng(self, seed):
        rekeyed, fresh = rekeyed_generator(philox_keys(seed)), make_rng(seed)
        assert np.array_equal(rekeyed.standard_normal(11), fresh.standard_normal(11))
        assert np.array_equal(
            rekeyed.bit_generator.random_raw(9), fresh.bit_generator.random_raw(9)
        )


class TestDeriveSeed:
    @settings(max_examples=60, deadline=None)
    @given(components, st.lists(components, max_size=6))
    def test_matches_seed_sequence_of_the_list(self, master, path):
        expected = np.random.SeedSequence([master, *path]).generate_state(1, np.uint64)
        seed = derive_seed(master, *path)
        assert type(seed) is int
        assert seed == int(expected[0])
        assert 0 <= seed < 2**64

    def test_zero_is_one_word(self):
        assert derive_seed(0) == int(
            np.random.SeedSequence([0]).generate_state(1, np.uint64)[0]
        )
        assert derive_seed(2**32) == int(
            np.random.SeedSequence([0, 1]).generate_state(1, np.uint64)[0]
        )

    def test_trailing_zeros_inside_the_pool_are_padding(self):
        # numpy pads entropy shorter than its four-word pool with zeros, so
        # only paths of one length are told apart there; past four words a
        # zero word is mixed in.
        assert derive_seed(5, 0) == derive_seed(5) == derive_seed(5, 0, 0, 0)
        assert derive_seed(5, 0, 0, 0, 0) != derive_seed(5, 0, 0, 0)

    def test_numpy_integers(self):
        assert derive_seed(np.uint64(2**64 - 1), np.int8(3)) == derive_seed(2**64 - 1, 3)


def per_index_reference(pilot, received, noise_seed):
    """One `complex_normal(make_rng(seed))` draw per leading index."""
    index_seeds = np.array(noise_seed, dtype=object)
    unit = np.empty(pilot.shape, dtype=np.complex128)
    for index in np.ndindex(index_seeds.shape):
        unit[index] = complex_normal(
            make_rng(index_seeds[index]), pilot.shape[index_seeds.ndim :]
        )
    return (received + np.sqrt(CFG.noise_variance) * unit) / pilot


@st.composite
def estimate_inputs(draw):
    seed_shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    count = int(np.prod(seed_shape, dtype=int))
    values = draw(st.lists(seeds, min_size=count, max_size=count))
    noise_seed = values[0] if seed_shape == () else np.array(
        values, dtype=object
    ).reshape(seed_shape).tolist()
    shape = seed_shape + (n, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pilot = rng.uniform(0.5, 2.0, shape) * np.exp(1j * rng.uniform(0, 6.3, shape))
    received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return pilot, received, noise_seed


class TestLsEstimate:
    @settings(max_examples=40, deadline=None)
    @given(estimate_inputs())
    def test_equals_per_index_reference(self, inputs):
        pilot, received, noise_seed = inputs
        assert np.array_equal(
            ls_estimate(pilot, received, noise_seed, CFG),
            per_index_reference(pilot, received, noise_seed),
        )

    def test_uint64_seed_array(self):
        pilot = np.ones((2, 3, 2), dtype=np.complex128)
        noise_seed = np.array([2**64 - 1, 2**32], dtype=np.uint64)
        assert np.array_equal(
            ls_estimate(pilot, pilot, noise_seed, CFG),
            per_index_reference(pilot, pilot, noise_seed.tolist()),
        )

    @pytest.mark.parametrize(
        "noise_seed", [-1, 2**64, 1.5, 1.0, "3", None, [1, -1], [1, 2.0]]
    )
    def test_rejects_seed_outside_range_naming_it(self, noise_seed):
        shape = np.shape(noise_seed) + (1, 1)
        with pytest.raises(ValueError, match="noise_seed"):
            ls_estimate(np.ones(shape), np.ones(shape), noise_seed, CFG)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(components, min_size=1, max_size=5))
    def test_accepts_every_derived_seed(self, path):
        seed = derive_seed(*path)
        assert seed_array(seed, "noise_seed") == seed
        ls_estimate(np.ones((1, 1)), np.ones((1, 1)), seed, CFG)


@st.composite
def seed_batches(draw):
    """Seeds of shape (), (R,), (R1, R2) or an empty batch."""
    seed_shape = draw(st.sampled_from([(), (3,), (2, 3), (0,), (2, 0)]))
    count = int(np.prod(seed_shape, dtype=int))
    values = draw(st.lists(seeds, min_size=count, max_size=count))
    return np.array(values, dtype=np.uint64).reshape(seed_shape)


class TestUnitNormals:
    @settings(max_examples=40, deadline=None)
    @given(seed_batches(), st.lists(st.integers(0, 4), max_size=2).map(tuple))
    @example(np.array(0, dtype=np.uint64), (3,))
    @example(np.array(2**64 - 1, dtype=np.uint64), (2, 2))
    @example(np.array([0, 2**64 - 1], dtype=np.uint64), (4, 3))
    def test_equals_stacked_complex_normal(self, batch, shape):
        expected = np.empty(batch.shape + shape, dtype=np.complex128)
        for index in np.ndindex(batch.shape):
            expected[index] = complex_normal(make_rng(int(batch[index])), shape)
        assert np.array_equal(unit_normals(batch, shape), expected)
        assert np.array_equal(unit_normals(batch.tolist(), shape), expected)


class TestOneTapFlat:
    def test_flat_model_is_one_zero_delay_tap(self):
        flat = ChannelModel(kind=FREQUENCY_FLAT, n_taps=8, delay_spread=1e-6)
        assert np.array_equal(flat.tap_delays(), [0.0])
        assert np.array_equal(flat.tap_powers(), [1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        n_taps=st.integers(1, 16),
        delay_spread=st.floats(0.0, 2e-6),
        pdp_decay=st.floats(0.0, 1e8),
        n_tones=st.integers(1, 16),
        m_antennas=st.integers(1, 8),
        seed=seeds,
    )
    def test_flat_equals_single_tap_draw(
        self, n_taps, delay_spread, pdp_decay, n_tones, m_antennas, seed
    ):
        profile = dict(delay_spread=delay_spread, pdp_decay=pdp_decay)
        flat = ChannelModel(kind=FREQUENCY_FLAT, n_taps=n_taps, **profile)
        one_tap = ChannelModel(kind=TAPPED_DELAY, n_taps=1, **profile)
        grid = ToneGrid.for_band(n_tones)
        a = sample_channel(flat, grid, m_antennas, seed, distance=2.0)
        b = sample_channel(one_tap, grid, m_antennas, seed, distance=2.0)
        assert np.array_equal(a.h, b.h)
        row = complex_normal(make_rng(seed), (1, m_antennas))
        assert np.array_equal(a.h, np.repeat(row, n_tones, axis=0))
