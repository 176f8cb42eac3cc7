"""Block seeding against numpy's own SeedSequence, Philox and Generator.

`derive_seed`, `philox_keys` and the re-keyed generator inside
`unit_normals` reimplement or bypass numpy's seeding; each must agree with
the plain per-seed construction bit for bit.  Every channel model and the
CSI noise draw through `unit_normals`.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wptsim
from wptsim.channel import (
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
from wptsim.harness import config_from_mapping
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
    @example(2**64 + 5, [0, 8, 4, 1, 17])
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

    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
    def test_rejects_a_bool_component(self, flag):
        # As in the count rule, derive_seed(True, 0) is not derive_seed(1, 0).
        for path in ((flag, 0), (0, flag), (7, 1, flag)):
            with pytest.raises(ValueError, match="must be non-negative integers"):
                derive_seed(*path)


def per_index_units(shape, noise_seed):
    """One `complex_normal(make_rng(seed))` draw per leading index."""
    index_seeds = np.array(noise_seed, dtype=object)
    unit = np.empty(shape, dtype=np.complex128)
    for index in np.ndindex(index_seeds.shape):
        unit[index] = complex_normal(
            make_rng(index_seeds[index]), shape[index_seeds.ndim :]
        )
    return unit


def per_index_reference(h, noise_seed, cfg):
    """h plus sqrt(noise_variance) times `per_index_units`."""
    return h + np.sqrt(cfg.noise_variance) * per_index_units(h.shape, noise_seed)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def estimate_inputs(draw):
    """A channel of any scale with exact (signed) zero components, seeds for
    its leading axes, and a noise variance from 0 to 1e300 (the sum stays
    finite)."""
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
    scale = draw(st.one_of(st.just(1.0), log_uniform(-300, 300)))
    h = np.empty(shape, dtype=np.complex128)
    for part in (h.real, h.imag):
        part[...] = scale * rng.standard_normal(shape)
        zero = rng.random(shape) < 0.3
        part[zero] = np.copysign(0.0, rng.standard_normal(shape))[zero]
    cfg = CsiConfig(
        noise_variance=draw(
            st.one_of(st.sampled_from([0.0, 0.25]), log_uniform(-300, 300))
        ),
    )
    return h, noise_seed, cfg


class TestLsEstimate:
    @settings(max_examples=200, deadline=None)
    @given(estimate_inputs())
    def test_equals_per_index_reference(self, inputs):
        # Bit for bit, signed zeros included, for scalar and block seeds.
        h, noise_seed, cfg = inputs
        expected = per_index_reference(h, noise_seed, cfg)
        estimate = ls_estimate(h, noise_seed, cfg)
        assert np.array_equal(estimate.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(estimate_inputs())
    def test_unit_pilot_keeps_the_old_pilot_form(self, inputs):
        # The removed pilot_amplitude was 1 wherever it was used, and the
        # estimate was (p * h + noise) / p with p = 1 + 0j.  Its values are
        # kept; only with no noise can the sign of an exact zero differ.
        h, noise_seed, cfg = inputs
        unit = per_index_units(h.shape, noise_seed)
        pilot = complex(1.0)
        old = (pilot * h + np.sqrt(cfg.noise_variance) * unit) / pilot
        estimate = ls_estimate(h, noise_seed, cfg)
        assert np.array_equal(estimate, old)
        if cfg.noise_variance > 0.0:
            assert np.array_equal(estimate.view(np.uint64), old.view(np.uint64))

    def test_uint64_seed_array(self):
        h = np.ones((2, 3, 2), dtype=np.complex128)
        noise_seed = np.array([2**64 - 1, 2**32], dtype=np.uint64)
        assert np.array_equal(
            ls_estimate(h, noise_seed, CFG),
            per_index_reference(h, noise_seed.tolist(), CFG),
        )

    @pytest.mark.parametrize(
        "noise_seed",
        [-1, 2**64, 1.5, 1.0, "3", None, [1, -1], [1, 2.0], True, [True], [np.True_]],
    )
    def test_rejects_seed_outside_range_naming_it(self, noise_seed):
        shape = np.shape(noise_seed) + (1, 1)
        with pytest.raises(ValueError, match="noise_seed"):
            ls_estimate(np.ones(shape), noise_seed, CFG)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(components, min_size=1, max_size=5))
    def test_accepts_every_derived_seed(self, path):
        seed = derive_seed(*path)
        assert seed_array(seed, "noise_seed") == seed
        ls_estimate(np.ones((1, 1)), seed, CFG)


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
        if batch.ndim == 0:
            assert np.array_equal(unit_normals(int(batch), shape), expected)

    def test_threads_get_the_serial_draws(self):
        # Every draw re-keys one Philox under its lock, so threads
        # interleaving scalar and block draws get what serial calls get.
        tasks = [(seed, (3, 2)) for seed in EDGE_SEEDS]
        tasks += [(EDGE_SEEDS[:k], (k, 2)) for k in range(1, 7)]
        expected = [unit_normals(*task) for task in tasks]
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=60)
        mismatches, finished = [], []

        def draw(order):
            start.wait()
            for _ in range(50):
                for i in order:
                    if not np.array_equal(unit_normals(*tasks[i]), expected[i]):
                        mismatches.append(i)
            finished.append(order)

        # Each thread draws every task, starting at a different one.
        indices = list(range(len(tasks)))
        orders = [indices[3 * k :] + indices[: 3 * k] for k in range(n_threads)]
        threads = [threading.Thread(target=draw, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == n_threads
        assert mismatches == []


class TestOneTapFlat:
    def test_flat_model_is_one_zero_delay_tap(self):
        flat = ChannelModel(n_taps=1, delay_spread=1e-6)
        assert np.array_equal(flat.tap_delays(), [0.0])
        assert np.array_equal(flat.tap_powers(), [1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        delay_spread=st.floats(0.0, 2e-6),
        pdp_decay=st.floats(0.0, 1e8),
        n_tones=st.integers(1, 16),
        m_antennas=st.integers(1, 8),
        seed=seeds,
    )
    def test_flat_equals_single_tap_draw(
        self, delay_spread, pdp_decay, n_tones, m_antennas, seed
    ):
        # channel_kind = frequency_flat is parsed as n_taps = 1.
        profile = dict(delay_spread=delay_spread, pdp_decay=pdp_decay)
        flat = config_from_mapping(
            {"channel_kind": "frequency_flat"}
            | {key: repr(value) for key, value in profile.items()}
        ).channel_model
        assert flat == ChannelModel(n_taps=1, **profile)
        grid = ToneGrid.for_band(n_tones)
        a = sample_channel(flat, grid, m_antennas, seed, distance=2.0)
        row = complex_normal(make_rng(seed), (1, m_antennas))
        assert np.array_equal(a.h, np.repeat(row, n_tones, axis=0))


# A bool follows the count rule: it is not an integer seed, so True never
# stands in for 1.
BAD_SEEDS = [-1, 2**64, 2**70, 1.5, 2.0, np.float64(3.0), "3", None,
             True, False, np.True_, np.array(True)]

# draw function -> call with one seed, or with a list of one seed per block
SEEDED_DRAWS = {
    "unit_normals": lambda seed: unit_normals(seed, (1,)),
    "sample_channel": lambda seed: sample_channel(
        ChannelModel(), ToneGrid.for_band(2), 1, seed
    ),
    "ls_estimate": lambda seed: ls_estimate(np.ones(np.shape(seed) + (1, 1)), seed, CFG),
}


class TestOneSeedContract:
    @pytest.mark.parametrize("draw", sorted(SEEDED_DRAWS))
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_scalar_and_list_are_rejected_alike(self, draw, seed):
        messages = []
        for given_seed in (seed, [seed]):
            with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*64\)") as info:
                SEEDED_DRAWS[draw](given_seed)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(7), np.int8(3)])
    def test_scalar_and_list_accept_alike(self, seed):
        expected = complex_normal(make_rng(int(seed)), (2,))
        assert np.array_equal(unit_normals(seed, (2,)), expected)
        assert np.array_equal(unit_normals([seed], (2,)), expected[None])


def test_import_and_config_leave_numpy_random_unloaded():
    # The shared Philox is built on the first draw, so loading the package,
    # parsing and validating a config never import numpy.random.
    code = (
        "import sys, wptsim.cli\n"
        "from wptsim.harness import config_from_mapping\n"
        "config_from_mapping({'tones': '1,8', 'realizations': '10'}).validate()\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(wptsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
