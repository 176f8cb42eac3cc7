"""MISO fading channels: power-law path loss and seeded frequency responses.

One small-scale model: a tapped-delay line of `n_taps` taps at fixed delays
with an exponential power-delay profile, which makes tones decorrelate as
the delay spread grows while each tone stays CN(0, 1).  `n_taps = 1` is the
frequency-flat channel: a single tap at zero delay, so one CN(0, 1)
coefficient per antenna is shared by every tone.

Sampling is deterministic: a realization is a pure function of the model,
grid, antenna count, and an integer seed.  Independent seeds for large
ensembles come from `derive_seed`, a counter-style split of one master seed,
so ensembles are reproducible no matter how the work is scheduled.  Every
seeded CN(0, 1) draw, channel taps and CSI noise alike, goes through
`unit_normals`, which re-keys one Philox per process for each seed instead
of building a generator per seed.  A single seed is the batch of one: it
takes the same key, fill and assembly steps as a block of seeds.
`make_rng` and `complex_normal` stay as the reference definitions it
reproduces bit for bit.

A realization is its response `h` and its path loss: distance enters only
through `path_loss`.  It is stored as a matrix document headed by
`path_loss` (`save_channel`, `load_channel`), which replays it bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .signals import ToneGrid, frozen_complex, integer_at_least, load_json, read_field
from .signals import matrix_from_json, matrix_to_json, positive_finite, save_json

DEFAULT_PATH_LOSS_REF = 263.0
DEFAULT_PATH_LOSS_EXPONENT = 1.55


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one realization stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


_MASK32 = 0xFFFFFFFF


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for the stream identified by `path`.

    The first 64-bit word of `SeedSequence([master_seed, *path])`, so a
    seed in [0, 2**64).  All path components must be non-negative integers,
    and a bool is not one.
    Distinct paths of one length give independent streams, so parallel and
    serial ensemble runs coincide.  Paths of different lengths can collide:
    numpy pads entropy shorter than four 32-bit words with zeros, so `(s,)`
    and `(s, 0)` give the same seed.

    The entropy is passed as the uint32 words numpy's own coercion builds
    (each int little-endian, 0 as one word): the same pool without numpy's
    per-int conversion.
    """
    words = []
    for e in (master_seed, *path):
        try:
            e = -1 if type(e) is bool else operator.index(e)
        except TypeError:
            e = -1  # not an integer: rejected below
        if e < 0:
            raise ValueError("seed path components must be non-negative integers")
        words.append(e & _MASK32)
        e >>= 32
        while e:
            words.append(e & _MASK32)
            e >>= 32
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    # generate_state(1, np.uint64) is these two words, low word first.
    lo, hi = ss.generate_state(2).tolist()
    return lo | hi << 32


def seed_array(seeds, name: str = "seeds") -> np.ndarray:
    """`seeds` as a uint64 array; ValueError naming `name` unless every
    entry is an integer in [0, 2**64) other than a bool."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    values = np.array(seeds, dtype=object)
    if not all(
        isinstance(s, (int, np.integer)) and not isinstance(s, bool) and 0 <= s < 2**64
        for s in values.flat
    ):
        raise ValueError(f"{name} must hold integers in [0, 2**64)")
    return values.astype(np.uint64)


# numpy's SeedSequence hash (bit_generator.pyx): a pool of four uint32
# words, hashmix constants drawn from the INIT/MULT recurrences, which never
# depend on the data.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 4)


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of `make_rng(s)` for every seed s, shape seeds.shape + (2,).

    Equals `SeedSequence(s).generate_state(2, np.uint64)` bit for bit, with
    the hash run once over the whole array in wrapping uint32 arithmetic.
    A seed below 2**64 is at most two entropy words, and numpy fills the
    rest of its four-word pool with hashed zeros, so every seed takes the
    same steps and no masking is needed.  A Philox holding such a key
    with a zero counter and an empty buffer (buffer_pos 4) replays the
    stream of `make_rng(s)`.
    """
    seeds = seed_array(seeds)
    flat = seeds.reshape(-1)
    pool = np.zeros((4, flat.size), dtype=np.uint32)
    pool[0] = flat & _MASK32
    pool[1] = flat >> 32
    pool ^= _HASH_A[:4]
    pool *= _HASH_A[1:5]
    pool ^= pool >> 16
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = (pool[src] ^ _HASH_A[k : k + 3]) * _HASH_A[k + 1 : k + 4]
        hashed ^= hashed >> 16
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        pool[dst] = mixed
        k += 3
    pool ^= _HASH_B[:4]
    pool *= _HASH_B[1:5]
    pool ^= pool >> 16
    words = pool.astype(np.uint64)
    keys = words[0::2] | words[1::2] << 32
    return keys.T.reshape(seeds.shape + (2,))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) draws: unit-variance circularly symmetric complex Gaussians."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


_SQRT2 = math.sqrt(2.0)


def _complex_unit(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + 1j * im) / sqrt(2), the arithmetic of `complex_normal`, in one
    complex buffer."""
    z = np.multiply(1j, im)
    z += re
    z /= _SQRT2
    return z


@functools.cache
def _philox() -> tuple:
    """The process's one re-keyed Philox, its Generator and the state dict a
    re-key writes: a zero counter and an empty buffer (buffer_pos 4).

    Built on the first draw, so importing the package does not import
    numpy.random.
    """
    bitgen = np.random.Philox(0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen, np.random.Generator(bitgen), state


def unit_normals(seeds, shape) -> np.ndarray:
    """CN(0, 1) draws of shape seeds.shape + shape, one block per seed.

    The block a seed s indexes equals `complex_normal(make_rng(s), shape)`
    bit for bit: the real parts, then the imaginary parts, of the stream of
    a Philox keyed `SeedSequence(s).generate_state(2, np.uint64)` with a
    zero counter and an empty buffer.  Seeds must be integers in
    [0, 2**64), scalar or not, as `seed_array` checks.

    Every seed re-keys the same per-process Philox instead of building a
    SeedSequence, a Philox and a Generator of its own.  One seed, scalar or
    a batch of one, takes its key from numpy's SeedSequence, about ten times
    cheaper than the block hash on one seed; more seeds take theirs from
    `philox_keys`, one hash over the whole block.  The re-keys and draws run
    under the bit generator's lock (an RLock, which the draw itself takes
    again), so threads never interleave them.
    """
    # An in-range Python int, the per-realization caller's seed, skips
    # seed_array's ~3 us; a bool, an int subclass, goes there to be rejected.
    if type(seeds) is int and 0 <= seeds < 2**64:
        batch, flat = (), [seeds]
    else:
        seeds = seed_array(seeds)
        batch, flat = seeds.shape, seeds.reshape(-1)
    if len(flat) == 1:
        # As in derive_seed, numpy's hash takes uint32 words (a seed below
        # 2**32 pads to the same pool), and the key is built from four words
        # rather than by generate_state(2, np.uint64): both are cheaper.
        seed = int(flat[0])
        entropy = np.array([seed & _MASK32, seed >> 32], dtype=np.uint32)
        words = np.random.SeedSequence(entropy).generate_state(4).tolist()
        keys = [[words[0] | words[1] << 32, words[2] | words[3] << 32]]
    else:
        keys = philox_keys(flat).tolist()
    shape = tuple(shape)
    draws = np.empty((len(flat), 2, *shape))
    bitgen, rng, state = _philox()
    stream = state["state"]
    with bitgen.lock:
        for key, out in zip(keys, draws):
            stream["key"] = key
            bitgen.state = state
            rng.standard_normal(out=out)
    return _complex_unit(draws[:, 0], draws[:, 1]).reshape(batch + shape)


@dataclass(frozen=True)
class ChannelModel:
    """Statistical channel description plus the large-scale power law.

    `path_loss_ref` is the linear attenuation at 1 m.  The default of 263
    (~24 dB) is free-space loss at 1 m in the 2.4 GHz band less 8 dBi of
    directional gain at each end, which puts simulated received powers at a
    desk-scale operating point.
    """

    n_taps: int = 8
    delay_spread: float = 150e-9
    pdp_decay: float = 5e6
    path_loss_ref: float = DEFAULT_PATH_LOSS_REF
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT

    def __post_init__(self) -> None:
        integer_at_least(1, n_taps=self.n_taps)
        for name in ("delay_spread", "pdp_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        positive_finite(
            path_loss_ref=self.path_loss_ref,
            path_loss_exponent=self.path_loss_exponent,
        )

    def tap_delays(self) -> np.ndarray:
        """Tap delays in seconds, uniformly spaced over the delay spread."""
        return np.linspace(0.0, self.delay_spread, self.n_taps)

    def tap_powers(self) -> np.ndarray:
        """Exponential power-delay profile normalized to unit total power.

        A decay times delay beyond float range is -inf, whose exp is the
        same 0 as that of any product beyond about 745.
        """
        with np.errstate(over="ignore"):
            p = np.exp(-self.pdp_decay * self.tap_delays())
        return p / p.sum()


@dataclass(frozen=True)
class ChannelRealization:
    """Frequency response h[..., n, m] for tone n, antenna m.

    Leading axes of `h` index independent realizations that share one path
    loss; a 2-D `h` is a single realization.
    """

    h: np.ndarray
    path_loss: float

    def __post_init__(self) -> None:
        h = frozen_complex(self.h, "h", ("n_tones", "m_antennas"))
        if h.shape[-2] < 1 or h.shape[-1] < 1:
            raise ValueError("h must have at least one tone and one antenna")
        positive_finite(path_loss=self.path_loss)
        object.__setattr__(self, "h", h)

    @property
    def n_tones(self) -> int:
        return self.h.shape[-2]

    @property
    def m_antennas(self) -> int:
        return self.h.shape[-1]

    @property
    def phases(self) -> np.ndarray:
        return np.angle(self.h)


def path_loss(model: ChannelModel, distance: float) -> float:
    """Large-scale attenuation ref * d^exponent; errors on a distance that is
    not positive and finite and on a result that over- or underflows."""
    positive_finite(distance=distance)
    try:
        loss = model.path_loss_ref * float(distance) ** model.path_loss_exponent
    except OverflowError:
        loss = math.inf
    if not 0 < loss < math.inf:
        raise ValueError(
            f"path loss path_loss_ref * distance**path_loss_exponent = "
            f"{model.path_loss_ref:g} * {distance:g}**{model.path_loss_exponent:g} "
            "is not positive and finite"
        )
    return loss


def check_steering(model: ChannelModel, grid: ToneGrid) -> None:
    """Reject a delay spread whose steering phase 2 pi f tau, as computed,
    is not finite on `grid`.

    The largest phase is that of the top tone and the last tap, which sits
    at the delay spread (a one-tap channel has only the zero delay).
    """
    top_tone = grid.f0 + grid.delta_f * (grid.n_tones - 1)
    last_delay = model.delay_spread if model.n_taps > 1 else 0.0
    if not math.isfinite(2.0 * math.pi * (top_tone * last_delay)):
        raise ValueError(
            f"delay_spread: the steering phase 2*pi*f*tau of the top tone "
            f"f = {top_tone:g} Hz at tau = delay_spread = {last_delay:g} s "
            "is not finite"
        )


@functools.lru_cache(maxsize=64)
def _tap_response(model: ChannelModel, grid: ToneGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tap amplitudes sqrt(p_l), shape (L, 1), and steering
    matrix exp(-j 2 pi f_n tau_l), shape (N, L), of a channel model on a
    grid passing `check_steering`."""
    check_steering(model, grid)
    amplitudes = np.sqrt(model.tap_powers())[:, None]
    steering = np.exp(-2j * np.pi * np.outer(grid.frequencies, model.tap_delays()))
    amplitudes.flags.writeable = False
    steering.flags.writeable = False
    return amplitudes, steering


def sample_channel(
    model: ChannelModel,
    grid: ToneGrid,
    m_antennas: int,
    seed: int,
    distance: float = 1.0,
) -> ChannelRealization:
    """Draw one channel realization; a pure function of its arguments.

    h[n, m] = sum_l alpha[l, m] exp(-j 2 pi f_n tau_l) with
    alpha[l, m] ~ CN(0, p_l) and p the unit-sum exponential profile, so each
    tone is CN(0, 1) and cross-tone correlation shrinks with delay spread.
    A one-tap model has tau = 0, p = 1: one CN(0, 1) per antenna shared by
    all tones.
    """
    integer_at_least(1, m_antennas=m_antennas)
    amplitudes, steering = _tap_response(model, grid)
    alpha = unit_normals(seed, (amplitudes.shape[0], m_antennas))
    alpha *= amplitudes
    h = steering @ alpha
    return ChannelRealization(h=h, path_loss=path_loss(model, distance))


def channel_to_json(channel: ChannelRealization) -> dict:
    """The matrix document of `h` headed by `path_loss`, floats at full precision."""
    return matrix_to_json(channel.h, path_loss=channel.path_loss)


def channel_from_json(data: dict) -> ChannelRealization:
    """Inverse of `channel_to_json`; other keys, such as the `distance` that
    older versions wrote, are ignored."""
    return ChannelRealization(matrix_from_json(data), read_field(data, "path_loss"))


def save_channel(channel: ChannelRealization, path: str) -> None:
    """Write the JSON of `channel_to_json`, whatever the extension of `path`."""
    save_json(channel_to_json(channel), path)


def load_channel(path: str) -> ChannelRealization:
    """Inverse of `save_channel`.  A file that is not UTF-8 JSON, such as a
    channel CSV of older versions, is rejected naming `path` (`load_json`)."""
    return channel_from_json(load_json(path, "channel"))
