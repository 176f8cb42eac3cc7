"""MISO fading channels: power-law path loss and seeded frequency responses.

Two small-scale models are provided.  `tapped_delay` builds the response
from L taps at fixed delays with an exponential power-delay profile, which
makes tones decorrelate as the delay spread grows while each tone stays
CN(0, 1).  `frequency_flat` is its one-tap case: a single tap at zero delay,
so one CN(0, 1) coefficient per antenna is shared by every tone.

Sampling is deterministic: a realization is a pure function of the model,
grid, antenna count, and an integer seed.  Independent seeds for large
ensembles come from `derive_seed`, a counter-style split of one master seed,
so ensembles are reproducible no matter how the work is scheduled.  Every
seeded CN(0, 1) draw, channel taps and CSI noise alike, goes through
`unit_normals`.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np

from .signals import ToneGrid, entries_from_json, entries_to_json, read_field

FREQUENCY_FLAT = "frequency_flat"
TAPPED_DELAY = "tapped_delay"
CHANNEL_KINDS = (FREQUENCY_FLAT, TAPPED_DELAY)

DEFAULT_PATH_LOSS_REF = 263.0
DEFAULT_PATH_LOSS_EXPONENT = 1.55

_CHANNEL_FIELDS = ["tone", "antenna", "real", "imag", "path_loss", "distance"]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one realization stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


_MASK32 = 0xFFFFFFFF


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for the stream identified by `path`.

    The first 64-bit word of `SeedSequence([master_seed, *path])`, so a
    seed in [0, 2**64).  All path components must be non-negative integers.
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
        e = int(e)
        if e < 0:
            raise ValueError("seed path components must be non-negative")
        words.append(e & _MASK32)
        e >>= 32
        while e:
            words.append(e & _MASK32)
            e >>= 32
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def seed_array(seeds, name: str = "seeds") -> np.ndarray:
    """`seeds` as a uint64 array; ValueError naming `name` unless every
    entry is an integer in [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    values = np.array(seeds, dtype=object)
    if not all(
        isinstance(s, (int, np.integer)) and 0 <= s < 2**64 for s in values.flat
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


def unit_normals(seeds, shape) -> np.ndarray:
    """CN(0, 1) draws of shape seeds.shape + shape, one block per seed.

    The block a seed s indexes equals `complex_normal(make_rng(s), shape)`
    bit for bit; a scalar seed is that definition itself.  For an array of
    seeds in [0, 2**64), one Philox is re-keyed per seed with the keys of
    `philox_keys`: a zero counter and an empty buffer replay the stream of
    `make_rng(s)`, real parts first, then imaginary parts.
    """
    # The isinstance test spares the per-realization caller np.ndim's ~2 us
    # on a Python int.
    if isinstance(seeds, int) or np.ndim(seeds) == 0:
        return complex_normal(make_rng(seeds), shape)
    keys = philox_keys(seeds)
    shape = tuple(shape)
    draws = np.empty(keys.shape[:-1] + (2,) + shape)
    blocks = draws.reshape((keys.size // 2, 2) + shape)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    stream = {"counter": [0, 0, 0, 0], "key": None}
    state = {
        "bit_generator": "Philox",
        "state": stream,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key, out in zip(keys.reshape(-1, 2).tolist(), blocks):
        stream["key"] = key
        bitgen.state = state
        rng.standard_normal(out=out)
    re, im = np.moveaxis(draws, keys.ndim - 1, 0)
    return (re + 1j * im) / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelModel:
    """Statistical channel description plus the large-scale power law.

    `path_loss_ref` is the linear attenuation at 1 m.  The default of 263
    (~24 dB) is free-space loss at 1 m in the 2.4 GHz band less 8 dBi of
    directional gain at each end, which puts simulated received powers at a
    desk-scale operating point.
    """

    kind: str = TAPPED_DELAY
    n_taps: int = 8
    delay_spread: float = 150e-9
    pdp_decay: float = 5e6
    path_loss_ref: float = DEFAULT_PATH_LOSS_REF
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"kind must be one of {CHANNEL_KINDS}")
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")
        for name in ("delay_spread", "pdp_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        for name in ("path_loss_ref", "path_loss_exponent"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    def tap_delays(self) -> np.ndarray:
        """Tap delays in seconds, uniformly spaced over the delay spread; a
        frequency-flat channel is one tap at zero delay."""
        if self.kind == FREQUENCY_FLAT:
            return np.zeros(1)
        return np.linspace(0.0, self.delay_spread, self.n_taps)

    def tap_powers(self) -> np.ndarray:
        """Exponential power-delay profile normalized to unit total power."""
        p = np.exp(-self.pdp_decay * self.tap_delays())
        return p / p.sum()


@dataclass(frozen=True)
class ChannelRealization:
    """Frequency response h[..., n, m] for tone n, antenna m.

    Leading axes of `h` index independent realizations that share one path
    loss and distance; a 2-D `h` is a single realization.
    """

    h: np.ndarray
    path_loss: float
    distance: float

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=np.complex128)
        if h.ndim < 2:
            raise ValueError("h must be at least 2-D: (..., n_tones, m_antennas)")
        if h.shape[-2] < 1 or h.shape[-1] < 1:
            raise ValueError("h must have at least one tone and one antenna")
        if not np.all(np.isfinite(h)):
            raise ValueError("h entries must be finite")
        for name in ("path_loss", "distance"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n_tones(self) -> int:
        return self.h.shape[-2]

    @property
    def m_antennas(self) -> int:
        return self.h.shape[-1]

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.h)

    @property
    def phases(self) -> np.ndarray:
        return np.angle(self.h)


def path_loss(model: ChannelModel, distance: float) -> float:
    """Large-scale attenuation ref * d^exponent; errors on d <= 0."""
    if not distance > 0:
        raise ValueError("distance must be positive")
    return model.path_loss_ref * distance**model.path_loss_exponent


@functools.lru_cache(maxsize=64)
def _tap_response(model: ChannelModel, grid: ToneGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tap amplitudes sqrt(p_l), shape (L, 1), and steering
    matrix exp(-j 2 pi f_n tau_l), shape (N, L), of a channel model."""
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
    A frequency-flat model has the one tap tau = 0, p = 1: one CN(0, 1) per
    antenna shared by all tones.
    """
    if m_antennas < 1:
        raise ValueError("m_antennas must be >= 1")
    amplitudes, steering = _tap_response(model, grid)
    alpha = unit_normals(seed, (amplitudes.shape[0], m_antennas))
    alpha *= amplitudes
    h = steering @ alpha
    return ChannelRealization(
        h=h, path_loss=path_loss(model, distance), distance=distance
    )


def channel_to_json(channel: ChannelRealization) -> dict:
    """JSON-ready dict form; floats carry full precision for exact replay."""
    return {
        "path_loss": channel.path_loss,
        "distance": channel.distance,
        "n_tones": channel.n_tones,
        "m_antennas": channel.m_antennas,
        "entries": entries_to_json(channel.h),
    }


def channel_from_json(data: dict) -> ChannelRealization:
    dims = read_field(data, "n_tones", int), read_field(data, "m_antennas", int)
    return ChannelRealization(
        h=entries_from_json(data.get("entries"), *dims),
        path_loss=read_field(data, "path_loss"),
        distance=read_field(data, "distance"),
    )


def save_channel_csv(channel: ChannelRealization, path: str) -> None:
    """Write `tone,antenna,real,imag,path_loss,distance` rows (full precision)."""
    tail = [format(channel.path_loss, ".17g"), format(channel.distance, ".17g")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CHANNEL_FIELDS)
        for e in entries_to_json(channel.h):
            parts = [format(e["real"], ".17g"), format(e["imag"], ".17g")]
            writer.writerow([e["tone"], e["antenna"], *parts, *tail])


def load_channel_csv(path: str) -> ChannelRealization:
    """Inverse of `save_channel_csv`; all rows share one path loss and distance."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _CHANNEL_FIELDS:
            raise ValueError(
                f"channel CSV must have header {','.join(_CHANNEL_FIELDS)}"
            )
        rows = list(reader)
    if not rows:
        raise ValueError("channel CSV holds no rows")
    for i, row in enumerate(rows):
        if None in row:
            raise ValueError(
                f"entries[{i}]: {len(row[None])} field(s) beyond "
                f"{','.join(_CHANNEL_FIELDS)}"
            )
    channel = ChannelRealization(
        h=entries_from_json(rows),
        path_loss=read_field(rows[0], "path_loss"),
        distance=read_field(rows[0], "distance"),
    )
    for i, row in enumerate(rows):
        for key in ("path_loss", "distance"):
            if read_field(row, key) != getattr(channel, key):
                raise ValueError(f"entries[{i}]: {key!r} differs from the first row")
    return channel


def save_channel(channel: ChannelRealization, path: str) -> None:
    """Write a channel file; the extension picks JSON (.json) or CSV."""
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(channel_to_json(channel), fh, indent=2)
            fh.write("\n")
    else:
        save_channel_csv(channel, path)


def load_channel(path: str) -> ChannelRealization:
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return channel_from_json(json.load(fh))
    return load_channel_csv(path)
