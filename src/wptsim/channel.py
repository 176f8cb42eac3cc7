"""MISO fading channels: power-law path loss and seeded frequency responses.

Two small-scale models are provided.  `frequency_flat` draws one CN(0, 1)
coefficient per antenna and repeats it on every tone.  `tapped_delay` builds
the response from L taps at fixed delays with an exponential power-delay
profile, which makes tones decorrelate as the delay spread grows while each
tone stays CN(0, 1).

Sampling is deterministic: a realization is a pure function of the model,
grid, antenna count, and an integer seed.  Independent seeds for large
ensembles come from `derive_seed`, a counter-style split of one master seed,
so ensembles are reproducible no matter how the work is scheduled.
"""

from __future__ import annotations

import csv
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


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for the stream identified by `path`.

    All path components must be non-negative integers.  Distinct paths give
    independent streams, so parallel and serial ensemble runs coincide.
    """
    entropy = [int(master_seed), *[int(p) for p in path]]
    if any(e < 0 for e in entropy):
        raise ValueError("seed path components must be non-negative")
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) draws: unit-variance circularly symmetric complex Gaussians."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


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
        if self.delay_spread < 0:
            raise ValueError("delay_spread must be >= 0")
        if self.pdp_decay < 0:
            raise ValueError("pdp_decay must be >= 0")
        if not self.path_loss_ref > 0:
            raise ValueError("path_loss_ref must be positive")
        if not self.path_loss_exponent > 0:
            raise ValueError("path_loss_exponent must be positive")

    def tap_delays(self) -> np.ndarray:
        """Tap delays in seconds, uniformly spaced over the delay spread."""
        if self.n_taps == 1:
            return np.zeros(1)
        return np.linspace(0.0, self.delay_spread, self.n_taps)

    def tap_powers(self) -> np.ndarray:
        """Exponential power-delay profile normalized to unit total power."""
        p = np.exp(-self.pdp_decay * self.tap_delays())
        return p / p.sum()


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the frequency response: h[n, m] for tone n, antenna m."""

    h: np.ndarray
    path_loss: float
    distance: float

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=np.complex128)
        if h.ndim != 2:
            raise ValueError("h must be a 2-D (n_tones x m_antennas) matrix")
        if h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError("h must have at least one tone and one antenna")
        if not np.all(np.isfinite(h)):
            raise ValueError("h entries must be finite")
        if not self.path_loss > 0:
            raise ValueError("path_loss must be positive")
        if not self.distance > 0:
            raise ValueError("distance must be positive")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n_tones(self) -> int:
        return self.h.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.h.shape[1]

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


def sample_channel(
    model: ChannelModel,
    grid: ToneGrid,
    m_antennas: int,
    seed: int,
    distance: float = 1.0,
) -> ChannelRealization:
    """Draw one channel realization; a pure function of its arguments.

    frequency_flat: one CN(0, 1) per antenna shared by all tones.
    tapped_delay:   h[n, m] = sum_l alpha[l, m] exp(-j 2 pi f_n tau_l) with
    alpha[l, m] ~ CN(0, p_l) and p the unit-sum exponential profile, so each
    tone is CN(0, 1) and cross-tone correlation shrinks with delay spread.
    """
    if m_antennas < 1:
        raise ValueError("m_antennas must be >= 1")
    rng = make_rng(seed)
    if model.kind == FREQUENCY_FLAT:
        g = complex_normal(rng, (1, m_antennas))
        h = np.broadcast_to(g, (grid.n_tones, m_antennas)).copy()
    else:
        profile = model.tap_powers()
        alpha = complex_normal(rng, (model.n_taps, m_antennas))
        alpha *= np.sqrt(profile)[:, None]
        steering = np.exp(-2j * np.pi * np.outer(grid.frequencies, model.tap_delays()))
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
