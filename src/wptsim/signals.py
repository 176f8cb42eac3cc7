"""Multisine MISO transmit signals: tone grids, precoder weights, synthesis.

Everything downstream works on per-tone complex amplitudes.  Real passband
waveforms are only materialized through `synthesize_tx` / `received_signal`,
mainly so that time-domain averages can cross-check the analytic power and
rectifier expressions.

Weight matrices are array-first: ``w`` has shape ``(..., n_tones,
m_antennas)``, and any leading axes index independent realizations.  A 2-D
matrix is the batch of one; per-realization quantities then come back as a
float instead of an array.  Waveform synthesis and the file codecs take a
single realization only.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .channel import ChannelRealization

DEFAULT_F0 = 2.4e9
DEFAULT_BAND_LIMIT = 10e6


@dataclass(frozen=True)
class ToneGrid:
    """Evenly spaced tone comb: tone n sits at ``f0 + n * delta_f`` Hz.

    `f0` and `delta_f` are positive and finite.  The occupied bandwidth
    ``(n_tones - 1) * delta_f`` may not exceed `band_limit`, which is
    positive and may be inf.
    """

    f0: float
    delta_f: float
    n_tones: int
    band_limit: float = DEFAULT_BAND_LIMIT

    def __post_init__(self) -> None:
        if self.n_tones < 1:
            raise ValueError("n_tones must be >= 1")
        for name in ("f0", "delta_f"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.band_limit > 0:
            raise ValueError("band_limit must be positive")
        occupied = (self.n_tones - 1) * self.delta_f
        if occupied > self.band_limit:
            raise ValueError(
                f"occupied bandwidth {occupied:g} Hz exceeds the "
                f"{self.band_limit:g} Hz band limit"
            )

    @property
    def frequencies(self) -> np.ndarray:
        """Tone frequencies in Hz, shape (n_tones,)."""
        return self.f0 + self.delta_f * np.arange(self.n_tones)

    @classmethod
    def for_band(
        cls,
        n_tones: int,
        f0: float = DEFAULT_F0,
        band_limit: float = DEFAULT_BAND_LIMIT,
    ) -> "ToneGrid":
        """Grid whose tones evenly fill the available band."""
        delta_f = band_limit / (n_tones - 1) if n_tones > 1 else band_limit
        return cls(f0=f0, delta_f=delta_f, n_tones=n_tones, band_limit=band_limit)

    def single_tone(self) -> "ToneGrid":
        """One-tone grid sharing this grid's base frequency and spacing."""
        return ToneGrid(self.f0, self.delta_f, 1, self.band_limit)


def per_realization(values):
    """A float for a single realization, else the array of per-realization values."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


def require_single(matrix: np.ndarray, core_ndim: int = 2) -> None:
    """Reject a batch where only a single realization is supported."""
    if matrix.ndim != core_ndim:
        raise ValueError(
            f"expected a single realization, got a batch of shape "
            f"{matrix.shape[:-core_ndim]}"
        )


@dataclass(frozen=True)
class PrecoderWeights:
    """Per-tone, per-antenna complex amplitudes of the transmit multisine.

    ``w[..., n, m]`` is the complex amplitude of tone n at antenna m; the
    average radiated power of a realization is ``sum(|w|^2) / 2``.
    Instances are immutable: the weight array is stored read-only so
    realizations can be shared freely.
    """

    w: np.ndarray
    grid: ToneGrid

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=np.complex128)
        if w.ndim < 2:
            raise ValueError("w must be at least 2-D: (..., n_tones, m_antennas)")
        if w.shape[-2] != self.grid.n_tones:
            raise ValueError(
                f"w has {w.shape[-2]} rows but the grid has "
                f"{self.grid.n_tones} tones"
            )
        if w.shape[-1] < 1:
            raise ValueError("w must have at least one antenna column")
        if not np.all(np.isfinite(w)):
            raise ValueError("w entries must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n_tones(self) -> int:
        return self.w.shape[-2]

    @property
    def m_antennas(self) -> int:
        return self.w.shape[-1]


def _as_time_axis(t) -> tuple[np.ndarray, bool]:
    """Coerce t to a 1-D float array; report whether the input was scalar."""
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite")
    scalar = t_arr.ndim == 0
    return np.atleast_1d(t_arr), scalar


def synthesize_tx(weights: PrecoderWeights, t):
    """Real transmit signal per antenna at time(s) t.

    x_m(t) = Re sum_n w[n, m] exp(j 2 pi f_n t).  Scalar t returns shape
    (m_antennas,); a 1-D array of times returns (len(t), m_antennas).
    """
    require_single(weights.w)
    t_arr, scalar = _as_time_axis(t)
    phases = np.exp(2j * np.pi * np.outer(t_arr, weights.grid.frequencies))
    x = (phases @ weights.w).real
    return x[0] if scalar else x


def tx_power(weights: PrecoderWeights):
    """Per-realization average transmit power sum(|w|^2) / 2."""
    return per_realization(np.sum(np.abs(weights.w) ** 2, axis=(-2, -1)) / 2.0)


def normalize_power(weights: PrecoderWeights, p: float) -> PrecoderWeights:
    """Rescale each realization (positive scalar multiple) so tx_power equals p."""
    if not p > 0:
        raise ValueError("p must be positive")
    current = np.asarray(tx_power(weights))
    if np.any(current == 0.0):
        raise ValueError("cannot normalize an all-zero weight matrix")
    scale = np.sqrt(p / current)[..., None, None]
    return PrecoderWeights(weights.w * scale, weights.grid)


def received_signal(weights: PrecoderWeights, channel: "ChannelRealization", t):
    """Real received signal through a channel realization at time(s) t.

    y(t) = Re sum_n path_loss^{-1/2} (h_n . w_n) exp(j 2 pi f_n t), where
    h_n . w_n sums over antennas.  Scalar t returns a float.
    """
    require_single(weights.w)
    if channel.h.shape != weights.w.shape:
        raise ValueError(
            f"channel dimensions {channel.h.shape} do not match weight "
            f"dimensions {weights.w.shape}"
        )
    amps = np.sum(channel.h * weights.w, axis=1) / math.sqrt(channel.path_loss)
    t_arr, scalar = _as_time_axis(t)
    phases = np.exp(2j * np.pi * np.outer(t_arr, weights.grid.frequencies))
    y = (phases @ amps).real
    return float(y[0]) if scalar else y


def read_field(record, key: str, kind: type = float, default=None):
    """record[key] as a float or an int, from a JSON value or CSV text.

    Raises ValueError naming the key in place of KeyError or TypeError, and
    for a fraction or a boolean where an integer is asked for.
    """
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object holding {key!r}")
    value = record.get(key, default)
    if value is None:
        raise ValueError(f"{key!r} is missing")
    try:
        if kind is float:
            return float(value)
        if not isinstance(value, bool):
            return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "a number" if kind is float else "an integer"
    raise ValueError(f"{key!r} must be {expected}, got {value!r:.40}")


def entries_to_json(matrix: np.ndarray) -> list[dict]:
    """One {tone, antenna, real, imag} entry per element, in row-major order."""
    require_single(matrix)
    return [
        {"tone": n, "antenna": m, "real": float(v.real), "imag": float(v.imag)}
        for (n, m), v in np.ndenumerate(matrix)
    ]


def entries_from_json(entries, n_tones=None, m_antennas=None) -> np.ndarray:
    """Inverse of `entries_to_json`; a dimension given as None is 1 + its largest index.

    Indices must be integers in range, values finite, and there must be
    exactly one entry per (tone, antenna).  The count is checked before the
    matrix is allocated, so no declared dimension can exhaust memory.
    """
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a non-empty list")
    parsed = []
    for i, entry in enumerate(entries):
        try:
            n, m = read_field(entry, "tone", int), read_field(entry, "antenna", int)
            value = complex(read_field(entry, "real"), read_field(entry, "imag"))
            if not cmath.isfinite(value):
                raise ValueError("'real' and 'imag' must be finite")
        except ValueError as exc:
            raise ValueError(f"entries[{i}]: {exc}") from None
        parsed.append((n, m, value))
    n_tones = 1 + max(p[0] for p in parsed) if n_tones is None else n_tones
    m_antennas = 1 + max(p[1] for p in parsed) if m_antennas is None else m_antennas
    if len(parsed) != n_tones * m_antennas:
        problem = "missing" if len(parsed) < n_tones * m_antennas else "extra"
        shape = f"{n_tones} tones x {m_antennas} antennas"
        raise ValueError(f"'entries': {problem} entries, {len(parsed)} for {shape}")
    matrix = np.zeros((n_tones, m_antennas), dtype=np.complex128)
    seen = np.zeros(matrix.shape, dtype=bool)
    for i, (n, m, value) in enumerate(parsed):
        if not (0 <= n < n_tones and 0 <= m < m_antennas):
            raise ValueError(f"entries[{i}]: index ({n}, {m}) out of range")
        if seen[n, m]:
            raise ValueError(f"entries[{i}]: duplicate entry for ({n}, {m})")
        matrix[n, m], seen[n, m] = value, True
    return matrix


def weights_to_json(weights: PrecoderWeights) -> dict:
    """JSON-ready dict form of a weight matrix, grid included."""
    return {
        "f0": weights.grid.f0,
        "delta_f": weights.grid.delta_f,
        "n_tones": weights.grid.n_tones,
        "band_limit": weights.grid.band_limit,
        "entries": entries_to_json(weights.w),
    }


def weights_from_json(data: dict) -> PrecoderWeights:
    """Inverse of `weights_to_json`; the antenna count comes from the entries."""
    grid = ToneGrid(
        f0=read_field(data, "f0"),
        delta_f=read_field(data, "delta_f"),
        n_tones=read_field(data, "n_tones", int),
        band_limit=read_field(data, "band_limit", default=DEFAULT_BAND_LIMIT),
    )
    return PrecoderWeights(entries_from_json(data.get("entries"), grid.n_tones), grid)


def save_weights(weights: PrecoderWeights, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weights_to_json(weights), fh, indent=2)
        fh.write("\n")


def load_weights(path: str) -> PrecoderWeights:
    with open(path, "r", encoding="utf-8") as fh:
        return weights_from_json(json.load(fh))
