"""Multisine MISO transmit signals: tone grids, precoder weights, sampling.

Everything downstream works on per-tone complex amplitudes.  The one real
waveform is `period_samples`, one exact period of a comb, on which the
rectifier's time oracle and the transmit-power tests take time averages.

Weight matrices are array-first: ``w`` has shape ``(..., n_tones,
m_antennas)``, and any leading axes index independent realizations.  A 2-D
matrix is the batch of one; per-realization quantities then come back as a
float instead of an array.  Channel and weight files are one JSON matrix
document of a single realization (`matrix_to_json`, `matrix_from_json`).
Every CSV table the program reads or writes goes through `csv_text` and
`read_csv_entries`, and every text file it reads through `read_text`.
`positive_finite` checks every positive, finite setting, `integer_at_least`
every count, and `frozen_complex` builds every complex array a value class
holds.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

DEFAULT_F0 = 2.4e9
DEFAULT_BAND_LIMIT = 10e6

# Period sample counts above this are almost certainly a mistaken grid
# (f0 huge relative to delta_f) rather than a real verification request.
_MAX_ORACLE_SAMPLES = 1 << 26


def positive_finite(**values) -> None:
    """Raise ValueError "<name> must be positive and finite" for the first
    value, in the order given, outside (0, inf); nan is outside too."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def integer_at_least(minimum: int, **values) -> None:
    """Raise ValueError "<name> must be an integer >= <minimum>" for the first
    value, in the order given, that is a bool, not an integer or below it."""
    for name, value in values.items():
        is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (is_int and value >= minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}")


def frozen_complex(values, name: str, axes: tuple[str, ...]) -> np.ndarray:
    """A read-only complex128 copy of `values`; ValueError naming `name`
    unless it has at least one axis per name in `axes` (the trailing core
    axes) and finite entries."""
    array = np.array(values, dtype=np.complex128)
    if array.ndim < len(axes):
        raise ValueError(
            f"{name} must be at least {len(axes)}-D: (..., {', '.join(axes)})"
        )
    if not np.isfinite(array).all():
        raise ValueError(f"{name} entries must be finite")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ToneGrid:
    """Evenly spaced tone comb: tone n sits at ``f0 + n * delta_f`` Hz.

    `f0` and `delta_f` are positive and finite.  A band limit is an input to
    `for_band`, not part of the grid; the closed-form rectifier requires
    `rectifier.check_comb`.
    """

    f0: float
    delta_f: float
    n_tones: int

    def __post_init__(self) -> None:
        integer_at_least(1, n_tones=self.n_tones)
        positive_finite(f0=self.f0, delta_f=self.delta_f)

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
        """Grid whose tones evenly fill the band; the spacing steps down one ulp
        where the occupied bandwidth would round above `band_limit`."""
        integer_at_least(1, n_tones=n_tones)
        delta_f = band_limit / (n_tones - 1) if n_tones > 1 else band_limit
        if (n_tones - 1) * delta_f > band_limit:
            delta_f = math.nextafter(delta_f, 0.0)
        return cls(f0=f0, delta_f=delta_f, n_tones=n_tones)


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
        w = frozen_complex(self.w, "w", ("n_tones", "m_antennas"))
        if w.shape[-2] != self.grid.n_tones:
            raise ValueError(
                f"w has {w.shape[-2]} rows but the grid has "
                f"{self.grid.n_tones} tones"
            )
        if w.shape[-1] < 1:
            raise ValueError("w must have at least one antenna column")
        object.__setattr__(self, "w", w)

    @property
    def n_tones(self) -> int:
        return self.w.shape[-2]

    @property
    def m_antennas(self) -> int:
        return self.w.shape[-1]


def period_samples(grid: ToneGrid, amplitudes) -> np.ndarray:
    """Uniform samples of one period 1/delta_f of the multisine
    Re sum_n amplitudes[n] exp(j 2 pi f_n t), with f0 snapped to
    q0 = round(f0 / delta_f) harmonics of delta_f, so that tone n sits at
    (q0 + n) delta_f.

    It takes 8 (q0 + N) samples, the fewest on which the period averages of
    y^2 and y^4 are exact up to rounding; fewer would alias fourth-order
    products onto DC.  Those averages also need the comb rule on the snapped
    grid, N - 1 < 2 q0, or three-tone sums (or tone 0 itself) beat to DC.
    A grid breaking that rule, or needing more than `_MAX_ORACLE_SAMPLES`
    samples, raises ValueError before anything is allocated.

    Sample k of tone n has phase 2 pi ((q0 + n) k mod samples) / samples,
    reduced in integer arithmetic, so no phase grows with f0.  The first axis
    of `amplitudes` indexes the tones; the result has shape ``(samples,
    *amplitudes.shape[1:])``, one waveform per trailing index.
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape[:1] != (grid.n_tones,):
        raise ValueError(
            f"amplitudes of shape {amplitudes.shape} need a first axis of "
            f"{grid.n_tones}, the grid's tone count"
        )
    ratio = grid.f0 / grid.delta_f
    # An infinite ratio clamps to the cap, whose count is rejected next.
    q0 = round(min(ratio, _MAX_ORACLE_SAMPLES))
    samples = 8 * (q0 + grid.n_tones)
    if samples > _MAX_ORACLE_SAMPLES:
        raise ValueError(
            f"grid is too fine to sample exactly: f0 / delta_f = {ratio:g} "
            f"needs more than {_MAX_ORACLE_SAMPLES} samples"
        )
    if not grid.n_tones - 1 < 2 * q0:
        raise ValueError(
            f"f0 = {grid.f0:g} Hz snaps to q0 = {q0} harmonics of delta_f = "
            f"{grid.delta_f:g} Hz, and N = {grid.n_tones} tones need N - 1 < 2 q0"
        )
    k = np.arange(samples, dtype=np.int64)
    y = np.zeros((samples, *amplitudes.shape[1:]))
    for n in range(grid.n_tones):
        phase = np.exp(2j * np.pi * (((q0 + n) % samples) * k % samples) / samples)
        y += np.multiply.outer(phase, amplitudes[n]).real
    return y


def tx_power(weights: PrecoderWeights):
    """Per-realization average transmit power sum(|w|^2) / 2."""
    return per_realization(np.sum(np.abs(weights.w) ** 2, axis=(-2, -1)) / 2.0)


def read_field(record, key: str, kind: type = float):
    """record[key] as a float or an int, from a JSON value or CSV text.

    Raises ValueError naming the key in place of KeyError or TypeError, for
    a boolean, and for a fraction where an integer is asked for.
    """
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object holding {key!r}")
    value = record.get(key)
    if value is None:
        raise ValueError(f"{key!r} is missing")
    if not isinstance(value, bool):
        try:
            if kind is float:
                return float(value)
            return int(value) if isinstance(value, str) else operator.index(value)
        except (TypeError, ValueError, OverflowError):
            pass
    expected = "a number" if kind is float else "an integer"
    raise ValueError(f"{key!r} must be {expected}, got {value!r:.40}")


def csv_text(fields, rows) -> str:
    """CSV text: a header line of `fields`, then one line per row, "\\n"-ended."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(rows)
    return buf.getvalue()


def read_text(path: str, kind: str) -> str:
    """The text of the UTF-8 file at `path`, its line endings kept as written
    (``newline=""``, as `csv` needs).  A file that is not UTF-8 raises one
    ValueError naming `path` as not a `kind` file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path!r} is not a {kind} file: {exc}") from None


def read_csv_entries(path: str, fields) -> list[dict]:
    """Rows of the CSV file at `path` as dicts keyed by `fields`, which must
    be its exact header.  At least one row must follow, and a row with extra
    fields is named as ``entries[i]``; a short row's missing keys hold None.
    A file that is not UTF-8 is rejected by `read_text`."""
    text = read_text(path, "CSV")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != list(fields):
        raise ValueError(f"CSV must have header {','.join(fields)}")
    rows = list(reader)
    if not rows:
        raise ValueError("'entries': CSV holds no rows")
    for i, row in enumerate(rows):
        if None in row:
            raise ValueError(
                f"entries[{i}]: {len(row[None])} field(s) beyond {','.join(fields)}"
            )
    return rows


def matrix_to_json(matrix: np.ndarray, **header) -> dict:
    """The `header` keys, then `n_tones`, `m_antennas` and one {tone, antenna,
    real, imag} entry per element of one matrix, in row-major order."""
    require_single(matrix)
    n_tones, m_antennas = matrix.shape
    entries = [
        {"tone": n, "antenna": m, "real": float(v.real), "imag": float(v.imag)}
        for (n, m), v in np.ndenumerate(matrix)
    ]
    return {**header, "n_tones": n_tones, "m_antennas": m_antennas, "entries": entries}


def matrix_from_json(data) -> np.ndarray:
    """The matrix of a `matrix_to_json` document; other keys are the caller's.

    The declared `n_tones` and `m_antennas` must pass `integer_at_least(1,
    ...)`, indices be integers in range, values finite, and there must be
    exactly one entry per (tone, antenna).  The entry count is checked
    before the matrix is allocated, so no declared dimension can exhaust
    memory.
    """
    n_tones = read_field(data, "n_tones", int)
    m_antennas = read_field(data, "m_antennas", int)
    entries = data.get("entries")
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
    integer_at_least(1, n_tones=n_tones, m_antennas=m_antennas)
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
    """The matrix document of `weights.w` headed by `f0` and `delta_f`."""
    return matrix_to_json(weights.w, f0=weights.grid.f0, delta_f=weights.grid.delta_f)


def weights_from_json(data: dict) -> PrecoderWeights:
    """Inverse of `weights_to_json`; other keys, such as `band_limit`, are ignored."""
    w = matrix_from_json(data)
    grid = ToneGrid(read_field(data, "f0"), read_field(data, "delta_f"), w.shape[0])
    return PrecoderWeights(w, grid)


def save_json(document: dict, path: str) -> None:
    """Write `document` to `path` as indented JSON, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document, indent=2) + "\n")


def load_json(path: str, kind: str):
    """The JSON value in `path`.  A file that is not UTF-8 JSON raises one
    ValueError naming `path` as not a JSON `kind` file (`read_text`)."""
    kind = f"JSON {kind}"
    text = read_text(path, kind)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path!r} is not a {kind} file: {exc}") from None


def save_weights(weights: PrecoderWeights, path: str) -> None:
    save_json(weights_to_json(weights), path)


def load_weights(path: str) -> PrecoderWeights:
    """Inverse of `save_weights`; see `load_json` for a file that is not JSON."""
    return weights_from_json(load_json(path, "weight"))
