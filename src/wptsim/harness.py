"""Monte-Carlo experiment driver: sweeps and CDFs.

A run is specified by an `ExperimentConfig` (buildable from a key = value
text file) and a master seed.  Every channel realization gets its own
counter-derived stream keyed by (tones, antennas, distance index,
realization index), so results are byte-identical however the realizations
are scheduled, and all schemes see the same channels at the same
configuration.  Each cell is evaluated in blocks of `BLOCK_SIZE`
realizations: channels are drawn one by one, then designed, received and
rectified as one batch.  The block size bounds memory and never changes
the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ChannelModel,
    check_steering,
    derive_seed,
    path_loss,
    sample_channel,
)
from .csi import CsiConfig, csi_loop_zdc
from .design import DEFAULT_BETA, MRT, DesignScheme, apply_design, effective_channel
from .rectifier import RectifierParams, check_comb, received_tones, z_dc
from .signals import DEFAULT_BAND_LIMIT, DEFAULT_F0, ToneGrid, csv_text
from .signals import integer_at_least, read_text

SWEEP_FIELDS = ["scheme", "n_tones", "m_antennas", "distance_m", "zdc_mean", "zdc_std"]
CDF_FIELDS = ["scheme", "n_tones", "m_antennas", "zdc", "cdf"]

# Stream tags keeping channel draws and CSI noise draws independent.
_CHANNEL_STREAM = 0
_NOISE_STREAM = 1

# Realizations designed and received per batch.
BLOCK_SIZE = 256

# numpy refuses an array of more bytes than this before allocating anything.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sweep or CDF run."""

    schemes: tuple[str, ...] = ("smf",)
    tone_counts: tuple[int, ...] = (1, 8)
    antenna_counts: tuple[int, ...] = (1,)
    distances: tuple[float, ...] = (1.0, 2.0, 4.0)
    realizations: int = 100
    seed: int = 0
    power_budget: float = 1.0
    beta: float = DEFAULT_BETA
    f0: float = DEFAULT_F0
    band_limit: float = DEFAULT_BAND_LIMIT
    channel_model: ChannelModel = field(default_factory=ChannelModel)
    rectifier: RectifierParams = field(default_factory=RectifierParams)
    csi: CsiConfig | None = None
    out_path: str | None = None

    def validate(self) -> None:
        """Raise ValueError "<key> ..." for the first problem, checking in a
        fixed order: schemes, each built as its `DesignScheme` with
        power_budget and beta, tones, mrt/tones, antennas, distances and their
        path loss, realizations, array sizes, seed, then each tone count's
        grid, whose `ToneGrid.for_band` states the f0 and band_limit rules."""
        if not self.schemes:
            raise ValueError("schemes: must list at least one scheme")
        for name in self.schemes:
            self.scheme_obj(name)
        if not self.tone_counts:
            raise ValueError("tones: must list at least one tone count")
        for n_tones in self.tone_counts:
            integer_at_least(1, tones=n_tones)
        # Python ints: a numpy count may overflow the size products below.
        tone_counts = sorted(set(map(int, self.tone_counts)))
        if MRT in self.schemes and tone_counts[-1] > 1:
            raise ValueError(
                "schemes/tones: mrt requires n_tones = 1; run it separately "
                "from multi-tone sweeps"
            )
        if not self.antenna_counts:
            raise ValueError("antennas: must list at least one antenna count")
        for m_antennas in self.antenna_counts:
            integer_at_least(1, antennas=m_antennas)
        if not self.distances:
            raise ValueError("distances: must list at least one distance")
        for distance in self.distances:
            try:
                path_loss(self.channel_model, distance)
            except ValueError as exc:
                raise ValueError(f"distances: {exc}") from None
        integer_at_least(1, realizations=self.realizations)
        realizations = int(self.realizations)
        if realizations * len(set(self.distances)) * 8 > _MAX_ARRAY_BYTES:
            raise ValueError(
                "realizations: one value per realization and distance exceeds "
                "the largest array numpy can hold"
            )
        n_max, m_max = tone_counts[-1], max(map(int, self.antenna_counts))
        if min(realizations, BLOCK_SIZE) * n_max * m_max * 16 > _MAX_ARRAY_BYTES:
            raise ValueError(
                "tones/antennas: a block of channels (realizations x tones x "
                f"antennas, at most {BLOCK_SIZE} realizations) exceeds the "
                "largest array numpy can hold"
            )
        if self.channel_model.n_taps * max(n_max, m_max) * 16 > _MAX_ARRAY_BYTES:
            raise ValueError(
                "n_taps: the tap arrays (tones x n_taps, n_taps x antennas) "
                "exceed the largest array numpy can hold"
            )
        integer_at_least(0, seed=self.seed)
        for n_tones in tone_counts:
            grid = self.grid_for(n_tones)
            check_comb(grid)
            check_steering(self.channel_model, grid)

    def grid_for(self, n_tones: int) -> ToneGrid:
        return ToneGrid.for_band(n_tones, f0=self.f0, band_limit=self.band_limit)

    def scheme_obj(self, name: str) -> DesignScheme:
        return DesignScheme(kind=name, power_budget=self.power_budget, beta=self.beta)


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    n_tones: int
    m_antennas: int
    distance: float
    zdc_mean: float
    zdc_std: float


def _zdc_ensemble(
    cfg: ExperimentConfig,
    scheme_name: str,
    n_tones: int,
    m_antennas: int,
    distance: float,
    d_index: int,
) -> np.ndarray:
    """All realizations for one cell, in realization-index order."""
    scheme = cfg.scheme_obj(scheme_name)
    grid = cfg.grid_for(n_tones)
    cell = (n_tones, m_antennas, d_index)
    values = np.empty(cfg.realizations)
    for start in range(0, cfg.realizations, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, cfg.realizations)
        draws, noise_seeds = [], []
        for r_index in range(start, stop):
            chan_seed = derive_seed(cfg.seed, _CHANNEL_STREAM, *cell, r_index)
            draws.append(
                sample_channel(
                    cfg.channel_model, grid, m_antennas, chan_seed, distance=distance
                )
            )
            if cfg.csi is not None:
                noise_seeds.append(derive_seed(cfg.seed, _NOISE_STREAM, *cell, r_index))
        block = replace(draws[0], h=np.stack([draw.h for draw in draws]))
        if cfg.csi is not None:
            values[start:stop] = csi_loop_zdc(
                block, scheme, cfg.csi, cfg.rectifier, noise_seeds, grid=grid
            )
        else:
            weights = apply_design(scheme, block, grid)
            tones = received_tones(weights, effective_channel(scheme, block))
            values[start:stop] = z_dc(tones, cfg.rectifier)
    return values


def _ensembles(cfg: ExperimentConfig):
    """Each cell's name, (scheme, N, M, distance) and realizations, in output
    order: lexicographic (scheme, N, M, distance).

    The distance index used for seed derivation is the position in the
    sorted deduplicated grid, so the ensemble is independent of listing
    order in the config.  An error inside a cell is raised prefixed with its
    name, as in "smf N=1 M=1 d=1: ...".
    """
    unique_distances = sorted(set(cfg.distances))
    for scheme_name in sorted(set(cfg.schemes)):
        for n_tones in sorted(set(cfg.tone_counts)):
            for m_antennas in sorted(set(cfg.antenna_counts)):
                for d_index, distance in enumerate(unique_distances):
                    cell = (scheme_name, n_tones, m_antennas, distance)
                    name = f"{scheme_name} N={n_tones} M={m_antennas} d={distance:g}"
                    try:
                        values = _zdc_ensemble(cfg, *cell, d_index)
                    except ValueError as exc:
                        raise ValueError(f"{name}: {exc}") from None
                    yield name, cell, values


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Mean and spread of the DC output for every configured cell.

    The standard deviation is the population spread of the per-realization
    values (zero when realizations = 1); the reduction is done in
    realization-index order no matter how the values were produced.  Finite
    values whose sum or spread overflows raise ValueError.
    """
    cfg.validate()
    rows = []
    for name, cell, values in _ensembles(cfg):
        with np.errstate(over="ignore", invalid="ignore"):
            zdc_mean, zdc_std = float(values.mean()), float(values.std())
        if not (np.isfinite(zdc_mean) and np.isfinite(zdc_std)):
            raise ValueError(
                f"{name}: zdc_mean or zdc_std overflows; it grows with "
                "power_budget, k2, k4 and r_ant"
            )
        rows.append(SweepRow(*cell, zdc_mean=zdc_mean, zdc_std=zdc_std))
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV text (9 significant digits)."""
    return csv_text(
        SWEEP_FIELDS,
        (
            [row.scheme, row.n_tones, row.m_antennas]
            + [format(v, ".9g") for v in (row.distance, row.zdc_mean, row.zdc_std)]
            for row in rows
        ),
    )


@dataclass(frozen=True)
class CdfCurve:
    """Empirical distribution for one (scheme, n_tones, m_antennas) group."""

    scheme: str
    n_tones: int
    m_antennas: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def positions(self) -> np.ndarray:
        """Plotting positions i / n, i = 1..n, of the sorted values."""
        return np.arange(1, self.values.size + 1) / self.values.size

    @property
    def median(self) -> float:
        return float(np.median(self.values))


def run_cdf(cfg: ExperimentConfig) -> list[CdfCurve]:
    """Empirical CDFs pooled over realizations and the distance grid.

    Samples are sorted ascending and paired with plotting positions i / n
    for i = 1..n, so the last point always sits at probability 1.
    """
    cfg.validate()
    curves: dict[tuple[str, int, int], list[np.ndarray]] = {}
    for _, cell, values in _ensembles(cfg):
        curves.setdefault(cell[:3], []).append(values)
    return [
        CdfCurve(*key, values=np.sort(np.concatenate(curves[key])))
        for key in sorted(curves)
    ]


def cdf_to_csv(curves: list[CdfCurve]) -> str:
    """Render CDF curves as CSV text (9 significant digits)."""
    return csv_text(
        CDF_FIELDS,
        (
            [c.scheme, c.n_tones, c.m_antennas, format(v, ".9g"), format(p, ".9g")]
            for c in curves
            for v, p in zip(c.values, c.positions)
        ),
    )


# --- configuration files ---------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, a repeated key fails."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise ValueError(
                f"config line {lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value
    return values


def load_config_file(path: str) -> dict[str, str]:
    """`parse_config_text` of the file at `path`, read by `read_text`."""
    return parse_config_text(read_text(path, "config"))


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_channel_kind(value: str) -> bool:
    """True for frequency_flat, the one-tap channel; False for tapped_delay."""
    if value not in ("frequency_flat", "tapped_delay"):
        raise ValueError("must be one of ('frequency_flat', 'tapped_delay')")
    return value == "frequency_flat"


def _list_of(kind):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda value: tuple(
        kind(item.strip()) for item in value.split(",") if item.strip()
    )


# config key -> (section, field, parser).  A section other than "experiment"
# names the ExperimentConfig field holding that sub-config; csi "enabled" and
# channel_model "one_tap" (frequency_flat sets n_taps = 1) are flags only.
# A parser reads the type alone: the class holding a value checks its range.
CONFIG_KEYS = {
    "schemes": ("experiment", "schemes", _list_of(str)),
    "tones": ("experiment", "tone_counts", _list_of(int)),
    "antennas": ("experiment", "antenna_counts", _list_of(int)),
    "distances": ("experiment", "distances", _list_of(float)),
    "realizations": ("experiment", "realizations", int),
    "seed": ("experiment", "seed", int),
    "power_budget": ("experiment", "power_budget", float),
    "beta": ("experiment", "beta", float),
    "f0": ("experiment", "f0", float),
    "band_limit": ("experiment", "band_limit", float),
    "out": ("experiment", "out_path", str),
    "channel_kind": ("channel_model", "one_tap", _parse_channel_kind),
    "n_taps": ("channel_model", "n_taps", int),
    "delay_spread": ("channel_model", "delay_spread", float),
    "pdp_decay": ("channel_model", "pdp_decay", float),
    "path_loss_ref": ("channel_model", "path_loss_ref", float),
    "path_loss_exponent": ("channel_model", "path_loss_exponent", float),
    "k2": ("rectifier", "k2", float),
    "k4": ("rectifier", "k4", float),
    "r_ant": ("rectifier", "r_ant", float),
    "csi_enabled": ("csi", "enabled", _parse_bool),
    "noise_variance": ("csi", "noise_variance", float),
    "quant_bits": ("csi", "quant_bits_per_component", int),
    "acquisition_time": ("csi", "acquisition_time", float),
}


def parse_config_value(key: str, text: str):
    """`text` parsed by `CONFIG_KEYS`' parser for `key`; an unknown key, or a
    value its parser rejects, raises ValueError naming the key."""
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return CONFIG_KEYS[key][2](text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def config_from_mapping(values: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from string key/value pairs via `CONFIG_KEYS`.

    Unknown keys are rejected by name; type errors name the offending key.
    The sub-configs check their settings' ranges as they are built, and
    `ExperimentConfig.validate` the rest; each message begins with the key.
    """
    sections = {s: {} for s in ("experiment", "channel_model", "rectifier", "csi")}
    for key, raw in values.items():
        value = parse_config_value(key, raw)
        section, name, _ = CONFIG_KEYS[key]
        sections[section][name] = value

    model_fields = sections["channel_model"]
    if model_fields.pop("one_tap", False) and model_fields.setdefault("n_taps", 1) != 1:
        raise ValueError("channel_kind/n_taps: frequency_flat means n_taps = 1")
    cfg = ExperimentConfig()
    updates = sections["experiment"]
    updates["channel_model"] = replace(cfg.channel_model, **sections["channel_model"])
    updates["rectifier"] = replace(cfg.rectifier, **sections["rectifier"])
    csi_fields = sections["csi"]
    if csi_fields.pop("enabled", False):
        updates["csi"] = CsiConfig(**csi_fields)
    elif csi_fields:
        raise ValueError("csi settings given without csi_enabled = true")
    return replace(cfg, **updates)
