"""Monte-Carlo experiment driver: sweeps, CDFs, and reference claim checks.

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

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    CHANNEL_KINDS,
    ChannelModel,
    ChannelRealization,
    derive_seed,
    sample_channel,
)
from .csi import CsiConfig, csi_loop_zdc
from .design import (
    DEFAULT_BETA,
    DesignScheme,
    MRT,
    SCHEME_KINDS,
    apply_design,
    effective_channel,
)
from .fitlab import (
    PAPER_COEFFICIENTS,
    compose_cumulative,
    paper_baseline,
    paper_fit,
    range_gain,
)
from .rectifier import RectifierParams, received_tones, z_dc
from .signals import DEFAULT_BAND_LIMIT, DEFAULT_F0, ToneGrid

SWEEP_FIELDS = ["scheme", "n_tones", "m_antennas", "distance_m", "zdc_mean", "zdc_std"]
CDF_FIELDS = ["scheme", "n_tones", "m_antennas", "zdc", "cdf"]

# Stream tags keeping channel draws and CSI noise draws independent.
_CHANNEL_STREAM = 0
_NOISE_STREAM = 1

# Realizations designed and received per batch.
BLOCK_SIZE = 256


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
        """Raise ValueError naming every offending field."""
        problems: list[str] = []
        if not self.schemes:
            problems.append("schemes: must list at least one scheme")
        for s in self.schemes:
            if s not in SCHEME_KINDS:
                problems.append(f"schemes: unknown scheme {s!r}")
        if not self.tone_counts:
            problems.append("tones: must list at least one tone count")
        if any(n < 1 for n in self.tone_counts):
            problems.append("tones: tone counts must be >= 1")
        if MRT in self.schemes and any(n > 1 for n in self.tone_counts):
            problems.append(
                "schemes/tones: mrt requires n_tones = 1; run it separately "
                "from multi-tone sweeps"
            )
        if not self.antenna_counts:
            problems.append("antennas: must list at least one antenna count")
        if any(m < 1 for m in self.antenna_counts):
            problems.append("antennas: antenna counts must be >= 1")
        if not self.distances:
            problems.append("distances: must list at least one distance")
        if not all(0 < d < np.inf for d in self.distances):
            problems.append("distances: distances must be positive and finite")
        if self.realizations < 1:
            problems.append("realizations: must be >= 1")
        if self.seed < 0:
            problems.append("seed: must be non-negative")
        if not self.power_budget > 0:
            problems.append("power_budget: must be positive")
        if not self.beta > 0:
            problems.append("beta: must be positive")
        if not self.f0 > 0:
            problems.append("f0: must be positive")
        if not self.band_limit > 0:
            problems.append("band_limit: must be positive")
        elif (
            self.f0 > 0
            and max(self.tone_counts, default=1) > 1
            and not self.band_limit < 2 * self.f0
        ):
            problems.append(
                "f0/band_limit: a multi-tone band must be narrower than 2*f0; "
                "wider combs beat three-tone sums to DC, which the closed-form "
                "rectifier moments omit"
            )
        if problems:
            raise ValueError("invalid experiment config: " + "; ".join(problems))

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
        block = ChannelRealization(
            h=np.stack([draw.h for draw in draws]),
            path_loss=draws[0].path_loss,
            distance=distance,
        )
        if cfg.csi is not None:
            values[start:stop] = csi_loop_zdc(
                block, scheme, cfg.csi, cfg.rectifier, noise_seeds, grid=grid
            )
        else:
            weights = apply_design(scheme, block, grid)
            tones = received_tones(weights, effective_channel(scheme, block))
            values[start:stop] = z_dc(tones, cfg.rectifier)
    return values


def _cells(cfg: ExperimentConfig):
    """Sweep cells in output order: lexicographic (scheme, N, M, distance).

    The distance index used for seed derivation is the position in the
    sorted deduplicated grid, so the ensemble is independent of listing
    order in the config.
    """
    unique_distances = sorted(set(cfg.distances))
    for scheme_name in sorted(set(cfg.schemes)):
        for n_tones in sorted(set(cfg.tone_counts)):
            for m_antennas in sorted(set(cfg.antenna_counts)):
                for d_index, distance in enumerate(unique_distances):
                    yield scheme_name, n_tones, m_antennas, distance, d_index


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Mean and spread of the DC output for every configured cell.

    The standard deviation is the population spread of the per-realization
    values (zero when realizations = 1); the reduction is done in
    realization-index order no matter how the values were produced.
    """
    cfg.validate()
    rows = []
    for scheme_name, n_tones, m_antennas, distance, d_index in _cells(cfg):
        values = _zdc_ensemble(cfg, scheme_name, n_tones, m_antennas, distance, d_index)
        rows.append(
            SweepRow(
                scheme=scheme_name,
                n_tones=n_tones,
                m_antennas=m_antennas,
                distance=distance,
                zdc_mean=float(values.mean()),
                zdc_std=float(values.std()),
            )
        )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV text (9 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_FIELDS)
    for row in rows:
        writer.writerow(
            [
                row.scheme,
                row.n_tones,
                row.m_antennas,
                format(row.distance, ".9g"),
                format(row.zdc_mean, ".9g"),
                format(row.zdc_std, ".9g"),
            ]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class CdfCurve:
    """Empirical distribution for one (scheme, n_tones, m_antennas) group."""

    scheme: str
    n_tones: int
    m_antennas: int
    values: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        values.flags.writeable = False
        positions.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "positions", positions)

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
    for scheme_name, n_tones, m_antennas, distance, d_index in _cells(cfg):
        values = _zdc_ensemble(cfg, scheme_name, n_tones, m_antennas, distance, d_index)
        curves.setdefault((scheme_name, n_tones, m_antennas), []).append(values)
    out = []
    for key in sorted(curves):
        pooled = np.sort(np.concatenate(curves[key]))
        positions = np.arange(1, pooled.size + 1) / pooled.size
        out.append(
            CdfCurve(
                scheme=key[0],
                n_tones=key[1],
                m_antennas=key[2],
                values=pooled,
                positions=positions,
            )
        )
    return out


def cdf_to_csv(curves: list[CdfCurve]) -> str:
    """Render CDF curves as CSV text (9 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CDF_FIELDS)
    for curve in curves:
        for value, position in zip(curve.values, curve.positions):
            writer.writerow(
                [
                    curve.scheme,
                    curve.n_tones,
                    curve.m_antennas,
                    format(value, ".9g"),
                    format(position, ".9g"),
                ]
            )
    return buf.getvalue()


@dataclass(frozen=True)
class ClaimCheck:
    """One reference claim: a computed value and its acceptance band."""

    name: str
    value: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi


@dataclass(frozen=True)
class PaperCheckReport:
    checks: tuple[ClaimCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            out.append(
                f"{verdict} {c.name}: {format(c.value, '.9g')} "
                f"in [{format(c.lo, '.9g')}, {format(c.hi, '.9g')}]"
            )
        out.append(
            "paper-check: "
            + ("all claims hold" if self.all_passed else "some claims FAILED")
        )
        return out


def paper_check(p_target: float = 2.0) -> PaperCheckReport:
    """Check the headline range and stacking claims of the reference curves.

    Works entirely from the embedded coefficient table: range gains per
    doubling of tones (expected ~15%) and of antennas (expected ~60-75%),
    the end-to-end range expansion of the 8-antenna beamformer over the
    single-tone baseline, the multiplicative stacking of tone and antenna
    amplitude gains, and the stability of the decay exponent.
    """
    base = paper_baseline()
    checks = [
        ClaimCheck(
            "tone-gain-2v1",
            range_gain(paper_fit("smf", 2, 1), paper_fit("smf", 1, 1), p_target),
            1.05,
            1.25,
        ),
        ClaimCheck(
            "tone-gain-4v2",
            range_gain(paper_fit("smf", 4, 1), paper_fit("smf", 2, 1), p_target),
            1.05,
            1.25,
        ),
        ClaimCheck(
            "tone-gain-8v4",
            range_gain(paper_fit("smf", 8, 1), paper_fit("smf", 4, 1), p_target),
            1.05,
            1.25,
        ),
        ClaimCheck(
            "antenna-gain-2v1",
            range_gain(paper_fit("mrt", 1, 2), base, p_target),
            1.50,
            1.80,
        ),
        ClaimCheck(
            "antenna-gain-4v2",
            range_gain(paper_fit("mrt", 1, 4), paper_fit("mrt", 1, 2), p_target),
            1.50,
            1.80,
        ),
        ClaimCheck(
            "antenna-gain-8v4",
            range_gain(paper_fit("mrt", 1, 8), paper_fit("mrt", 1, 4), p_target),
            1.50,
            1.80,
        ),
        ClaimCheck(
            "range-expansion-8ant",
            range_gain(paper_fit("mrt", 1, 8), base, base.a),
            3.7,
            5.2,
        ),
        ClaimCheck(
            "cumulative-amplitude",
            compose_cumulative(
                base, paper_fit("smf", 8, 1), paper_fit("mrt", 1, 4)
            ).a
            / paper_fit("mrt", 1, 8).a,
            0.90,
            1.10,
        ),
        ClaimCheck(
            "exponent-stability",
            max(abs(entry.fit.b + 1.5) for entry in PAPER_COEFFICIENTS),
            0.0,
            0.10,
        ),
    ]
    return PaperCheckReport(checks=tuple(checks))


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_channel_kind(value: str) -> str:
    if value not in CHANNEL_KINDS:
        raise ValueError(f"must be one of {CHANNEL_KINDS}")
    return value


def _list_of(kind):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda value: tuple(
        kind(item.strip()) for item in value.split(",") if item.strip()
    )


# config key -> (section, field, parser).  A section other than "experiment"
# names the ExperimentConfig field holding that sub-config; csi "enabled" only
# switches CSI modelling on.
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
    "channel_kind": ("channel_model", "kind", _parse_channel_kind),
    "n_taps": ("channel_model", "n_taps", int),
    "delay_spread": ("channel_model", "delay_spread", float),
    "pdp_decay": ("channel_model", "pdp_decay", float),
    "path_loss_ref": ("channel_model", "path_loss_ref", float),
    "path_loss_exponent": ("channel_model", "path_loss_exponent", float),
    "k2": ("rectifier", "k2", float),
    "k4": ("rectifier", "k4", float),
    "r_ant": ("rectifier", "r_ant", float),
    "csi_enabled": ("csi", "enabled", _parse_bool),
    "pilot_amplitude": ("csi", "pilot_amplitude", float),
    "noise_variance": ("csi", "noise_variance", float),
    "quant_bits": ("csi", "quant_bits_per_component", int),
    "frame_length": ("csi", "frame_length", float),
    "acquisition_time": ("csi", "acquisition_time", float),
    "account_acquisition_time": ("csi", "account_acquisition_time", _parse_bool),
}


def config_from_mapping(values: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from string key/value pairs via `CONFIG_KEYS`.

    Unknown keys are rejected by name; type errors name the offending key.
    Numeric validation beyond parsing happens in `ExperimentConfig.validate`.
    """
    sections = {s: {} for s in ("experiment", "channel_model", "rectifier", "csi")}
    for key, raw in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        section, name, parse = CONFIG_KEYS[key]
        try:
            sections[section][name] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    cfg = ExperimentConfig()
    updates = sections["experiment"]
    updates["channel_model"] = replace(cfg.channel_model, **sections["channel_model"])
    updates["rectifier"] = replace(cfg.rectifier, **sections["rectifier"])
    csi_fields = sections["csi"]
    if csi_fields.pop("enabled", False):
        updates["csi"] = CsiConfig(**csi_fields)
    elif csi_fields:
        raise ValueError(
            "csi settings given but csi_enabled is not set; add csi_enabled = true"
        )
    return replace(cfg, **updates)
