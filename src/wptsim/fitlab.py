"""Power-law analysis of harvested DC power versus distance.

Measured (or simulated) curves are summarized as p(d) = a d^b by ordinary
least squares on log p versus log d; inverting a fit turns a target power
into an operating range, and ratios of inverted ranges quantify how much
range a design change buys.  A frozen table of reference coefficients from
a published desk-scale measurement campaign anchors the claim checks:
`paper_check` reads the campaign's headline range gains off those curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .design import SCHEME_KINDS
from .signals import integer_at_least, positive_finite, read_csv_entries, read_field

MEASUREMENT_FIELDS = ["scheme", "n_tones", "m_antennas", "distance_m", "p_dc"]

# Significant digits of every float in a rendered fit report.
REPORT_SIG_DIGITS = 9


@dataclass(frozen=True)
class PowerLawFit:
    """Decay law p(d) = a d^b with finite a > 0 and b < 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        positive_finite(a=self.a)
        if not -math.inf < self.b < 0:
            raise ValueError(
                "b must be negative and finite (power decays with distance)"
            )


@dataclass(frozen=True)
class MeasurementRecord:
    """One observation: a scheme/configuration, a distance, and a DC power."""

    scheme: str
    n_tones: int
    m_antennas: int
    distance: float
    p_dc: float

    def __post_init__(self) -> None:
        integer_at_least(1, n_tones=self.n_tones, m_antennas=self.m_antennas)
        # Named by their measurement-CSV columns.
        if not 0 < self.distance < math.inf:
            raise ValueError("'distance_m' must be positive and finite")
        if not math.isfinite(self.p_dc):
            raise ValueError("'p_dc' must be finite")


@dataclass(frozen=True)
class ReferenceCurve:
    """Published fitted curve for one scheme/configuration."""

    scheme: str
    n_tones: int
    m_antennas: int
    fit: PowerLawFit


# Fitted (a, b) pairs from the reference measurement campaign: a tone series
# (matched-filter multisine, one antenna) and an antenna series (single-tone
# beamforming).  The (1, 1) entry is the shared single-tone baseline.
PAPER_COEFFICIENTS: tuple[ReferenceCurve, ...] = (
    ReferenceCurve("smf", 1, 1, PowerLawFit(8.081, -1.553)),
    ReferenceCurve("smf", 2, 1, PowerLawFit(9.975, -1.538)),
    ReferenceCurve("smf", 4, 1, PowerLawFit(12.52, -1.560)),
    ReferenceCurve("smf", 8, 1, PowerLawFit(14.32, -1.577)),
    ReferenceCurve("mrt", 1, 2, PowerLawFit(18.05, -1.535)),
    ReferenceCurve("mrt", 1, 4, PowerLawFit(37.07, -1.488)),
    ReferenceCurve("mrt", 1, 8, PowerLawFit(70.97, -1.417)),
)


_PAPER_FITS = {(e.scheme, e.n_tones, e.m_antennas): e.fit for e in PAPER_COEFFICIENTS}
# The single-tone, single-antenna baseline is one curve shared by every scheme.
_PAPER_FITS.update({(s, 1, 1): PAPER_COEFFICIENTS[0].fit for s in SCHEME_KINDS})


def paper_fit(scheme: str, n_tones: int, m_antennas: int) -> PowerLawFit:
    """Look up a reference curve; the (1, 1) baseline answers for every
    scheme in `SCHEME_KINDS`."""
    try:
        return _PAPER_FITS[scheme, n_tones, m_antennas]
    except KeyError:
        raise ValueError(
            f"no reference curve for scheme={scheme!r}, n_tones={n_tones}, "
            f"m_antennas={m_antennas}"
        ) from None


def paper_baseline() -> PowerLawFit:
    """The single-tone, single-antenna reference curve."""
    return PAPER_COEFFICIENTS[0].fit


def fit_power_law(records: list[MeasurementRecord]) -> PowerLawFit:
    """OLS fit of log p_dc against log distance.

    Requires at least two distinct distances and strictly positive powers;
    noiseless power-law data is recovered to rounding error.
    """
    if any(r.p_dc <= 0 for r in records):
        raise ValueError("fit requires strictly positive p_dc values")
    distances = np.array([r.distance for r in records], dtype=float)
    if len(set(distances.tolist())) < 2:
        raise ValueError("fit requires at least two distinct distances")
    x = np.log(distances)
    y = np.log(np.array([r.p_dc for r in records], dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    with np.errstate(over="ignore"):  # PowerLawFit rejects an infinite a
        a = float(np.exp(intercept))
    return PowerLawFit(a=a, b=float(slope))


def invert_range(fit: PowerLawFit, p_target: float) -> float:
    """Distance at which the fitted law delivers `p_target`; raises when that
    distance is beyond float range."""
    positive_finite(p_target=p_target)
    try:
        distance = (p_target / fit.a) ** (1.0 / fit.b)
    except OverflowError:
        distance = math.inf
    if not 0 < distance < math.inf:
        raise ValueError(
            f"range (p_target / a) ** (1 / b) = ({p_target:g} / {fit.a:g}) ** "
            f"(1 / {fit.b:g}) is not positive and finite"
        )
    return distance


def range_gain(fit_new: PowerLawFit, fit_ref: PowerLawFit, p_target: float) -> float:
    """Ratio of achievable ranges at a common target power."""
    return invert_range(fit_new, p_target) / invert_range(fit_ref, p_target)


def compose_cumulative(
    base: PowerLawFit, tone_fit: PowerLawFit, antenna_fit: PowerLawFit
) -> PowerLawFit:
    """Stack a tone gain and an antenna gain measured against a common base.

    Amplitudes compose multiplicatively relative to the base and exponent
    shifts add, predicting the curve of the combined configuration from the
    two single-axis measurements.
    """
    a = base.a * (tone_fit.a / base.a) * (antenna_fit.a / base.a)
    b = base.b + (tone_fit.b - base.b) + (antenna_fit.b - base.b)
    return PowerLawFit(a=a, b=b)


# Target power at which the reference range gains are compared.
PAPER_TARGET_POWER = 2.0


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


def paper_check() -> PaperCheckReport:
    """Check the headline range and stacking claims of the reference curves.

    Works entirely from the embedded coefficient table, one row per claim:
    range gains per doubling of tones (expected ~15%) and of antennas
    (expected ~60-75%), the end-to-end range expansion of the 8-antenna
    beamformer over the single-tone baseline, the multiplicative stacking
    of tone and antenna amplitude gains, and the stability of the decay
    exponent.
    """
    base, p = paper_baseline(), PAPER_TARGET_POWER
    rows = (
        ("tone-gain-2v1", range_gain(paper_fit("smf", 2, 1), base, p), 1.05, 1.25),
        ("tone-gain-4v2",
         range_gain(paper_fit("smf", 4, 1), paper_fit("smf", 2, 1), p), 1.05, 1.25),
        ("tone-gain-8v4",
         range_gain(paper_fit("smf", 8, 1), paper_fit("smf", 4, 1), p), 1.05, 1.25),
        ("antenna-gain-2v1", range_gain(paper_fit("mrt", 1, 2), base, p), 1.50, 1.80),
        ("antenna-gain-4v2",
         range_gain(paper_fit("mrt", 1, 4), paper_fit("mrt", 1, 2), p), 1.50, 1.80),
        ("antenna-gain-8v4",
         range_gain(paper_fit("mrt", 1, 8), paper_fit("mrt", 1, 4), p), 1.50, 1.80),
        ("range-expansion-8ant",
         range_gain(paper_fit("mrt", 1, 8), base, base.a), 3.7, 5.2),
        ("cumulative-amplitude",
         compose_cumulative(base, paper_fit("smf", 8, 1), paper_fit("mrt", 1, 4)).a
         / paper_fit("mrt", 1, 8).a, 0.90, 1.10),
        ("exponent-stability",
         max(abs(entry.fit.b + 1.5) for entry in PAPER_COEFFICIENTS), 0.0, 0.10),
    )
    return PaperCheckReport(checks=tuple(ClaimCheck(*row) for row in rows))


def log_residual_rms(fit: PowerLawFit, records: list[MeasurementRecord]) -> float:
    """Root-mean-square residual of the fit in natural-log space."""
    if not records:
        raise ValueError("no records")
    resid = [
        math.log(r.p_dc) - (math.log(fit.a) + fit.b * math.log(r.distance))
        for r in records
    ]
    return math.sqrt(sum(e * e for e in resid) / len(resid))


def group_records(
    records: list[MeasurementRecord],
) -> dict[tuple[str, int, int], list[MeasurementRecord]]:
    """Split records by (scheme, n_tones, m_antennas), keys sorted."""
    groups: dict[tuple[str, int, int], list[MeasurementRecord]] = {}
    for r in records:
        groups.setdefault((r.scheme, r.n_tones, r.m_antennas), []).append(r)
    return {key: groups[key] for key in sorted(groups)}


def fit_report(records: list[MeasurementRecord]) -> dict:
    """Fit every (scheme, n_tones, m_antennas) group and report coefficients.

    Returns a JSON-ready dict: one entry per group with a, b, the log-space
    residual RMS, and the record count.  A group that cannot be fitted raises
    ValueError prefixed with the group, as in "smf N=1 M=1: ...".
    """
    fits = []
    for (scheme, n_tones, m_antennas), group in group_records(records).items():
        try:
            fit = fit_power_law(group)
        except ValueError as exc:
            raise ValueError(f"{scheme} N={n_tones} M={m_antennas}: {exc}") from None
        fits.append(
            {
                "scheme": scheme,
                "n_tones": n_tones,
                "m_antennas": m_antennas,
                "a": fit.a,
                "b": fit.b,
                "log_rms": log_residual_rms(fit, group),
                "n_records": len(group),
            }
        )
    return {"fits": fits}


def format_fit_report(report: dict) -> str:
    """Render a fit report as JSON text, floats rounded to `REPORT_SIG_DIGITS`."""

    def tidy(value):
        if isinstance(value, float):
            return float(format(value, f".{REPORT_SIG_DIGITS}g"))
        return value

    shaped = {
        "fits": [{k: tidy(v) for k, v in entry.items()} for entry in report["fits"]]
    }
    return json.dumps(shaped, indent=2)


def read_measurements_csv(path: str) -> list[MeasurementRecord]:
    """Read `scheme,n_tones,m_antennas,distance_m,p_dc` rows by the rules of
    `read_csv_entries`; a row that is rejected is named as ``entries[i]``."""
    records = []
    rows = read_csv_entries(path, MEASUREMENT_FIELDS)
    for i, row in enumerate(rows):
        try:
            n, m = read_field(row, "n_tones", int), read_field(row, "m_antennas", int)
            distance, p_dc = read_field(row, "distance_m"), read_field(row, "p_dc")
            records.append(MeasurementRecord(row["scheme"], n, m, distance, p_dc))
        except ValueError as exc:
            raise ValueError(f"entries[{i}]: {exc}") from None
    return records
