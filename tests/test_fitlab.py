"""Power-law fitting, range inversion, the reference coefficient table and
the claim checks read off it."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptsim
from wptsim import cli, harness
from wptsim.design import SCHEME_KINDS
from wptsim.fitlab import (
    MEASUREMENT_FIELDS,
    PAPER_COEFFICIENTS,
    ClaimCheck,
    MeasurementRecord,
    PaperCheckReport,
    PowerLawFit,
    compose_cumulative,
    fit_power_law,
    fit_report,
    format_fit_report,
    group_records,
    invert_range,
    log_residual_rms,
    paper_baseline,
    paper_check,
    paper_fit,
    range_gain,
    read_measurements_csv,
)
from wptsim.signals import csv_text


def synth_records(a, b, distances, scheme="smf", n=1, m=1, noise=None, rng=None):
    recs = []
    for d in distances:
        p = a * d**b
        if noise is not None:
            p *= math.exp(noise * rng.standard_normal())
        recs.append(MeasurementRecord(scheme, n, m, float(d), float(p)))
    return recs


class TestPowerLawFit:
    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(ValueError):
            PowerLawFit(a=0.0, b=-1.5)

    def test_rejects_non_negative_exponent(self):
        with pytest.raises(ValueError):
            PowerLawFit(a=1.0, b=0.0)

    def test_noiseless_recovery_is_exact(self):
        recs = synth_records(3.7, -1.52, (0.6, 1.0, 2.0, 4.4))
        fit = fit_power_law(recs)
        assert fit.a == pytest.approx(3.7, rel=1e-12)
        assert fit.b == pytest.approx(-1.52, rel=1e-12)

    def test_requires_two_distinct_distances(self):
        recs = synth_records(1.0, -1.5, (2.0, 2.0))
        with pytest.raises(ValueError, match="distinct"):
            fit_power_law(recs)

    def test_rejects_non_positive_power(self):
        rec = MeasurementRecord("smf", 1, 1, 1.0, 0.0)
        other = MeasurementRecord("smf", 1, 1, 2.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([rec, other])

    def test_noisy_recovery_within_tolerance(self):
        rng = np.random.default_rng(123)
        recs = synth_records(
            5.0, -1.5, np.geomspace(0.6, 5.4, 50), noise=0.1, rng=rng
        )
        fit = fit_power_law(recs)
        assert fit.a == pytest.approx(5.0, rel=0.1)
        assert fit.b == pytest.approx(-1.5, rel=0.05)


class TestPredictAndInvert:
    FIT = PowerLawFit(a=8.081, b=-1.553)

    def test_invert_regression_value(self):
        assert invert_range(self.FIT, 2.754010067362486) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_invert_round_trips_the_law(self):
        for d in (0.5, 1.0, 2.7, 5.0):
            p = self.FIT.a * d**self.FIT.b
            assert invert_range(self.FIT, p) == pytest.approx(d, rel=1e-12)

    def test_scale_equivariance(self):
        # Scaling the target power by s scales the range by s^(1/b).
        s = 3.0
        base = invert_range(self.FIT, 2.0)
        scaled = invert_range(self.FIT, 2.0 * s)
        assert scaled / base == pytest.approx(s ** (1.0 / self.FIT.b), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            invert_range(self.FIT, 0.0)


class TestRangeGain:
    def test_same_curve_gives_unity(self):
        fit = PowerLawFit(2.0, -1.5)
        assert range_gain(fit, fit, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_equal_exponents_closed_form(self):
        # With a common exponent b the gain is (a_new / a_ref)^(-1/b),
        # independent of the target power.
        ref = PowerLawFit(2.0, -1.5)
        new = PowerLawFit(8.0, -1.5)
        expected = 4.0 ** (1.0 / 1.5)
        for p in (0.5, 1.0, 3.0):
            assert range_gain(new, ref, p) == pytest.approx(expected, rel=1e-12)

    def test_eight_antenna_reference_regression(self):
        gain = range_gain(
            paper_fit("mrt", 1, 8), paper_baseline(), paper_baseline().a
        )
        assert gain == pytest.approx(4.633623544910529, rel=1e-12)


class TestCompose:
    def test_neutral_elements(self):
        base = paper_baseline()
        composed = compose_cumulative(base, base, base)
        assert composed.a == pytest.approx(base.a, rel=1e-12)
        assert composed.b == pytest.approx(base.b, rel=1e-12)

    def test_reference_composition_regression(self):
        # Stacking the 8-tone gain and the 4-antenna gain on the baseline
        # lands within 10% of the measured 8-antenna amplitude.
        composed = compose_cumulative(
            paper_baseline(), paper_fit("smf", 8, 1), paper_fit("mrt", 1, 4)
        )
        assert composed.a == pytest.approx(65.69018685806212, rel=1e-12)
        assert composed.b == pytest.approx(-1.512, rel=1e-12)
        assert 0.90 <= composed.a / paper_fit("mrt", 1, 8).a <= 1.10

    def test_order_of_axes_is_symmetric(self):
        base = paper_baseline()
        t = paper_fit("smf", 4, 1)
        ant = paper_fit("mrt", 1, 4)
        ab = compose_cumulative(base, t, ant)
        ba = compose_cumulative(base, ant, t)
        assert ab.a == pytest.approx(ba.a, rel=1e-12)
        assert ab.b == pytest.approx(ba.b, rel=1e-12)


class TestReferenceTable:
    def test_has_seven_curves(self):
        assert len(PAPER_COEFFICIENTS) == 7

    def test_amplitudes_increase_along_each_axis(self):
        tone_a = [paper_fit("smf", n, 1).a for n in (1, 2, 4, 8)]
        ant_a = [paper_fit("mrt", 1, m).a for m in (2, 4, 8)]
        assert tone_a == sorted(tone_a)
        assert ant_a == sorted(ant_a)
        assert paper_baseline().a < ant_a[0]

    @pytest.mark.parametrize("scheme", SCHEME_KINDS)
    def test_baseline_answers_every_known_scheme(self, scheme):
        assert paper_fit(scheme, 1, 1) == paper_baseline()

    # The baseline answers for no scheme outside SCHEME_KINDS.
    @pytest.mark.parametrize("key", [("smf", 3, 1), ("bogus", 1, 1)])
    def test_unknown_configuration_rejected(self, key):
        message = f"no reference curve for scheme={key[0]!r}"
        with pytest.raises(ValueError, match=message):
            paper_fit(*key)

    def test_exponents_near_minus_three_halves(self):
        for entry in PAPER_COEFFICIENTS:
            assert abs(entry.fit.b + 1.5) <= 0.10


# `wptsim paper-check` stdout, byte for byte.
PAPER_CHECK_STDOUT = """\
PASS tone-gain-2v1: 1.15682417 in [1.05, 1.25]
PASS tone-gain-4v2: 1.13989423 in [1.05, 1.25]
PASS tone-gain-8v4: 1.07519924 in [1.05, 1.25]
PASS antenna-gain-2v1: 1.70588014 in [1.5, 1.8]
PASS antenna-gain-4v2: 1.69708806 in [1.5, 1.8]
PASS antenna-gain-8v4: 1.74480273 in [1.5, 1.8]
PASS range-expansion-8ant: 4.63362354 in [3.7, 5.2]
PASS cumulative-amplitude: 0.925605 in [0.9, 1.1]
PASS exponent-stability: 0.083 in [0, 0.1]
paper-check: all claims hold
"""


class TestPaperCheck:
    def test_all_reference_claims_hold(self):
        report = paper_check()
        assert report.all_passed
        assert len(report.checks) == 9

    def test_check_names(self):
        names = [c.name for c in paper_check().checks]
        assert names == [
            "tone-gain-2v1",
            "tone-gain-4v2",
            "tone-gain-8v4",
            "antenna-gain-2v1",
            "antenna-gain-4v2",
            "antenna-gain-8v4",
            "range-expansion-8ant",
            "cumulative-amplitude",
            "exponent-stability",
        ]

    def test_frozen_values(self):
        # Exact: every value is the float the table's arithmetic gives.
        values = {c.name: c.value for c in paper_check().checks}
        assert values == {
            "tone-gain-2v1": 1.156824165211502,
            "tone-gain-4v2": 1.1398942263077503,
            "tone-gain-8v4": 1.0751992387683786,
            "antenna-gain-2v1": 1.7058801395140055,
            "antenna-gain-4v2": 1.697088062168756,
            "antenna-gain-8v4": 1.7448027335459173,
            "range-expansion-8ant": 4.633623544910529,
            "cumulative-amplitude": 0.925605000113599,
            "exponent-stability": 0.08299999999999996,
        }

    def test_report_lines(self, capsys):
        assert "\n".join(paper_check().lines()) + "\n" == PAPER_CHECK_STDOUT
        assert cli.main(["paper-check"]) == 0
        assert capsys.readouterr().out == PAPER_CHECK_STDOUT

    def test_failing_report_lines(self):
        report = PaperCheckReport(
            checks=(ClaimCheck("made-up", 0.5, 1.0, 2.0),)
        )
        assert not report.all_passed
        assert report.lines()[0].startswith("FAIL made-up")
        assert report.lines()[-1].endswith("some claims FAILED")

    def test_claims_live_in_fitlab_only(self):
        assert wptsim.paper_check is wptsim.fitlab.paper_check
        for name in ("ClaimCheck", "PaperCheckReport", "paper_check"):
            assert not hasattr(harness, name)
        # The harness takes nothing from fitlab.
        assert not [
            name for name, value in vars(harness).items()
            if getattr(value, "__module__", None) == "wptsim.fitlab"
        ]


class TestFitReport:
    def _mixed_records(self):
        recs = synth_records(8.081, -1.553, (0.6, 1.2, 2.4), scheme="smf", n=1, m=1)
        recs += synth_records(18.05, -1.535, (0.6, 1.2, 2.4), scheme="mrt", n=1, m=2)
        return recs

    def test_groups_sorted_and_complete(self):
        groups = group_records(self._mixed_records())
        assert list(groups) == [("mrt", 1, 2), ("smf", 1, 1)]
        assert all(len(g) == 3 for g in groups.values())

    def test_report_recovers_coefficients(self):
        report = fit_report(self._mixed_records())
        assert len(report["fits"]) == 2
        by_scheme = {f["scheme"]: f for f in report["fits"]}
        assert by_scheme["smf"]["a"] == pytest.approx(8.081, rel=1e-9)
        assert by_scheme["mrt"]["b"] == pytest.approx(-1.535, rel=1e-9)
        assert by_scheme["smf"]["log_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_format_round_trips_as_json(self):
        text = format_fit_report(fit_report(self._mixed_records()))
        parsed = json.loads(text)
        assert parsed["fits"][0]["n_records"] == 3

    def test_residual_rms_of_offset_fit(self):
        recs = synth_records(2.0, -1.5, (1.0, 2.0, 4.0))
        fit = PowerLawFit(a=2.0 * math.e, b=-1.5)
        assert log_residual_rms(fit, recs) == pytest.approx(1.0, rel=1e-12)


def write_records(path, records):
    """A measurement file of `records`, floats at nine significant digits."""
    rows = (
        [r.scheme, r.n_tones, r.m_antennas]
        + [format(v, ".9g") for v in (r.distance, r.p_dc)]
        for r in records
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(MEASUREMENT_FIELDS, rows))


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        recs = synth_records(8.081, -1.553, (0.6, 1.2), scheme="smf", n=8, m=1)
        path = tmp_path / "meas.csv"
        write_records(path, recs)
        loaded = read_measurements_csv(str(path))
        assert [r.scheme for r in loaded] == ["smf", "smf"]
        assert loaded[0].distance == pytest.approx(0.6, rel=1e-9)
        assert loaded[1].p_dc == pytest.approx(recs[1].p_dc, rel=1e-8)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scheme,n,m,d,p\nsmf,1,1,1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_measurements_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(MEASUREMENT_FIELDS) + "\n")
        with pytest.raises(ValueError, match="no rows"):
            read_measurements_csv(str(path))


measurement_records = st.builds(
    MeasurementRecord,
    scheme=st.sampled_from(["smf", "mrt", "up", "cw", "", "a,b", 'q"x']),
    n_tones=st.integers(1, 2**40),
    m_antennas=st.integers(1, 64),
    distance=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    p_dc=st.floats(allow_nan=False, allow_infinity=False),
)


class TestMeasurementCsvRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(measurement_records, min_size=1, max_size=8))
    def test_records_return_at_nine_digits_and_rewrite_identically(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            write_records(first, records)
            loaded = read_measurements_csv(first)
            write_records(second, loaded)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
        assert loaded == [
            MeasurementRecord(
                r.scheme, r.n_tones, r.m_antennas,
                float(format(r.distance, ".9g")), float(format(r.p_dc, ".9g")),
            )
            for r in records
        ]
