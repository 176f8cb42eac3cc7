"""The shared value rules: `positive_finite` for settings and arguments,
`integer_at_least` for counts, and `frozen_complex` for the arrays that value
classes hold."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptsim.channel import (
    ChannelModel,
    ChannelRealization,
    derive_seed,
    path_loss,
    sample_channel,
)
from wptsim.csi import CsiConfig, quantize_csi
from wptsim.design import design_cw, design_mrt, design_smf, design_up
from wptsim.fitlab import MeasurementRecord, PowerLawFit, invert_range
from wptsim.harness import ExperimentConfig
from wptsim.rectifier import RectifierParams, scaling_law_ca
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    frozen_complex,
    integer_at_least,
    positive_finite,
)

CHANNEL = ChannelRealization(np.array([[1.0 + 1j, -0.5j], [0.25, 2.0]]), 1.0)
ONE_TONE = ChannelRealization(CHANNEL.h[:1], 1.0)
GRID1, GRID2 = ToneGrid.for_band(1), ToneGrid.for_band(2)
WEIGHTS = PrecoderWeights(np.ones((2, 2)), GRID2)
PARAMS = RectifierParams()
FIT = PowerLawFit(8.0, -1.5)

FINITE = "must be positive and finite"
# A design doubles its budget, so the budget rule also bounds it above.
BUDGET = "must be positive and at most 8.98846567e+307, since the designs double it"

# (name of the checked argument, its rule, call with it set to the value)
CALLS = {
    "design_cw": ("p", BUDGET, lambda v: design_cw(v, GRID1)),
    "design_mrt": ("p", BUDGET, lambda v: design_mrt(ONE_TONE, v, GRID1)),
    "design_up": ("p", BUDGET, lambda v: design_up(CHANNEL, v, GRID2)),
    "design_smf/p": ("p", BUDGET, lambda v: design_smf(CHANNEL, v, GRID2)),
    "design_smf/beta": (
        "beta", FINITE, lambda v: design_smf(CHANNEL, 1.0, GRID2, beta=v)
    ),
    "scaling_law_ca/path_loss": (
        "path_loss", FINITE, lambda v: scaling_law_ca(PARAMS, v, 1.0, 8, 2)
    ),
    "scaling_law_ca/p": (
        "p", FINITE, lambda v: scaling_law_ca(PARAMS, 263.0, v, 8, 2)
    ),
    "invert_range": ("p_target", FINITE, lambda v: invert_range(FIT, v)),
    "path_loss": ("distance", FINITE, lambda v: path_loss(ChannelModel(), v)),
    "ToneGrid.for_band/f0": ("f0", FINITE, lambda v: ToneGrid.for_band(8, f0=v)),
    "ToneGrid.for_band/band_limit": (
        "band_limit", FINITE, lambda v: ToneGrid.for_band(8, band_limit=v)
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_arguments_outside_the_rule_are_named(call, value):
    name, rule, run = CALLS[call]
    with pytest.raises(ValueError) as err:
        run(value)
    assert str(err.value) == f"{name} {rule}"


class TestPositiveFinite:
    def test_first_offender_in_argument_order_is_named(self):
        with pytest.raises(ValueError, match="^b must be positive and finite$"):
            positive_finite(a=1.0, b=np.nan, c=-1.0)

    def test_positive_finite_values_pass(self):
        positive_finite(a=5e-324, b=1.7e308, c=3)


class TestFrozenComplex:
    def test_read_only_complex_copy(self):
        source = np.array([[1.0, 2.0]])
        array = frozen_complex(source, "x", ("n_tones", "m_antennas"))
        assert array.dtype == np.complex128 and not array.flags.writeable
        source[0, 0] = 7.0
        assert array[0, 0] == 1.0

    def test_too_few_axes_named(self):
        message = "x must be at least 2-D: (..., n_tones, m_antennas)"
        with pytest.raises(ValueError, match=re.escape(message)):
            frozen_complex([1.0, 2.0], "x", ("n_tones", "m_antennas"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entries_named(self, bad):
        with pytest.raises(ValueError, match="^a entries must be finite$"):
            frozen_complex([1.0, bad], "a", ("n_tones",))


# (name the message gives, smallest count, call with that count set to the value)
COUNT_SITES = {
    "ToneGrid": ("n_tones", 1, lambda v: ToneGrid(2.4e9, 1e6, v)),
    "ToneGrid.for_band": ("n_tones", 1, lambda v: ToneGrid.for_band(v)),
    "ChannelModel": ("n_taps", 1, lambda v: ChannelModel(n_taps=v)),
    "sample_channel": (
        "m_antennas", 1, lambda v: sample_channel(ChannelModel(), WEIGHTS.grid, v, 1)
    ),
    "MeasurementRecord/n_tones": (
        "n_tones", 1, lambda v: MeasurementRecord("smf", v, 1, 1.0, 1.0)
    ),
    "MeasurementRecord/m_antennas": (
        "m_antennas", 1, lambda v: MeasurementRecord("smf", 1, v, 1.0, 1.0)
    ),
    "scaling_law_ca/n_tones": (
        "n_tones", 1, lambda v: scaling_law_ca(PARAMS, 263.0, 1.0, v, 2)
    ),
    "scaling_law_ca/m_antennas": (
        "m_antennas", 1, lambda v: scaling_law_ca(PARAMS, 263.0, 1.0, 8, v)
    ),
    "CsiConfig": ("quant_bits", 2, lambda v: CsiConfig(quant_bits_per_component=v)),
    "quantize_csi": ("quant_bits", 2, lambda v: quantize_csi(CHANNEL.h, v)),
    "validate/tones": (
        "tones", 1, lambda v: ExperimentConfig(tone_counts=(1, v)).validate()
    ),
    "validate/antennas": (
        "antennas", 1, lambda v: ExperimentConfig(antenna_counts=(v, 2)).validate()
    ),
    "validate/realizations": (
        "realizations", 1, lambda v: ExperimentConfig(realizations=v).validate()
    ),
    "validate/seed": ("seed", 0, lambda v: ExperimentConfig(seed=v).validate()),
}


def bad_counts(minimum):
    """Fractions, bools and integers below `minimum`, Python and numpy."""
    return st.one_of(
        st.integers(max_value=minimum - 1),
        st.integers(-(2**63), minimum - 1).map(np.int64),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1e6, 1e6).map(np.float64),
        st.booleans(),
        st.sampled_from([np.True_, np.False_, Fraction(5, 2), "3", None]),
    )


def good_counts(minimum):
    """Integers from `minimum` up, Python and numpy."""
    small = st.integers(minimum, minimum + 6)
    return st.one_of(small, small.map(np.int64), small.map(np.uint8))


@st.composite
def site_and_bad_count(draw):
    site = draw(st.sampled_from(sorted(COUNT_SITES)))
    value = draw(bad_counts(COUNT_SITES[site][1]))
    # quant_bits_per_component = None turns quantization off.
    return site, 1 if site == "CsiConfig" and value is None else value


@st.composite
def site_and_good_count(draw):
    site = draw(st.sampled_from(sorted(COUNT_SITES)))
    return site, draw(good_counts(COUNT_SITES[site][1]))


class TestIntegerAtLeast:
    @settings(max_examples=300, deadline=None)
    @given(site_and_bad_count())
    # Before, for_band compared these with 1 first and raised a TypeError.
    @example(("ToneGrid.for_band", "3"))
    @example(("ToneGrid.for_band", None))
    def test_every_count_site_names_its_field(self, case):
        site, value = case
        name, minimum, run = COUNT_SITES[site]
        with pytest.raises(ValueError, match=f"{name} must be an integer >= {minimum}$"):
            run(value)

    @settings(max_examples=150, deadline=None)
    @given(site_and_good_count())
    def test_every_count_site_accepts_integers(self, case):
        site, value = case
        COUNT_SITES[site][2](value)

    def test_first_offender_in_argument_order_is_named(self):
        with pytest.raises(ValueError, match="^b must be an integer >= 1$"):
            integer_at_least(1, a=1, b=True, c=0)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.floats(), st.integers(max_value=-1), st.just("3"), st.none()))
    @example(2.5)
    def test_derive_seed_takes_only_non_negative_integers(self, value):
        # Before, int() truncated 2.5 to 2 and read "3" as 3.
        for args in ((7, value), (value, 3)):
            with pytest.raises(ValueError, match="non-negative integers"):
                derive_seed(*args)
