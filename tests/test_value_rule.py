"""The shared value rules: `positive_finite` for settings and arguments, and
`frozen_complex` for the arrays that value classes hold."""

import re

import numpy as np
import pytest

from wptsim.channel import ChannelModel, ChannelRealization, path_loss
from wptsim.design import design_cw, design_mrt, design_smf, design_up
from wptsim.fitlab import PowerLawFit, invert_range, predict_pdc
from wptsim.rectifier import RectifierParams, scaling_law_ca, scaling_law_cw
from wptsim.signals import (
    PrecoderWeights,
    ToneGrid,
    frozen_complex,
    normalize_power,
    positive_finite,
)

CHANNEL = ChannelRealization(np.array([[1.0 + 1j, -0.5j], [0.25, 2.0]]), 1.0, 1.0)
ONE_TONE = ChannelRealization(CHANNEL.h[:1], 1.0, 1.0)
WEIGHTS = PrecoderWeights(np.ones((2, 2)), ToneGrid.for_band(2))
PARAMS = RectifierParams()
FIT = PowerLawFit(8.0, -1.5)

# (name of the checked argument, call with that argument set to the value)
CALLS = {
    "design_cw": ("p", lambda v: design_cw(v)),
    "design_mrt": ("p", lambda v: design_mrt(ONE_TONE, v)),
    "design_up": ("p", lambda v: design_up(CHANNEL, v)),
    "design_smf/p": ("p", lambda v: design_smf(CHANNEL, v)),
    "design_smf/beta": ("beta", lambda v: design_smf(CHANNEL, 1.0, beta=v)),
    "normalize_power": ("p", lambda v: normalize_power(WEIGHTS, v)),
    "scaling_law_cw/path_loss": ("path_loss", lambda v: scaling_law_cw(PARAMS, v, 1.0)),
    "scaling_law_cw/p": ("p", lambda v: scaling_law_cw(PARAMS, 263.0, v)),
    "scaling_law_ca/path_loss": (
        "path_loss", lambda v: scaling_law_ca(PARAMS, v, 1.0, 8, 2)
    ),
    "scaling_law_ca/p": ("p", lambda v: scaling_law_ca(PARAMS, 263.0, v, 8, 2)),
    "predict_pdc": ("distance", lambda v: predict_pdc(FIT, v)),
    "invert_range": ("p_target", lambda v: invert_range(FIT, v)),
    "path_loss": ("distance", lambda v: path_loss(ChannelModel(), v)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_arguments_outside_the_rule_are_named(call, value):
    name, run = CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        run(value)


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
