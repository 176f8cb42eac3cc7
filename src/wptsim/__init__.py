"""Simulator and analysis toolkit for multisine wireless power transfer.

Builds far-field power-delivery links out of small composable pieces: tone
grids and precoders (`signals`), fading channels with power-law path loss
(`channel`), transmit designs (`design`), a nonlinear rectifier output model
(`rectifier`), simulated CSI acquisition (`csi`), power-law range analysis
and the reference claim checks (`fitlab`), and a deterministic Monte-Carlo
harness with a CLI (`harness`, `cli`).
"""

from .channel import (
    ChannelModel,
    ChannelRealization,
    derive_seed,
    make_rng,
    path_loss,
    sample_channel,
)
from .csi import CsiConfig, csi_loop_zdc, ls_estimate, quantize_csi
from .design import (
    DesignScheme,
    apply_design,
    design_cw,
    design_mrt,
    design_smf,
    design_up,
    effective_channel,
)
from .fitlab import (
    MeasurementRecord,
    PAPER_COEFFICIENTS,
    PowerLawFit,
    compose_cumulative,
    fit_power_law,
    invert_range,
    paper_baseline,
    paper_check,
    paper_fit,
    range_gain,
)
from .harness import ExperimentConfig, run_cdf, run_sweep
from .rectifier import (
    ReceivedTones,
    RectifierParams,
    moment2,
    moment4,
    received_tones,
    scaling_law_ca,
    z_dc,
    z_dc_time_oracle,
)
from .signals import (
    PrecoderWeights,
    ToneGrid,
    tx_power,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ChannelRealization",
    "CsiConfig",
    "DesignScheme",
    "ExperimentConfig",
    "MeasurementRecord",
    "PAPER_COEFFICIENTS",
    "PowerLawFit",
    "PrecoderWeights",
    "ReceivedTones",
    "RectifierParams",
    "ToneGrid",
    "apply_design",
    "compose_cumulative",
    "csi_loop_zdc",
    "derive_seed",
    "design_cw",
    "design_mrt",
    "design_smf",
    "design_up",
    "effective_channel",
    "fit_power_law",
    "invert_range",
    "ls_estimate",
    "make_rng",
    "moment2",
    "moment4",
    "paper_baseline",
    "paper_check",
    "paper_fit",
    "path_loss",
    "quantize_csi",
    "range_gain",
    "received_tones",
    "run_cdf",
    "run_sweep",
    "sample_channel",
    "scaling_law_ca",
    "tx_power",
    "z_dc",
    "z_dc_time_oracle",
]
