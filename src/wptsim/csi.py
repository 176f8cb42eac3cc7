"""Simulated channel-state acquisition, every setting from one `CsiConfig`:
unit-pilot LS estimates, quantization, and the acquire-design-harvest frame
loop.

The loop mirrors how an adaptive transmitter actually operates: it never
sees the true channel, only a least-squares estimate corrupted by receiver
noise and coarsened by fixed-point feedback, yet harvested power is always
evaluated through the true channel.

Like the design and rectifier layers, everything here works on the last two
axes of the channel array; leading axes are independent realizations, each
with its own noise seed.  The frame loop designs on the tone grid it is
given, as `apply_design` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization, seed_array, unit_normals
from .design import ChannelScaleError, DesignScheme, apply_design, effective_channel
from .rectifier import RectifierParams, received_tones, z_dc
from .signals import ToneGrid, frozen_complex, integer_at_least

# The quantizer's level count 2.0**bits overflows a float above this.
MAX_QUANT_BITS = np.finfo(float).maxexp - 1


def check_quant_bits(bits: int) -> None:
    """Reject quantizer bits outside [2, MAX_QUANT_BITS], naming the key."""
    integer_at_least(2, quant_bits=bits)
    if bits > MAX_QUANT_BITS:
        raise ValueError(
            f"quant_bits must be at most {MAX_QUANT_BITS}: 2.0**quant_bits overflows"
        )


@dataclass(frozen=True)
class CsiConfig:
    """Acquisition settings for one feedback frame.

    The estimate error of each coefficient is CN(0, `noise_variance`), the
    noise of a unit pilot.  `quant_bits_per_component` sets the quantizer of
    each real and each imaginary part: b bits give `quantize_csi`'s 2^b + 1
    levels, so the default 8 gives 257, one more than an 8-bit word holds.
    It is bounded by `check_quant_bits`; None disables quantization.
    Acquisition takes `acquisition_time`, a fraction of the frame in [0, 1);
    the default 0 leaves a duty factor of exactly 1.
    """

    noise_variance: float = 0.0
    quant_bits_per_component: int | None = 8
    acquisition_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be >= 0 and finite")
        if self.quant_bits_per_component is not None:
            check_quant_bits(self.quant_bits_per_component)
        if not 0 <= self.acquisition_time < 1:
            raise ValueError("acquisition_time must be >= 0 and below 1")

    @property
    def duty_factor(self) -> float:
        """Fraction of the frame left for power delivery."""
        return 1.0 - self.acquisition_time


def ls_estimate(h: np.ndarray, noise_seed, cfg: CsiConfig) -> np.ndarray:
    """Least-squares estimate h + noise of channel `h` sounded by a unit pilot.

    The noise is CN(0, noise_variance) per entry.  `noise_seed` is one
    integer seed (the batch of one), or an array-like of seeds matching the
    leading axes of `h`, each of which draws the trailing block it indexes
    exactly as `complex_normal(make_rng(seed), shape)` would; seeds must be
    integers in [0, 2**64), the range `derive_seed` yields.  The draws come
    from `unit_normals`, which re-keys the process's one Philox per seed.
    The unit draw is taken before scaling, so sweeping the variance with
    fixed seeds reuses one noise direction.  A channel with a non-finite
    entry raises ValueError; a finite one cannot overflow, since
    sqrt(noise_variance) < 1.4e154 is far under half an ulp (1e292) of the
    largest float.
    """
    h = np.asarray(h, dtype=np.complex128)
    seeds = seed_array(noise_seed, "noise_seed")
    if h.shape[: seeds.ndim] != seeds.shape:
        raise ValueError(
            f"noise seeds of shape {seeds.shape} do not match the leading "
            f"axes of the channel shape {h.shape}"
        )
    unit = unit_normals(seeds, h.shape[seeds.ndim :])
    estimate = h + np.sqrt(cfg.noise_variance) * unit
    if not np.isfinite(estimate).all():
        raise ValueError("h entries must be finite")
    return estimate


def quantize_csi(h: np.ndarray, bits_per_component: int) -> np.ndarray:
    """Midtread uniform quantizer on real and imaginary parts.

    Each matrix (the last two axes of `h`) has its own step X / ((2^b - 1) / 2),
    with X its largest component magnitude, and q(x) = step * round(x / step):
    zero is always representable and no component moves by more than half a
    step.  The peak sits at (2^b - 1) / 2 steps, a half-integer that mostly
    rounds to 2^(b-1), so the levels run from -2^(b-1) to 2^(b-1) steps:
    2^b + 1 of them, not 2^b.  A matrix whose step underflows to zero is returned
    unchanged (each component is already the nearest float to its level),
    and one with a level past the largest float raises ValueError.
    `bits_per_component` must pass `check_quant_bits`.
    """
    check_quant_bits(bits_per_component)
    h = frozen_complex(h, "h", ("n_tones", "m_antennas"))
    peak = np.maximum(
        np.max(np.abs(h.real), axis=(-2, -1), initial=0.0, keepdims=True),
        np.max(np.abs(h.imag), axis=(-2, -1), initial=0.0, keepdims=True),
    )
    # 2 * peak / (2^b - 1) overflows for a peak above max / 2; this cannot.
    step = peak / ((2.0**bits_per_component - 1.0) / 2.0)
    nonzero = step > 0.0
    step = np.where(nonzero, step, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        q = step * np.round(h.real / step) + 1j * step * np.round(h.imag / step)
    if not np.isfinite(q).all():
        raise ValueError(
            f"h: quant_bits = {bits_per_component} rounds its largest component "
            "to a level past the largest float"
        )
    return np.where(nonzero, q, h)


def csi_loop_zdc(
    true_channel: ChannelRealization,
    scheme: DesignScheme,
    cfg: CsiConfig,
    params: RectifierParams,
    seed,
    grid: ToneGrid,
):
    """One acquire-design-harvest frame; returns the delivered DC output.

    `ls_estimate` sounds every tone/antenna pair with the noise of `cfg`,
    and `quantize_csi` applies its bits unless they are None; the design is
    computed on `grid` (`apply_design`) from the noisy, quantized LS
    estimate and then evaluated through the true channel.  For a batched
    `true_channel`, `seed` holds one noise seed per realization and the
    result is an array of per-realization outputs, each scaled by
    `cfg.duty_factor`.
    Degenerate estimates (for example all zeros) raise just as they would in
    the design itself; an estimate whose scale the design cannot normalise
    raises ValueError that also names noise_variance.
    """
    estimate = ls_estimate(true_channel.h, seed, cfg)
    if cfg.quant_bits_per_component is not None:
        estimate = quantize_csi(estimate, cfg.quant_bits_per_component)
    believed = replace(true_channel, h=estimate)
    try:
        weights = apply_design(scheme, believed, grid)
    except ChannelScaleError as exc:
        raise ValueError(
            f"{exc}; the CSI estimate is the channel plus noise of standard "
            f"deviation sqrt(noise_variance) (noise_variance = {cfg.noise_variance:g})"
        ) from None
    tones = received_tones(weights, effective_channel(scheme, true_channel))
    return z_dc(tones, params) * cfg.duty_factor
