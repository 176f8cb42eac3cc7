"""Simulated channel-state acquisition: pilot LS estimates, quantization,
and the acquire-design-harvest frame loop.

The loop mirrors how an adaptive transmitter actually operates: it never
sees the true channel, only a least-squares estimate corrupted by receiver
noise and coarsened by fixed-point feedback, yet harvested power is always
evaluated through the true channel.

Like the design and rectifier layers, everything here works on the last two
axes of the channel array; leading axes are independent realizations, each
with its own noise seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, seed_array, unit_normals
from .design import DesignScheme, apply_design, effective_channel
from .rectifier import RectifierParams, received_tones, z_dc
from .signals import ToneGrid


@dataclass(frozen=True)
class CsiConfig:
    """Acquisition settings for one feedback frame.

    `quant_bits_per_component` counts bits per real and per imaginary part
    of each coefficient (the default 8 + 8 matches a 16-bit feedback word);
    None disables quantization.  The acquisition overhead multiplier
    (frame_length - acquisition_time) / frame_length is only applied when
    `account_acquisition_time` is set.
    """

    pilot_amplitude: float = 1.0
    noise_variance: float = 0.0
    quant_bits_per_component: int | None = 8
    frame_length: float = 1.0
    acquisition_time: float = 0.080
    account_acquisition_time: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.pilot_amplitude < np.inf:
            raise ValueError("pilot_amplitude must be positive and finite")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be >= 0 and finite")
        if self.quant_bits_per_component is not None and (
            self.quant_bits_per_component < 2
        ):
            raise ValueError(
                "quant_bits_per_component must be >= 2 (or None): one bit "
                "rounds every component to zero"
            )
        if not 0 < self.frame_length < np.inf:
            raise ValueError("frame_length must be positive and finite")
        if not 0 < self.acquisition_time < self.frame_length:
            raise ValueError("acquisition_time must lie inside the frame")

    @property
    def duty_factor(self) -> float:
        """Fraction of the frame left for power delivery."""
        return (self.frame_length - self.acquisition_time) / self.frame_length


def ls_estimate(
    pilot: np.ndarray, received: np.ndarray, noise_seed, cfg: CsiConfig
) -> np.ndarray:
    """Least-squares channel estimate (received + noise) / pilot, per entry.

    Noise is CN(0, noise_variance).  `noise_seed` is one integer seed, or an
    array-like of seeds matching the leading axes of `pilot`, each of which
    draws the trailing block it indexes exactly as
    `complex_normal(make_rng(seed), shape)` would; seeds must be integers in
    [0, 2**64), the range `derive_seed` yields.  The unit draw is taken
    before scaling, so sweeping the variance with fixed seeds reuses one
    noise direction.  Unbiased, with per-entry error variance
    noise_variance / |pilot|^2.
    """
    pilot = np.asarray(pilot, dtype=np.complex128)
    received = np.asarray(received, dtype=np.complex128)
    if pilot.shape != received.shape:
        raise ValueError("pilot and received must have matching shapes")
    if np.any(pilot == 0):
        raise ValueError("pilot entries must be nonzero")
    seeds = seed_array(noise_seed, "noise_seed")
    if pilot.shape[: seeds.ndim] != seeds.shape:
        raise ValueError(
            f"noise seeds of shape {seeds.shape} do not match the leading "
            f"axes of the pilot shape {pilot.shape}"
        )
    unit = unit_normals(seeds, pilot.shape[seeds.ndim :])
    return (received + np.sqrt(cfg.noise_variance) * unit) / pilot


def quantize_csi(h: np.ndarray, bits_per_component: int) -> np.ndarray:
    """Midtread uniform quantizer on real and imaginary parts.

    Each matrix (the last two axes of `h`) has its own step 2 X / (2^b - 1),
    with X its largest component magnitude, and q(x) = step * round(x / step):
    zero is always representable and no component moves by more than half a
    step.  An all-zero matrix is returned unchanged.
    """
    if bits_per_component < 2:
        raise ValueError(
            "bits_per_component must be >= 2: one bit rounds every "
            "component to zero"
        )
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError("h must be at least 2-D: (..., n_tones, m_antennas)")
    if not np.all(np.isfinite(h)):
        raise ValueError("h entries must be finite")
    peak = np.maximum(
        np.max(np.abs(h.real), axis=(-2, -1), initial=0.0, keepdims=True),
        np.max(np.abs(h.imag), axis=(-2, -1), initial=0.0, keepdims=True),
    )
    nonzero = peak > 0.0
    step = np.where(nonzero, 2.0 * peak / (2.0**bits_per_component - 1.0), 1.0)
    q = step * np.round(h.real / step) + 1j * step * np.round(h.imag / step)
    return np.where(nonzero, q, h)


def csi_loop_zdc(
    true_channel: ChannelRealization,
    scheme: DesignScheme,
    cfg: CsiConfig,
    params: RectifierParams,
    seed,
    grid: ToneGrid | None = None,
):
    """One acquire-design-harvest frame; returns the delivered DC output.

    Pilots of amplitude `cfg.pilot_amplitude` sound every tone/antenna pair;
    the design is computed from the noisy, quantized LS estimate and then
    evaluated through the true channel.  For a batched `true_channel`,
    `seed` holds one noise seed per realization and the result is an array
    of per-realization outputs.  Degenerate estimates (for example quantized
    to all zeros) raise just as they would in the design itself.
    """
    pilot = np.full(
        true_channel.h.shape, cfg.pilot_amplitude, dtype=np.complex128
    )
    estimate = ls_estimate(pilot, pilot * true_channel.h, seed, cfg)
    if cfg.quant_bits_per_component is not None:
        estimate = quantize_csi(estimate, cfg.quant_bits_per_component)
    believed = ChannelRealization(
        h=estimate,
        path_loss=true_channel.path_loss,
        distance=true_channel.distance,
    )
    weights = apply_design(scheme, believed, grid)
    tones = received_tones(weights, effective_channel(scheme, true_channel))
    z = z_dc(tones, params)
    if cfg.account_acquisition_time:
        z *= cfg.duty_factor
    return z
