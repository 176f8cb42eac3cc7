"""Transmit designs: CW, maximum-ratio transmission, uniform-power multisine,
and the scaled matched filter.

All adaptive designs align per-tone phases with the conjugate channel, so the
received tones add coherently; they differ only in how amplitude is spread
across tones and antennas.  Every design radiates exactly its power budget.

Designs work on the last two axes of the channel array, so a batch of
realizations (leading axes of ``h``) is designed in one call and a single
realization is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .signals import PrecoderWeights, ToneGrid

CW = "cw"
MRT = "mrt"
UP = "up"
SMF = "smf"
SCHEME_KINDS = (CW, MRT, UP, SMF)

DEFAULT_BETA = 3.0


@dataclass(frozen=True)
class DesignScheme:
    """A named design plus the parameters needed to apply it."""

    kind: str
    power_budget: float = 1.0
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}")
        if not 0 < self.power_budget < np.inf:
            raise ValueError("power_budget must be positive and finite")
        if self.kind == SMF and not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite for smf")


def _resolve_grid(channel: ChannelRealization, grid: ToneGrid | None) -> ToneGrid:
    if grid is None:
        return ToneGrid.for_band(channel.n_tones)
    if grid.n_tones != channel.n_tones:
        raise ValueError(
            f"grid has {grid.n_tones} tones but the channel has {channel.n_tones}"
        )
    return grid


def design_cw(
    p: float, grid: ToneGrid | None = None, batch_shape: tuple[int, ...] = ()
) -> PrecoderWeights:
    """Single tone, single antenna, amplitude sqrt(2 p), zero phase.

    The weights have shape ``(*batch_shape, 1, 1)``.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if grid is None:
        grid = ToneGrid.for_band(1)
    if grid.n_tones != 1:
        raise ValueError("CW uses a single-tone grid")
    w = np.full((*batch_shape, 1, 1), math.sqrt(2.0 * p), dtype=np.complex128)
    return PrecoderWeights(w, grid)


def design_mrt(
    channel: ChannelRealization, p: float, grid: ToneGrid | None = None
) -> PrecoderWeights:
    """Single-tone conjugate beamformer: w = sqrt(2 p) conj(h) / ||h||."""
    if not p > 0:
        raise ValueError("p must be positive")
    if channel.n_tones != 1:
        raise ValueError("MRT is a single-tone design; channel must have n_tones = 1")
    h = channel.h[..., 0, :]
    # One 1-D norm per realization: batched norms round differently.
    rows = h.reshape(-1, channel.m_antennas)
    norms = np.array([np.linalg.norm(row) for row in rows]).reshape(h.shape[:-1])
    if np.any(norms == 0.0):
        raise ValueError("cannot beamform on an all-zero channel")
    w = (math.sqrt(2.0 * p) / norms)[..., None, None] * np.conj(h)[..., None, :]
    return PrecoderWeights(w, _resolve_grid(channel, grid))


def design_up(
    channel: ChannelRealization, p: float, grid: ToneGrid | None = None
) -> PrecoderWeights:
    """Uniform-power multisine: equal amplitudes, channel-conjugate phases.

    Every entry has amplitude sqrt(2 p / (N M)); entry (n, m) carries the
    negated channel phase so the received tones still combine coherently.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    amp = math.sqrt(2.0 * p / (channel.n_tones * channel.m_antennas))
    w = amp * np.exp(-1j * channel.phases)
    return PrecoderWeights(w, _resolve_grid(channel, grid))


def design_smf(
    channel: ChannelRealization,
    p: float,
    beta: float = DEFAULT_BETA,
    grid: ToneGrid | None = None,
) -> PrecoderWeights:
    """Scaled matched filter: per-tone MRT with amplitude emphasis beta.

    Row n is proportional to ||h_n||^(beta - 1) conj(h_n), so each tone's
    power scales as ||h_n||^(2 beta): beta > 1 concentrates power on strong
    tones, beta = 1 is the plain matched filter, and for a single tone the
    result reduces exactly to MRT for any beta.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if not beta > 0:
        raise ValueError("beta must be positive")
    norms = np.linalg.norm(channel.h, axis=-1)
    alive = norms > 0
    if not np.all(np.any(alive, axis=-1)):
        raise ValueError("cannot design on an all-zero channel")
    shape = np.zeros_like(channel.h)
    shape[alive] = norms[alive][:, None] ** (beta - 1.0) * np.conj(channel.h[alive])
    scale = np.sqrt(2.0 * p / np.sum(norms ** (2.0 * beta), axis=-1))
    return PrecoderWeights(scale[..., None, None] * shape, _resolve_grid(channel, grid))


def effective_channel(
    scheme: DesignScheme, channel: ChannelRealization
) -> ChannelRealization:
    """Channel slice a scheme actually occupies.

    CW radiates one tone from one antenna, so it rides the (tone 0,
    antenna 0) sub-channel of whatever realization is in play; adaptive
    schemes use the full realization.
    """
    if scheme.kind == CW:
        return ChannelRealization(
            h=channel.h[..., :1, :1],
            path_loss=channel.path_loss,
            distance=channel.distance,
        )
    return channel


def apply_design(
    scheme: DesignScheme,
    channel: ChannelRealization,
    grid: ToneGrid | None = None,
) -> PrecoderWeights:
    """Design weights for `scheme` from a channel realization.

    For CW the channel only fixes which sub-carrier is used; pair the
    returned weights with `effective_channel` when evaluating reception.
    """
    if scheme.kind == CW:
        cw_grid = grid.single_tone() if grid is not None else ToneGrid.for_band(1)
        return design_cw(scheme.power_budget, cw_grid, channel.h.shape[:-2])
    if scheme.kind == MRT:
        return design_mrt(channel, scheme.power_budget, grid)
    if scheme.kind == UP:
        return design_up(channel, scheme.power_budget, grid)
    return design_smf(channel, scheme.power_budget, scheme.beta, grid)
