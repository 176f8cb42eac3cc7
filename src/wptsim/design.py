"""Transmit designs: CW, maximum-ratio transmission, uniform-power multisine,
and the scaled matched filter.

All adaptive designs align per-tone phases with the conjugate channel, so the
received tones add coherently; they differ only in how amplitude is spread
across tones and antennas.  Every design radiates exactly its power budget.

Designs work on the last two axes of the channel array, so a batch of
realizations (leading axes of ``h``) is designed in one call and a single
realization is the batch of one.  Each design takes the tone grid it designs
on; none has a default.  A channel too large or too small for the
norm arithmetic raises ChannelScaleError, never zero or non-finite weights.
Channel norms are taken on rows scaled by a power of two (`_scaled_rows`),
so a nonzero row's norm never underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization
from .signals import PrecoderWeights, ToneGrid, positive_finite

CW = "cw"
MRT = "mrt"
UP = "up"
SMF = "smf"
SCHEME_KINDS = (CW, MRT, UP, SMF)

DEFAULT_BETA = 3.0

# The designs compute 2 * power_budget, which overflows a float above this.
MAX_POWER_BUDGET = np.finfo(float).max / 2


def check_power_budget(value: float, name: str = "power_budget") -> None:
    """Reject a budget outside (0, MAX_POWER_BUDGET], nan included, with the
    one message "<name> must be positive and at most ..."."""
    if not 0 < value <= MAX_POWER_BUDGET:
        raise ValueError(
            f"{name} must be positive and at most {MAX_POWER_BUDGET:.9g}, "
            "since the designs double it"
        )


@dataclass(frozen=True)
class DesignScheme:
    """A named design plus the parameters needed to apply it, and the one
    statement of their rules, worded by config key: the kind is one of
    `SCHEME_KINDS` ("schemes: unknown scheme 'x'"), the budget passes
    `check_power_budget`, and smf, the one scheme reading beta, needs it
    positive and finite."""

    kind: str
    power_budget: float = 1.0
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"schemes: unknown scheme {self.kind!r}")
        check_power_budget(self.power_budget)
        if self.kind == SMF:
            positive_finite(beta=self.beta)


class ChannelScaleError(ValueError):
    """A channel too large or too small in scale for a design's arithmetic."""


def _scaled_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h * 2^-e, e) with e[..., n] the `frexp` exponent of max |h[..., n, :]|,
    which the scaling brings into [0.5, 1); an all-zero row has e = 0.

    A row's squared norm then neither over- nor underflows, and its norm is
    `ldexp(norm(scaled row), e)`: bit for bit the unscaled norm wherever
    that stays in the normal range, and never 0 for a nonzero row.  A
    modulus beyond float range gives e = 0 and a norm that overflows.
    """
    # The row maxima as a reduction over the leading axis of the transpose,
    # across contiguous slabs: several times faster than over the short last
    # axis, and a maximum is exact, so the same values.
    e = np.frexp(np.abs(h.T, order="C").max(axis=0).T, order="C")[1]
    parts = np.ascontiguousarray(h).view(np.float64)  # re, im interleaved
    return np.ldexp(parts, -e[..., None]).view(np.complex128), e


def _check_weights(
    norms: np.ndarray,
    scale: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    action: str,
    inputs: str = "this power budget",
) -> None:
    """Raise unless weights `w`, normalised by `scale` from the `norms` of h
    over its last axis, radiate the power budget: a realization whose
    entries are all zero raises ValueError; a norm that overflows, or a
    scale that is not positive and finite (zero or non-finite weights),
    raises ChannelScaleError, the last naming the other `inputs` of the
    normalisation."""
    if (norms == 0.0).all(axis=-1).any():
        raise ValueError(f"cannot {action} on an all-zero channel")
    if not np.isfinite(norms).all():
        problem = "the channel norm overflows"
    elif not ((scale > 0.0).all() and np.isfinite(w).all()):
        problem = f"the power normalisation is not positive and finite for {inputs}"
    else:
        return
    # A real or imaginary part, not the modulus: finite for finite entries.
    peak = max(np.abs(h.real).max(), np.abs(h.imag).max())
    raise ChannelScaleError(
        f"cannot {action}: {problem} (largest channel entry magnitude {peak:.3g})"
    )


def design_cw(
    p: float, grid: ToneGrid, batch_shape: tuple[int, ...] = ()
) -> PrecoderWeights:
    """Single tone, single antenna, amplitude sqrt(2 p), zero phase.

    The weights have shape ``(*batch_shape, 1, 1)``, so `grid` must have one
    tone.
    """
    check_power_budget(p, "p")
    w = np.full((*batch_shape, 1, 1), math.sqrt(2.0 * p), dtype=np.complex128)
    return PrecoderWeights(w, grid)


def design_mrt(
    channel: ChannelRealization, p: float, grid: ToneGrid
) -> PrecoderWeights:
    """Single-tone conjugate beamformer: w = sqrt(2 p) conj(h) / ||h||.

    A norm that overflows and a normalisation sqrt(2 p) / ||h|| that is not
    positive and finite raise ChannelScaleError; an all-zero channel raises
    ValueError.
    """
    check_power_budget(p, "p")
    if channel.n_tones != 1:
        raise ValueError("MRT is a single-tone design; channel must have n_tones = 1")
    h = channel.h
    scaled, e = _scaled_rows(h)
    re, im = scaled.real, scaled.imag
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # Each (1, M) @ (M, 1) product is one BLAS dot, the one the 1-D
        # np.linalg.norm takes, so these norms keep its bits; a batched
        # norm(axis=-1) or einsum rounds differently.
        root = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
        norms = np.ldexp(root[..., 0], e)
        scale = math.sqrt(2.0 * p) / norms
        w = scale[..., None] * np.conj(h)
    _check_weights(norms, scale, w, h, "beamform")
    return PrecoderWeights(w, grid)


def design_up(channel: ChannelRealization, p: float, grid: ToneGrid) -> PrecoderWeights:
    """Uniform-power multisine: equal amplitudes, channel-conjugate phases.

    Every entry has amplitude sqrt(2 p / (N M)); entry (n, m) carries the
    negated channel phase so the received tones still combine coherently.
    """
    check_power_budget(p, "p")
    amp = math.sqrt(2.0 * p / (channel.n_tones * channel.m_antennas))
    w = amp * np.exp(-1j * channel.phases)
    return PrecoderWeights(w, grid)


def design_smf(
    channel: ChannelRealization,
    p: float,
    grid: ToneGrid,
    beta: float = DEFAULT_BETA,
) -> PrecoderWeights:
    """Scaled matched filter: per-tone MRT with amplitude emphasis beta.

    Row n is proportional to ||h_n||^(beta - 1) conj(h_n), so each tone's
    power scales as ||h_n||^(2 beta): beta > 1 concentrates power on strong
    tones, beta = 1 is the plain matched filter, and for a single tone the
    result reduces exactly to MRT for any beta.

    A tone norm that overflows and a normalisation
    sqrt(2 p / sum_n ||h_n||^(2 beta)) that is not positive and finite raise
    ChannelScaleError, the last naming beta, whose power can over- or
    underflow the sum; a realization whose tones are all zero raises
    ValueError.
    """
    check_power_budget(p, "p")
    positive_finite(beta=beta)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scaled, e = _scaled_rows(channel.h)
        norms = np.ldexp(np.linalg.norm(scaled, axis=-1), e)
        alive = norms > 0
        shape = np.zeros_like(channel.h)
        shape[alive] = norms[alive][:, None] ** (beta - 1.0) * np.conj(channel.h[alive])
        scale = np.sqrt(2.0 * p / np.sum(norms ** (2.0 * beta), axis=-1))
        w = scale[..., None, None] * shape
    _check_weights(
        norms, scale, w, channel.h, "design", f"this power budget and beta = {beta:g}"
    )
    return PrecoderWeights(w, grid)


def effective_channel(
    scheme: DesignScheme, channel: ChannelRealization
) -> ChannelRealization:
    """Channel slice a scheme actually occupies.

    CW radiates one tone from one antenna, so it rides the (tone 0,
    antenna 0) sub-channel of whatever realization is in play; adaptive
    schemes use the full realization.
    """
    if scheme.kind == CW:
        return replace(channel, h=channel.h[..., :1, :1])
    return channel


def apply_design(
    scheme: DesignScheme, channel: ChannelRealization, grid: ToneGrid
) -> PrecoderWeights:
    """Design weights for `scheme` from a channel realization on `grid`, which
    must have the channel's tone count.

    CW sends tone 0 of `grid`; pair its weights with `effective_channel` when
    evaluating reception.
    """
    if grid.n_tones != channel.n_tones:
        raise ValueError(
            f"grid has {grid.n_tones} tones but the channel has {channel.n_tones}"
        )
    if scheme.kind == CW:
        grid = replace(grid, n_tones=1)
        return design_cw(scheme.power_budget, grid, channel.h.shape[:-2])
    if scheme.kind == MRT:
        return design_mrt(channel, scheme.power_budget, grid)
    if scheme.kind == UP:
        return design_up(channel, scheme.power_budget, grid)
    return design_smf(channel, scheme.power_budget, grid, scheme.beta)
