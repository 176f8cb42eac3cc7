"""Nonlinear rectifier output model and its exact ensemble-mean law.

The harvested DC quantity is a truncated polynomial of the received signal:
a second-order term proportional to the time-average of y(t)^2 and a
fourth-order term proportional to the time-average of y(t)^4.  For a
multisine on an evenly spaced tone grid narrower than twice its base
frequency both averages have exact closed forms in the per-tone complex
amplitudes, and `check_comb` states that limit.  `z_dc_time_oracle`
recomputes both averages from one exactly sampled period of y(t)
(`signals.period_samples`) as an independent check.

Tone amplitudes are array-first: ``a`` has shape ``(..., n_tones)``, and the
moments and `z_dc` return one value per leading index, or a float for a
single reception.  The time oracle takes a single reception only, on a grid
that `period_samples` can sample exactly: its comb rule N - 1 < 2 q0 holds on
the grid snapped to q0 = round(f0 / delta_f) harmonics of delta_f.

`scaling_law_ca` is the exact mean of `z_dc` over i.i.d. Rayleigh fading
across antennas for SMF on a one-tap channel, MRT, and CW (N = M = 1); it is
the oracle of the Monte-Carlo sweep means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .signals import (
    PrecoderWeights,
    ToneGrid,
    frozen_complex,
    integer_at_least,
    per_realization,
    period_samples,
    positive_finite,
    require_single,
)

DEFAULT_K2 = 0.0034
DEFAULT_K4 = 0.3829
DEFAULT_R_ANT = 50.0


@dataclass(frozen=True)
class RectifierParams:
    """Polynomial rectifier coefficients and antenna resistance (ohms)."""

    k2: float = DEFAULT_K2
    k4: float = DEFAULT_K4
    r_ant: float = DEFAULT_R_ANT

    def __post_init__(self) -> None:
        positive_finite(k2=self.k2, k4=self.k4, r_ant=self.r_ant)


def check_comb(grid: ToneGrid) -> None:
    """Reject a comb whose occupied bandwidth, as computed, reaches 2 f0."""
    occupied = (grid.n_tones - 1) * grid.delta_f
    if not occupied < 2.0 * grid.f0:
        raise ValueError(
            f"f0/band_limit: occupied bandwidth {occupied:g} Hz must stay below "
            f"2*f0 = {2.0 * grid.f0:g} Hz: wider combs beat three-tone sums to "
            "DC, which the closed-form rectifier moments omit"
        )


@dataclass(frozen=True)
class ReceivedTones:
    """Rectifier-input tone amplitudes a[..., n] on a grid passing `check_comb`."""

    a: np.ndarray
    grid: ToneGrid

    def __post_init__(self) -> None:
        a = frozen_complex(self.a, "a", ("n_tones",))
        if a.shape[-1] != self.grid.n_tones:
            raise ValueError(
                f"a has {a.shape[-1]} tones but the grid has {self.grid.n_tones}"
            )
        check_comb(self.grid)
        object.__setattr__(self, "a", a)

    @property
    def n_tones(self) -> int:
        return self.a.shape[-1]


def received_tones(
    weights: PrecoderWeights, channel: ChannelRealization
) -> ReceivedTones:
    """Combine weights and channel: a_n = path_loss^{-1/2} sum_m h[n,m] w[n,m]."""
    if channel.h.shape != weights.w.shape:
        raise ValueError(
            f"channel dimensions {channel.h.shape} do not match weight "
            f"dimensions {weights.w.shape}"
        )
    a = (channel.h * weights.w).sum(axis=-1) / np.sqrt(channel.path_loss)
    return ReceivedTones(a=a, grid=weights.grid)


def moment2(tones: ReceivedTones):
    """Time-average of y(t)^2: half the summed tone powers."""
    return per_realization(np.sum(np.abs(tones.a) ** 2, axis=-1) / 2.0)


def moment4(tones: ReceivedTones):
    """Time-average of y(t)^4: (3/8) sum_k |c_k|^2 with c = a * a.

    Only quadruples of tone indices with n0 + n1 = n2 + n3 survive time
    averaging on an evenly spaced grid narrower than 2 f0, each contributing
    with weight 3/8.  Grouping them by k = n0 + n1 turns their sum into the
    energy of the autoconvolution c_k = sum_{n0+n1=k} a_n0 a_n1:

        sum_{n0+n1=n2+n3} a_n0 a_n1 conj(a_n2) conj(a_n3) = sum_k |c_k|^2,

    which is real and non-negative by construction.  Each reception gets its
    own 1-D convolution and dot product; batched forms round differently.
    """
    rows = tones.a.reshape(-1, tones.n_tones)
    energy = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        c = np.convolve(row, row)
        energy[i] = np.vdot(c, c).real
    return per_realization(0.375 * energy.reshape(tones.a.shape[:-1]))


def z_dc(tones: ReceivedTones, params: RectifierParams):
    """Rectifier DC output k2 R m2 + k4 R^2 m4 (model units), per reception.

    Finite tones can still overflow the fourth moment or the output; that
    raises ValueError rather than returning inf or nan (`_dc_output`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _dc_output(moment2(tones), moment4(tones), params)


def _dc_output(m2, m4, params: RectifierParams):
    """k2 R m2 + k4 R^2 m4, the output of `z_dc` and `z_dc_time_oracle` under
    their np.errstate; ValueError "z_dc overflows: ..." where it is not finite."""
    # R * R overflows to inf, which is reported below; R**2 would raise.
    r2 = params.r_ant * params.r_ant
    z = params.k2 * params.r_ant * m2 + params.k4 * r2 * m4
    if not np.isfinite(z).all():
        raise ValueError(
            "z_dc overflows: it grows with power_budget, k2, k4 and r_ant and "
            "falls with the path loss (path_loss_ref, path_loss_exponent, distance)"
        )
    return z


def z_dc_time_oracle(tones: ReceivedTones, params: RectifierParams) -> float:
    """Recompute z_dc from the averages of y^2 and y^4 over one exactly
    sampled period of y(t) (`signals.period_samples`, which rejects a grid it
    cannot sample exactly); `_dc_output` combines them as `z_dc` does."""
    require_single(tones.a, core_ndim=1)
    y = period_samples(tones.grid, tones.a)
    with np.errstate(over="ignore", invalid="ignore"):
        return _dc_output(float(np.mean(y**2)), float(np.mean(y**4)), params)


def scaling_law_ca(
    params: RectifierParams,
    path_loss: float,
    p: float,
    n_tones: int,
    m_antennas: int,
) -> float:
    """Exact ensemble mean of `z_dc` over i.i.d. CN(0, 1) antenna fading:

        k2 R p M / L + (3/8) k4 R^2 (2 p / (N L))^2 Q(N) M (M + 1),

    where Q(N) = (2 N^3 + N) / 3 counts the tone quadruples with
    n0 + n1 = n2 + n3, M (M + 1) is E ||h||^4 over M antennas, and the
    budget p is spread evenly over N tones.  It is exact for SMF with any
    beta on a one-tap channel, for MRT (N = 1) on any tapped-delay channel,
    and for CW on any channel at N = M = 1, because CW rides the (tone 0,
    antenna 0) sub-channel; there it is k2 R p / L + 3 k4 R^2 p^2 / L^2.
    It does not cover UP, or multi-tone SMF on a tapped-delay channel.
    """
    positive_finite(path_loss=path_loss, p=p)
    integer_at_least(1, n_tones=n_tones, m_antennas=m_antennas)
    n, m = int(n_tones), int(m_antennas)  # numpy counts such as uint8 wrap
    try:
        second = params.k2 * params.r_ant * p * m / path_loss
        fourth = (
            0.375 * params.k4 * params.r_ant**2 * (2.0 * p / (n * path_loss)) ** 2
            * ((2 * n**3 + n) // 3) * m * (m + 1)
        )
        mean = second + fourth
    except OverflowError:  # a float power, or a count too large for a float
        mean = math.inf
    if not math.isfinite(mean):
        raise ValueError(
            "scaling_law_ca overflows: it grows with p, k2, k4, r_ant, n_tones "
            "and m_antennas and falls with path_loss"
        )
    return mean
