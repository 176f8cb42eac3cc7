"""Nonlinear rectifier output model and its closed-form scaling laws.

The harvested DC quantity is a truncated polynomial of the received signal:
a second-order term proportional to the time-average of y(t)^2 and a
fourth-order term proportional to the time-average of y(t)^4.  For a
multisine on an evenly spaced tone grid narrower than twice its base
frequency both averages have exact closed forms in the per-tone complex
amplitudes; `z_dc_time_oracle` recomputes them by brute-force time sampling
as an independent check.

Tone amplitudes are array-first: ``a`` has shape ``(..., n_tones)``, and the
moments and `z_dc` return one value per leading index, or a float for a
single reception.  The time oracle takes a single reception only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .signals import PrecoderWeights, ToneGrid, per_realization, require_single

DEFAULT_K2 = 0.0034
DEFAULT_K4 = 0.3829
DEFAULT_R_ANT = 50.0

# Time-oracle sample counts above this are almost certainly a mistaken grid
# (f0 huge relative to delta_f) rather than a real verification request.
_MAX_ORACLE_SAMPLES = 1 << 26


@dataclass(frozen=True)
class RectifierParams:
    """Polynomial rectifier coefficients and antenna resistance (ohms)."""

    k2: float = DEFAULT_K2
    k4: float = DEFAULT_K4
    r_ant: float = DEFAULT_R_ANT

    def __post_init__(self) -> None:
        for name in ("k2", "k4", "r_ant"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ReceivedTones:
    """Per-tone complex amplitudes a[..., n] seen at the rectifier input."""

    a: np.ndarray
    grid: ToneGrid

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=np.complex128)
        if a.ndim < 1:
            raise ValueError("a must be at least 1-D: (..., n_tones)")
        if a.shape[-1] != self.grid.n_tones:
            raise ValueError(
                f"a has {a.shape[-1]} tones but the grid has {self.grid.n_tones}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("a entries must be finite")
        occupied = (self.grid.n_tones - 1) * self.grid.delta_f
        if not occupied < 2.0 * self.grid.f0:
            raise ValueError(
                f"occupied bandwidth {occupied:g} Hz must stay below 2*f0 = "
                f"{2.0 * self.grid.f0:g} Hz (f0/band_limit): wider combs beat "
                "three-tone sums to DC, which the closed-form moments omit"
            )
        a.flags.writeable = False
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
    """Rectifier DC output k2 R m2 + k4 R^2 m4 (model units), per reception."""
    m2 = moment2(tones)
    m4 = moment4(tones)
    return params.k2 * params.r_ant * m2 + params.k4 * params.r_ant**2 * m4


def min_oracle_samples(tones: ReceivedTones) -> int:
    """Smallest admissible sample count for `z_dc_time_oracle`."""
    q0 = round(tones.grid.f0 / tones.grid.delta_f)
    return 8 * (q0 + tones.n_tones)


def z_dc_time_oracle(
    tones: ReceivedTones, params: RectifierParams, samples: int | None = None
) -> float:
    """Recompute z_dc by uniformly sampling y(t) over one waveform period.

    The comb is snapped to exact harmonics of delta_f (f0 rounded to an
    integer multiple), making the waveform periodic with period 1/delta_f.
    Sample phases are reduced modulo the sample count in integer arithmetic,
    so the sampled averages of y^2 and y^4 are exact up to rounding provided
    `samples` is at least 8 (f0 + N delta_f) / delta_f; fewer samples would
    alias fourth-order products onto DC and raise instead.
    """
    require_single(tones.a, core_ndim=1)
    needed = min_oracle_samples(tones)
    if needed > _MAX_ORACLE_SAMPLES:
        raise ValueError(
            "grid is too fine for the time oracle: "
            f"{needed} samples would be required"
        )
    if samples is None:
        samples = needed
    if samples < needed:
        raise ValueError(
            f"insufficient sampling rate: need at least {needed} samples, got {samples}"
        )
    if samples > _MAX_ORACLE_SAMPLES:
        raise ValueError(f"sample count {samples} is beyond the oracle's budget")
    q0 = round(tones.grid.f0 / tones.grid.delta_f)
    k = np.arange(samples, dtype=np.int64)
    y = np.zeros(samples)
    for n in range(tones.n_tones):
        idx = ((q0 + n) % samples) * k % samples
        y += (tones.a[n] * np.exp(2j * np.pi * idx / samples)).real
    m2 = float(np.mean(y**2))
    m4 = float(np.mean(y**4))
    return params.k2 * params.r_ant * m2 + params.k4 * params.r_ant**2 * m4


def scaling_law_cw(params: RectifierParams, path_loss: float, p: float) -> float:
    """Expected CW output over unit-variance fading.

    k2 R p / L + 3 k4 R^2 p^2 / L^2; the factor 3 is (3/2) times the
    fourth moment (= 2) of a unit-variance Rayleigh channel amplitude.
    """
    if not path_loss > 0:
        raise ValueError("path_loss must be positive")
    if not p > 0:
        raise ValueError("p must be positive")
    second = params.k2 * params.r_ant * p / path_loss
    fourth = 3.0 * params.k4 * params.r_ant**2 * p**2 / path_loss**2
    return second + fourth


def scaling_law_ca(
    params: RectifierParams,
    path_loss: float,
    p: float,
    n_tones: int,
    m_antennas: int,
) -> float:
    """Channel-adaptive multisine scaling: k2 R p M / L + k4 R^2 p^2 N M^2 / L^2.

    A trend law, not an exact mean: the second-order term grows linearly in
    antennas, the fourth-order term linearly in tones and quadratically in
    antennas.
    """
    if not path_loss > 0:
        raise ValueError("path_loss must be positive")
    if not p > 0:
        raise ValueError("p must be positive")
    if n_tones < 1:
        raise ValueError("n_tones must be >= 1")
    if m_antennas < 1:
        raise ValueError("m_antennas must be >= 1")
    second = params.k2 * params.r_ant * p * m_antennas / path_loss
    fourth = (
        params.k4 * params.r_ant**2 * p**2 * n_tones * m_antennas**2 / path_loss**2
    )
    return second + fourth
