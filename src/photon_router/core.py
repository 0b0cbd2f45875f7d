"""Domain types and port bookkeeping for the cavity photon router.

The device: a single-mode cavity side-coupled to two waveguides. Each
waveguide carries right- and left-moving photons, giving four propagating
channels. Optical circulators split every channel into one input port and
one output port:

    input port 1 -> (waveguide 1, right)   output port 2
    input port 2 -> (waveguide 1, left)    output port 1
    input port 3 -> (waveguide 2, right)   output port 4
    input port 4 -> (waveguide 2, left)    output port 3

All rates and frequencies are expressed in units of the waveguide-1 coupling
rate gamma1 (so gamma1 is canonically 1.0); nothing enforces gamma1 == 1 so
that analytic and time-domain paths can share arbitrary scales. Detunings
follow the convention delta = omega_c - omega throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np


class RouterError(Exception):
    """Base class for router simulation errors."""


class ParameterError(RouterError, ValueError):
    """Invalid physical configuration."""


class NonPositiveGamma1(ParameterError):
    """gamma1 sets the unit scale and must be > 0."""


class NegativeRate(ParameterError):
    """Decay rates and mean photon numbers cannot be negative."""


class NonFinite(ParameterError):
    """All rates and frequencies must be finite."""


class QuadratureUnderResolved(RouterError):
    """Frequency quadrature did not converge under step halving."""


class GridTooCoarse(RouterError):
    """Time grid violates the step or length requirements."""


class GridTooLarge(RouterError):
    """Time grid needs more RK4 steps than the oracle's ceiling."""


class PulseNotContained(RouterError):
    """Pulse envelope (or cavity ring-down) leaks outside the time window."""


class Channel(Enum):
    """One propagating waveguide channel: (waveguide index, direction)."""

    R1 = (1, "right")
    L1 = (1, "left")
    R2 = (2, "right")
    L2 = (2, "left")

    @property
    def waveguide(self) -> int:
        return self.value[0]

    @property
    def direction(self) -> str:
        return self.value[1]


CHANNELS = (Channel.R1, Channel.L1, Channel.R2, Channel.L2)

_INPUT_PORT_TO_CHANNEL = {1: Channel.R1, 2: Channel.L1, 3: Channel.R2, 4: Channel.L2}
# Circulators route the scattered field of each channel to the port on the
# other side of the cavity: right-movers of waveguide 1 exit at port 2, etc.
_OUTPUT_CHANNEL_TO_PORT = {Channel.R1: 2, Channel.L1: 1, Channel.R2: 4, Channel.L2: 3}


def channel_of_input_port(port: int) -> Channel:
    """Channel fed by the given input port (1..4)."""
    try:
        return _INPUT_PORT_TO_CHANNEL[port]
    except KeyError:
        raise ParameterError(f"input port must be 1..4, got {port!r}") from None


def port_of_output_channel(channel: Channel) -> int:
    """Output port label (1..4) that collects the given channel."""
    return _OUTPUT_CHANNEL_TO_PORT[channel]


@dataclass(frozen=True)
class RouterParams:
    """Physical configuration, all rates in units of gamma1.

    gamma1, gamma2: cavity decay rates into waveguides 1 and 2.
    gamma_c: cavity decay into non-waveguide modes (0 = lossless).
    omega_c: cavity resonance frequency (only differences matter).
    """

    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma_c: float = 0.0
    omega_c: float = 0.0

    @property
    def total_decay(self) -> float:
        """Total amplitude decay rate gamma1 + gamma2 + gamma_c."""
        return self.gamma1 + self.gamma2 + self.gamma_c

    def coupling(self, channel: Channel) -> float:
        """Decay rate into the waveguide carrying `channel`."""
        return self.gamma1 if channel.waveguide == 1 else self.gamma2


def validate(params: RouterParams) -> RouterParams:
    """Check RouterParams invariants; returns the params unchanged.

    Idempotent and side-effect-free. gamma2 == 0 is the valid two-port
    reduction, so only gamma1 must be strictly positive.
    """
    fields = (params.gamma1, params.gamma2, params.gamma_c, params.omega_c)
    if not all(math.isfinite(x) for x in fields):
        raise NonFinite(f"non-finite entry in {params}")
    if params.gamma1 <= 0.0:
        raise NonPositiveGamma1(f"gamma1 must be > 0, got {params.gamma1}")
    if params.gamma2 < 0.0 or params.gamma_c < 0.0:
        raise NegativeRate(f"negative decay rate in {params}")
    return params


@dataclass(frozen=True)
class CoherentDrive:
    """Monochromatic coherent input on one channel.

    |amplitude|^2 is the mean photon number; delta = omega_c - omega.
    """

    channel: Channel
    amplitude: complex
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and math.isfinite(self.delta)):
            raise NonFinite(f"non-finite entry in {self}")


@dataclass(frozen=True)
class WavePacket:
    """Gaussian coherent wave packet on one channel.

    Spectrum ~ exp(-(omega - omega0)^2 / (4 Omega^2)), full bandwidth
    2*Omega, integrated mean photon number mean_n, carrier phase `phase`.
    """

    channel: Channel
    mean_n: float
    omega0: float = 0.0
    Omega: float = 0.3
    phase: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.mean_n, self.omega0, self.Omega, self.phase)):
            raise NonFinite(f"non-finite entry in {self}")
        if self.mean_n < 0.0:
            raise NegativeRate(f"mean_n must be >= 0, got {self.mean_n}")
        if self.Omega <= 0.0:
            raise ParameterError(f"Omega must be > 0, got {self.Omega}")


@dataclass(frozen=True)
class OutputReport:
    """Mean output-photon numbers per channel plus totals.

    n_total is the sum over the four channels; loss = n_in - n_total is the
    flux absorbed by the cavity decay gamma_c (zero for lossless setups up
    to rounding/quadrature error). A report over a grid of points holds
    equal-shaped numpy arrays in place of the floats.
    """

    n_out: Mapping[Channel, float]
    n_in: float
    n_total: float
    loss: float

    @classmethod
    def from_channel_numbers(cls, n_out: Mapping[Channel, float], n_in: float) -> "OutputReport":
        if type(n_in) is np.ndarray or np.ndarray in map(type, n_out.values()):
            floor = -1e-12 * np.maximum(n_in, 1.0)
            clean = {}
            for ch in CHANNELS:
                v = np.asarray(n_out.get(ch, 0.0), dtype=float)
                clean[ch] = np.where((floor < v) & (v < 0.0), 0.0, v)
        else:
            n_in = float(n_in)
            clean = {}
            for ch in CHANNELS:
                v = float(n_out.get(ch, 0.0))
                if -1e-12 * max(n_in, 1.0) < v < 0.0:
                    v = 0.0  # rounding noise below the conservation tolerance
                clean[ch] = v
        total = clean[Channel.R1] + clean[Channel.L1] + clean[Channel.R2] + clean[Channel.L2]
        return cls(n_out=MappingProxyType(clean), n_in=n_in,
                   n_total=total, loss=n_in - total)

    @property
    def n_r1(self) -> float:
        return self.n_out[Channel.R1]

    @property
    def n_l1(self) -> float:
        return self.n_out[Channel.L1]

    @property
    def n_r2(self) -> float:
        return self.n_out[Channel.R2]

    @property
    def n_l2(self) -> float:
        return self.n_out[Channel.L2]

    def by_output_port(self) -> dict[int, float]:
        """Mean photon number keyed by output-port label."""
        return {port_of_output_channel(ch): self.n_out[ch] for ch in CHANNELS}
