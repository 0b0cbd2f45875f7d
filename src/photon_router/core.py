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

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

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

    Each field is a float or a numpy array; arrays broadcast against each
    other and against the other inputs of a call, one rate set per element.
    The monochromatic layer (`validate`, the closed forms,
    `two_port_reduction`, and `cavity_amplitude`, `scatter` and
    `report_from_scatter`, the scattering map on (..., 4) amplitude arrays
    in CHANNELS order) accepts array rates. The packet quadrature and the
    time-domain oracle take one rate set per call and raise ParameterError
    for arrays; their packets' mean_n and phase may be arrays (WavePacket).
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


def holds(ok) -> bool:
    """Whether every element of the bool or bool array `ok` is True.

    A 0-d `ok`, as comparisons of scalars give, needs no numpy reduction,
    whose fixed cost would dominate a scalar call.
    """
    return bool(ok) if getattr(ok, "shape", ()) == () else bool(ok.all())


def require(ok, error: type[RouterError], what: str, value) -> None:
    """Raise `error` unless `ok` holds for every element of `value`.

    `ok` is a bool or a bool array of the shape of `value`; the one-line
    message names the first failing element and, for arrays, its flat index.
    """
    if holds(ok):
        return
    value = np.asarray(value)
    if value.ndim == 0:
        raise error(f"{what}, got {value.item()!r}")
    index = int(np.argmin(ok))
    raise error(f"{what}, got {value.ravel()[index].item()!r} at index {index}")


_REAL = np.dtype(float)


def require_finite(**values) -> None:
    """Raise NonFinite for the first named value holding a NaN or inf.

    Values are real scalars or real numeric arrays of any shapes;
    ParameterError, naming the value and its type, for any other value: a
    complex number or array, a list, a str.
    """
    finite = True
    for name, value in values.items():
        if type(value) is float:    # the common case, never complex
            if not abs(value) < math.inf:   # NaN too
                finite = False
            continue
        # abs() takes complex values, and numpy orders them
        if isinstance(value, complex) or getattr(value, "dtype", _REAL).kind == "c":
            raise ParameterError(f"{name} must be real, got {_kind(value)}")
        try:
            if not holds(abs(value) < math.inf):
                finite = False
        except TypeError:
            raise ParameterError(f"{name} must be a number or a numeric numpy array, "
                                 f"got {_kind(value)}") from None
    if not finite:
        for name, value in values.items():
            require(np.isfinite(value), NonFinite, f"{name} must be finite", value)


def _kind(value) -> str:
    return (f"an array of dtype {value.dtype}" if isinstance(value, np.ndarray)
            else type(value).__name__)


_NO_GUARD = contextlib.nullcontext()


def overflow_guard(safe):
    """Context for arithmetic that may overflow to inf, which a finiteness
    check after it turns into NonFinite.

    `safe` is a cheap comparison that rules overflow out. When it holds, as
    in every ordinary call, the context does nothing; otherwise it silences
    numpy's warnings on overflow and on the inf - inf that may follow it,
    which would come before the NonFinite.
    """
    return _NO_GUARD if holds(safe) else np.errstate(over="ignore", invalid="ignore")


def validate(params: RouterParams) -> RouterParams:
    """Check RouterParams invariants; returns the params unchanged.

    Idempotent and side-effect-free. gamma2 == 0 is the valid two-port
    reduction, so only gamma1 must be strictly positive. With array rates
    the error names the first offending element.
    """
    g1, g2, gc = params.gamma1, params.gamma2, params.gamma_c
    require_finite(gamma1=g1, gamma2=g2, gamma_c=gc, omega_c=params.omega_c)
    require(g1 > 0.0, NonPositiveGamma1, "gamma1 must be > 0", g1)
    require(g2 >= 0.0, NegativeRate, "gamma2 must be >= 0", g2)
    require(gc >= 0.0, NegativeRate, "gamma_c must be >= 0", gc)
    return params


def require_scalar(record, *names: str, where: str = " on this route") -> None:
    """Raise ParameterError naming the first of the fields `names` of
    `record` that holds an array."""
    for name in names:
        shape = getattr(getattr(record, name), "shape", ())
        if shape:
            raise ParameterError(
                f"{name} must be a scalar{where}, got an array of shape {shape}")


def broadcast_shape(what: str, *values) -> tuple:
    """Shape the scalars or arrays `values` broadcast to.

    Raises ParameterError, naming `what` and the shapes, if they do not
    broadcast together.
    """
    shapes = [getattr(v, "shape", ()) for v in values]
    if not any(shapes):
        return ()
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ParameterError(
            f"{what} do not broadcast together, got shapes {shapes}") from None


def validate_scalar(params: RouterParams) -> RouterParams:
    """validate() for the routes that take one rate set per call.

    Raises ParameterError when any field of `params` is an array.
    """
    require_scalar(params, "gamma1", "gamma2", "gamma_c", "omega_c")
    return validate(params)


@dataclass(frozen=True)
class WavePacket:
    """Gaussian coherent wave packet on one channel.

    Spectrum ~ exp(-(omega - omega0)^2 / (4 Omega^2)), full bandwidth
    2*Omega, integrated mean photon number mean_n, carrier phase `phase`.
    Omega lies in [2^-510, 2^510], where Omega^2 and 2 pi Omega^2 are
    normal doubles.

    mean_n and phase are floats or numpy arrays that broadcast together, one
    packet per element; the packet quadrature and the time-domain oracle
    evaluate all elements in one call, and only time_pulse takes scalars
    alone. omega0 and Omega set the quadrature window and the time grid and
    stay scalar. Errors name the first bad element.
    """

    channel: Channel
    mean_n: float
    omega0: float = 0.0
    Omega: float = 0.3
    phase: float = 0.0

    def __post_init__(self):
        require_scalar(self, "omega0", "Omega", where="")
        broadcast_shape("mean_n and phase", self.mean_n, self.phase)
        require_finite(mean_n=self.mean_n, omega0=self.omega0, Omega=self.Omega,
                       phase=self.phase)
        require(self.mean_n >= 0.0, NegativeRate, "mean_n must be >= 0", self.mean_n)
        if not 2.0 ** -510 <= self.Omega <= 2.0 ** 510:
            raise ParameterError(
                f"Omega must be in [2^-510, 2^510] (about 3e-154 to 3e153), got {self.Omega}")


@dataclass(frozen=True)
class OutputReport:
    """Mean output-photon numbers per channel plus totals.

    n_total is the sum over the four channels; loss = n_in - n_total is the
    flux absorbed by the cavity decay gamma_c (zero for lossless setups up
    to rounding/quadrature error). A report over a grid of points holds
    numpy arrays in place of the floats, one element per point.
    """

    n_out: Mapping[Channel, float]
    n_in: float
    n_total: float
    loss: float

    @classmethod
    def from_channel_numbers(cls, numbers: Sequence, n_in: float) -> "OutputReport":
        """Report from the four channel numbers in CHANNELS order.

        `numbers` holds four scalars or arrays that broadcast with n_in, or is
        one array whose first axis holds the four channels. Negative rounding
        noise above -1e-12 max(n_in, 1) clamps to 0.
        Raises ParameterError unless there are four channels, and NonFinite,
        naming the quantity and its first bad element, when n_in, a channel,
        the total or the loss is not finite.
        """
        if len(numbers) != len(CHANNELS):
            raise ParameterError(
                f"need {len(CHANNELS)} channel numbers in CHANNELS order, got {len(numbers)}")
        # one (4, ...) array of the broadcast shape: a single clamp for all channels
        v = np.empty((4,) + np.broadcast(n_in, *numbers).shape)
        for i, value in enumerate(numbers):
            v[i] = value
        v[(-1e-12 * np.maximum(n_in, 1.0) < v) & (v < 0.0)] = 0.0
        clean = list(v)
        # an overflow here ends in NonFinite below, not in a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = clean[0] + clean[1] + clean[2] + clean[3]
            loss = n_in - total
        # loss is finite exactly when n_in, every channel and the total are
        if not holds(abs(loss) < math.inf):
            names = ["n_in", "N_r1", "N_l1", "N_r2", "N_l2", "N_total", "loss"]
            for name, value in zip(names, [n_in, *clean, total, loss]):
                require(np.isfinite(value), NonFinite,
                        f"{name} is not finite; the inputs overflow double precision", value)
        return cls(n_out=MappingProxyType(dict(zip(CHANNELS, clean))), n_in=n_in,
                   n_total=total, loss=loss)

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
