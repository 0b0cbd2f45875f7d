"""Frequency-domain scattering of monochromatic coherent inputs.

For coherent states the field expectation values obey the classical linear
input-output relations: at detuning delta = omega_c - omega the cavity
amplitude reaches the steady state

    c = -i * sum_ch sqrt(gamma_j) a_ch / (i delta + gamma1 + gamma2 + gamma_c)

(every channel of waveguide j drives the cavity with coupling sqrt(gamma_j)),
and each channel leaves as

    b_ch = a_ch - i sqrt(gamma_j) c.

The map is unitary whenever gamma_c = 0. On top of this general map sit the
closed-form mean output numbers for the standard drive scenarios: a single
driven port, equal-amplitude drives on ports 1 and 2 with relative phase phi,
the two-port reduction gamma2 = 0, and equal-amplitude drives on ports 1, 3
and 4 with relative phases theta and theta'. The closed forms require
gamma_c = 0; lossy monochromatic cases go through `scatter`, whose response
denominator includes gamma_c.

Amplitudes, detunings and (in the closed forms) phases may be scalars or
equal-shaped numpy arrays; all operations broadcast elementwise, so a whole
frequency or phase grid is one call. Per element, an array evaluation gives
the same bits as the scalar closed forms, and as a scalar report_from_scatter
whose amplitudes are numpy scalars: numpy's elementwise cos, sin, exp and
complex division agree with the scalar routines, and |b|^2 is formed per
element with the scalar abs(). (CPython's own complex division rounds
differently in the last bit.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNELS,
    Channel,
    CoherentDrive,
    LossyNotSupported,
    NegativeRate,
    OutputReport,
    ParameterError,
    RouterParams,
    validate,
)


@dataclass(frozen=True)
class ChannelAmplitudes:
    """One complex amplitude per propagating channel at a single frequency."""

    r1: complex = 0j
    l1: complex = 0j
    r2: complex = 0j
    l2: complex = 0j

    def __getitem__(self, channel: Channel):
        return getattr(self, channel.name.lower())

    def items(self):
        return [(ch, self[ch]) for ch in CHANNELS]

    def total_flux(self):
        """Sum of |amplitude|^2 over the four channels."""
        return _abs2(self.r1) + _abs2(self.l1) + _abs2(self.r2) + _abs2(self.l2)


def _abs2(z):
    """|z|^2 formed by the scalar abs(), elementwise for arrays.

    numpy's array abs uses a vectorized hypot that differs from the scalar
    one in the last bit, which would make grid rows differ from point rows.
    Overflow gives inf, as in numpy, rather than an OverflowError.
    """
    if isinstance(z, np.ndarray):
        return np.array([_abs2(v) for v in z.ravel().tolist()]).reshape(z.shape)
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _cos_sin(x):
    """(cos x, sin x): math's for scalars, numpy's (bit-identical) for arrays."""
    if isinstance(x, np.ndarray):
        return np.cos(x), np.sin(x)
    return math.cos(x), math.sin(x)


def amplitudes_of_drives(drives: Sequence[CoherentDrive]) -> tuple[ChannelAmplitudes, float]:
    """Collect monochromatic drives into ChannelAmplitudes plus their detuning.

    All drives in a scenario must share one frequency; amplitudes on the
    same channel add coherently.
    """
    if not drives:
        return ChannelAmplitudes(), 0.0
    delta = drives[0].delta
    amps = {ch: 0j for ch in CHANNELS}
    for d in drives:
        if d.delta != delta:
            raise ParameterError(
                f"drives must share one frequency: delta {d.delta} != {delta}")
        amps[d.channel] += complex(d.amplitude)
    return ChannelAmplitudes(**{ch.name.lower(): amps[ch] for ch in CHANNELS}), delta


def cavity_amplitude(params: RouterParams, inputs: ChannelAmplitudes, delta):
    """Steady-state cavity amplitude under monochromatic driving."""
    validate(params)
    s1 = math.sqrt(params.gamma1)
    s2 = math.sqrt(params.gamma2)
    drive = s1 * (inputs.r1 + inputs.l1) + s2 * (inputs.r2 + inputs.l2)
    return -1j * drive / (1j * delta + params.total_decay)


def scatter(params: RouterParams, inputs: ChannelAmplitudes, delta) -> ChannelAmplitudes:
    """Output amplitudes on all four channels for the given inputs."""
    c = cavity_amplitude(params, inputs, delta)
    s1 = math.sqrt(params.gamma1)
    s2 = math.sqrt(params.gamma2)
    return ChannelAmplitudes(
        r1=inputs.r1 - 1j * s1 * c,
        l1=inputs.l1 - 1j * s1 * c,
        r2=inputs.r2 - 1j * s2 * c,
        l2=inputs.l2 - 1j * s2 * c,
    )


def report_from_scatter(params: RouterParams, inputs: ChannelAmplitudes, delta) -> OutputReport:
    """OutputReport with per-channel fluxes |scatter(...)|^2.

    With array amplitudes or detunings the report holds arrays, one element
    per point; each equals the scalar call at that point.
    """
    out = scatter(params, inputs, delta)
    return OutputReport.from_channel_numbers(
        {ch: _abs2(out[ch]) for ch in CHANNELS}, n_in=inputs.total_flux())


def _require_lossless(params: RouterParams, what: str) -> None:
    if params.gamma_c != 0.0:
        raise LossyNotSupported(
            f"{what} is derived for gamma_c = 0 (got gamma_c = {params.gamma_c}); "
            "use scatter() for lossy monochromatic inputs")


def _require_mean_n(mean_n: float) -> None:
    if mean_n < 0.0:
        raise NegativeRate(f"mean photon number must be >= 0, got {mean_n}")


def mean_output_single(params: RouterParams, mean_n: float, delta: float) -> OutputReport:
    """Mean output numbers for photons injected into input port 1 only.

    N_r1 = (delta^2 + gamma2^2) / D, N_l1 = gamma1^2 / D,
    N_r2 = N_l2 = gamma1 gamma2 / D, with D = delta^2 + (gamma1 + gamma2)^2,
    each times mean_n. Independent of the input phase.
    """
    validate(params)
    _require_lossless(params, "mean_output_single")
    _require_mean_n(mean_n)
    g1, g2 = params.gamma1, params.gamma2
    d = delta * delta + (g1 + g2) ** 2
    return OutputReport.from_channel_numbers(
        {
            Channel.R1: (delta * delta + g2 * g2) / d * mean_n,
            Channel.L1: g1 * g1 / d * mean_n,
            Channel.R2: g1 * g2 / d * mean_n,
            Channel.L2: g1 * g2 / d * mean_n,
        },
        n_in=mean_n,
    )


def mean_output_two(params: RouterParams, mean_n: float, delta: float, phi: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1 and 2.

    phi is the phase of the port-2 drive relative to port 1, i.e. input
    amplitudes (alpha, alpha e^{i phi}):

      N_r1 = [1 - 2((1+cos phi) g1 g2 + g1 delta sin phi)/D] mean_n
      N_l1 = [1 - 2((1+cos phi) g1 g2 - g1 delta sin phi)/D] mean_n
      N_r2 = N_l2 = 2 (1+cos phi) g1 g2 / D mean_n

    2*pi-periodic in phi; the (1+cos phi) factor kills the waveguide-2
    output identically at phi = pi regardless of the other parameters.
    """
    validate(params)
    _require_lossless(params, "mean_output_two")
    _require_mean_n(mean_n)
    g1, g2 = params.gamma1, params.gamma2
    d = delta * delta + (g1 + g2) ** 2
    cos_phi, sin_phi = _cos_sin(phi)
    cross = (1.0 + cos_phi) * g1 * g2
    tilt = g1 * delta * sin_phi
    return OutputReport.from_channel_numbers(
        {
            Channel.R1: (1.0 - 2.0 * (cross + tilt) / d) * mean_n,
            Channel.L1: (1.0 - 2.0 * (cross - tilt) / d) * mean_n,
            Channel.R2: 2.0 * cross / d * mean_n,
            Channel.L2: 2.0 * cross / d * mean_n,
        },
        n_in=2.0 * mean_n,
    )


def two_port_reduction(gamma1: float, mean_n: float, delta: float, phi: float) -> tuple[float, float]:
    """(N_r1, N_l1) for the gamma2 = 0 two-port router with drives on ports 1 and 2.

    N_r1 = (delta^2 + gamma1^2 - 2 gamma1 delta sin phi) / (delta^2 + gamma1^2),
    N_l1 the same with +sin phi; each times mean_n. At |delta| = gamma1 the
    swing covers the full range 0 .. 2 mean_n.
    """
    if gamma1 <= 0.0:
        raise ParameterError(f"gamma1 must be > 0, got {gamma1}")
    _require_mean_n(mean_n)
    d = delta * delta + gamma1 * gamma1
    swing = 2.0 * gamma1 * delta * math.sin(phi)
    return ((d - swing) / d * mean_n, (d + swing) / d * mean_n)


def mean_output_three(params: RouterParams, mean_n: float, delta: float,
                      theta: float, theta_prime: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1, 3 and 4.

    theta and theta_prime are the phases of the port-3 and port-4 drives
    relative to port 1: input amplitudes (alpha, 0, alpha e^{i theta},
    alpha e^{i theta'}). Writing s = sqrt(g1 g2) and D = delta^2 + (g1+g2)^2:

      N_r1 = [delta^2 + g2^2 + 2 g1 g2 - 2 delta s (sin th + sin th')
              - 2 s g2 (cos th + cos th') + 2 cos(th - th') g1 g2] / D
      N_l1 = [g1^2 + 2 (1 + cos(th - th')) g1 g2
              + 2 (cos th + cos th') g1 s] / D
      N_r2 = [delta^2 + (g1+g2)^2 - g1 g2 + 2 sin th s delta
              + 2 sin(th - th') g2 delta - 2 cos th g1 s
              + 2 cos th' g2 s - 2 cos(th - th') g1 g2] / D
      N_l2 = N_r2 with th <-> th' swapped,

    each times mean_n.
    """
    validate(params)
    _require_lossless(params, "mean_output_three")
    _require_mean_n(mean_n)
    g1, g2 = params.gamma1, params.gamma2
    s = math.sqrt(g1 * g2)
    d = delta * delta + (g1 + g2) ** 2
    ct, st = _cos_sin(theta)
    cp, sp = _cos_sin(theta_prime)
    cd, sd = _cos_sin(theta - theta_prime)

    n_r1 = (delta * delta + g2 * g2 + 2.0 * g1 * g2
            - 2.0 * delta * s * (st + sp)
            - 2.0 * s * g2 * (ct + cp)
            + 2.0 * cd * g1 * g2) / d * mean_n
    n_l1 = (g1 * g1 + 2.0 * (1.0 + cd) * g1 * g2
            + 2.0 * (ct + cp) * g1 * s) / d * mean_n
    n_r2 = (delta * delta + (g1 + g2) ** 2 - g1 * g2
            + 2.0 * st * s * delta + 2.0 * sd * g2 * delta
            - 2.0 * ct * g1 * s + 2.0 * cp * g2 * s
            - 2.0 * cd * g1 * g2) / d * mean_n
    n_l2 = (delta * delta + (g1 + g2) ** 2 - g1 * g2
            + 2.0 * sp * s * delta - 2.0 * sd * g2 * delta
            - 2.0 * cp * g1 * s + 2.0 * ct * g2 * s
            - 2.0 * cd * g1 * g2) / d * mean_n

    return OutputReport.from_channel_numbers(
        {Channel.R1: n_r1, Channel.L1: n_l1, Channel.R2: n_r2, Channel.L2: n_l2},
        n_in=3.0 * mean_n,
    )
