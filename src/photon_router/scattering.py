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
and 4 with relative phases theta and theta'. The closed forms are |S a|^2 of
the same map worked out by hand, so they hold for every gamma_c >= 0, and
each is written so that at gamma_c = 0 it reduces, operation for operation,
to the lossless expression. `scatter` is the general map and the cross-check
of the forms. The closed forms reject non-finite photon numbers, detunings
and phases with NonFinite.

Every input may be a scalar or a numpy array: the rates in RouterParams,
amplitudes, detunings, phases and photon numbers all broadcast elementwise,
so a whole grid, rates included, is one call. A scalar runs through the same
numpy operations as an array (a 0-d case of them), so each element of an
array call carries the same bits as the scalar call at that point. Squares
are written as products: Python's float `x ** 2` rounds differently from
numpy's square on some inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNELS,
    Channel,
    CoherentDrive,
    NegativeRate,
    NonFinite,
    OutputReport,
    ParameterError,
    RouterParams,
    require,
    require_finite,
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
        return list(zip(CHANNELS, (self.r1, self.l1, self.r2, self.l2)))

    def fluxes(self) -> dict:
        """|amplitude|^2 per channel, as re^2 + im^2."""
        return {ch: z.real * z.real + z.imag * z.imag for ch, z in self.items()}

    def total_flux(self):
        """Sum of |amplitude|^2 over the four channels."""
        r1, l1, r2, l2 = self.fluxes().values()
        return r1 + l1 + r2 + l2


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
    """Steady-state cavity amplitude under monochromatic driving.

    Raises NonFinite for a non-finite amplitude or detuning.
    """
    validate(params)
    drive = (np.sqrt(params.gamma1) * (inputs.r1 + inputs.l1)
             + np.sqrt(params.gamma2) * (inputs.r2 + inputs.l2))
    c = -1j * drive / (1j * delta + params.total_decay)
    # a NaN or inf among the amplitudes or detunings leaves c NaN or inf, and
    # then sum |c|^2 too; that one BLAS sum is cheaper than an isfinite pass,
    # and a false alarm (sum overflow) only costs the exact checks below
    if not np.isfinite(np.vdot(c, c)):
        require_finite(r1=inputs.r1, l1=inputs.l1, r2=inputs.r2, l2=inputs.l2, delta=delta)
        require(np.isfinite(c), NonFinite,
                "the cavity amplitude overflows double precision", c)
    return c


def scatter(params: RouterParams, inputs: ChannelAmplitudes, delta) -> ChannelAmplitudes:
    """Output amplitudes on all four channels for the given inputs."""
    c = cavity_amplitude(params, inputs, delta)
    s1 = np.sqrt(params.gamma1)
    s2 = np.sqrt(params.gamma2)
    return ChannelAmplitudes(
        r1=inputs.r1 - 1j * s1 * c,
        l1=inputs.l1 - 1j * s1 * c,
        r2=inputs.r2 - 1j * s2 * c,
        l2=inputs.l2 - 1j * s2 * c,
    )


def report_from_scatter(params: RouterParams, inputs: ChannelAmplitudes, delta) -> OutputReport:
    """OutputReport with per-channel fluxes |scatter(...)|^2.

    With array rates, amplitudes or detunings the report holds arrays, one
    element per point; each equals the scalar call at that point.
    """
    out = scatter(params, inputs, delta)
    return OutputReport.from_channel_numbers(out.fluxes(), n_in=inputs.total_flux())


def _require_mean_n(mean_n) -> None:
    require(mean_n >= 0.0, NegativeRate, "mean photon number must be >= 0", mean_n)


def mean_output_single(params: RouterParams, mean_n: float, delta: float) -> OutputReport:
    """Mean output numbers for photons injected into input port 1 only.

    N_r1 = (delta^2 + (gamma2 + gamma_c)^2) / D, N_l1 = gamma1^2 / D,
    N_r2 = N_l2 = gamma1 gamma2 / D, with D = delta^2 + (gamma1 + gamma2 + gamma_c)^2,
    each times mean_n; the cavity absorbs 2 gamma1 gamma_c / D mean_n.
    Independent of the input phase.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta)
    _require_mean_n(mean_n)
    g1, g2 = params.gamma1, params.gamma2
    a = g2 + params.gamma_c
    # D from a, so the numerator and the denominator share the rounding of a
    d = delta * delta + (g1 + a) * (g1 + a)
    return OutputReport.from_channel_numbers(
        {
            Channel.R1: (delta * delta + a * a) / d * mean_n,
            Channel.L1: g1 * g1 / d * mean_n,
            Channel.R2: g1 * g2 / d * mean_n,
            Channel.L2: g1 * g2 / d * mean_n,
        },
        n_in=mean_n,
    )


def mean_output_two(params: RouterParams, mean_n: float, delta: float, phi: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1 and 2.

    phi is the phase of the port-2 drive relative to port 1, i.e. input
    amplitudes (alpha, alpha e^{i phi}). Writing a = g2 + gamma_c and
    D = delta^2 + (g1 + g2 + gamma_c)^2:

      N_r1 = [1 - 2((1+cos phi) g1 a + g1 delta sin phi)/D] mean_n
      N_l1 = [1 - 2((1+cos phi) g1 a - g1 delta sin phi)/D] mean_n
      N_r2 = N_l2 = 2 (1+cos phi) g1 g2 / D mean_n

    2*pi-periodic in phi; the (1+cos phi) factor kills the waveguide-2
    output identically at phi = pi regardless of the other parameters,
    gamma_c included.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta, phi=phi)
    _require_mean_n(mean_n)
    g1, g2 = params.gamma1, params.gamma2
    a = g2 + params.gamma_c
    d = delta * delta + (g1 + a) * (g1 + a)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    # interference of the two drives through the cavity, seen by guides 1 and 2
    cross1 = (1.0 + cos_phi) * g1 * a
    cross2 = (1.0 + cos_phi) * g1 * g2
    tilt = g1 * delta * sin_phi
    return OutputReport.from_channel_numbers(
        {
            Channel.R1: (1.0 - 2.0 * (cross1 + tilt) / d) * mean_n,
            Channel.L1: (1.0 - 2.0 * (cross1 - tilt) / d) * mean_n,
            Channel.R2: 2.0 * cross2 / d * mean_n,
            Channel.L2: 2.0 * cross2 / d * mean_n,
        },
        n_in=2.0 * mean_n,
    )


def two_port_reduction(gamma1: float, mean_n: float, delta: float, phi: float) -> tuple[float, float]:
    """(N_r1, N_l1) for the gamma2 = 0 two-port router with drives on ports 1 and 2.

    N_r1 = (delta^2 + gamma1^2 - 2 gamma1 delta sin phi) / (delta^2 + gamma1^2),
    N_l1 the same with +sin phi; each times mean_n. At |delta| = gamma1 the
    swing covers the full range 0 .. 2 mean_n.
    """
    validate(RouterParams(gamma1=gamma1, gamma2=0.0))
    require_finite(mean_n=mean_n, delta=delta, phi=phi)
    _require_mean_n(mean_n)
    d = delta * delta + gamma1 * gamma1
    swing = 2.0 * gamma1 * delta * np.sin(phi)
    return ((d - swing) / d * mean_n, (d + swing) / d * mean_n)


def mean_output_three(params: RouterParams, mean_n: float, delta: float,
                      theta: float, theta_prime: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1, 3 and 4.

    theta and theta_prime are the phases of the port-3 and port-4 drives
    relative to port 1: input amplitudes (alpha, 0, alpha e^{i theta},
    alpha e^{i theta'}). Writing s = sqrt(g1 g2), a = g2 + gamma_c,
    b = g1 + gamma_c and D = delta^2 + (g1 + g2 + gamma_c)^2:

      N_r1 = [delta^2 + a^2 + 2 g1 g2 - 2 delta s (sin th + sin th')
              - 2 s a (cos th + cos th') + 2 cos(th - th') g1 g2] / D
      N_l1 = [g1^2 + 2 (1 + cos(th - th')) g1 g2
              + 2 (cos th + cos th') g1 s] / D
      N_r2 = [D - g2 (g1 + 2 gamma_c) + 2 sin th s delta
              + 2 sin(th - th') g2 delta - 2 cos th b s
              + 2 cos th' g2 s - 2 cos(th - th') b g2] / D
      N_l2 = N_r2 with th <-> th' swapped,

    each times mean_n.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta, theta=theta, theta_prime=theta_prime)
    _require_mean_n(mean_n)
    g1, g2, gc = params.gamma1, params.gamma2, params.gamma_c
    a, b = g2 + gc, g1 + gc
    s = np.sqrt(g1 * g2)
    d = delta * delta + (g1 + a) * (g1 + a)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(theta_prime), np.sin(theta_prime)
    cd, sd = np.cos(theta - theta_prime), np.sin(theta - theta_prime)

    n_r1 = (delta * delta + a * a + 2.0 * g1 * g2
            - 2.0 * delta * s * (st + sp)
            - 2.0 * s * a * (ct + cp)
            + 2.0 * cd * g1 * g2) / d * mean_n
    n_l1 = (g1 * g1 + 2.0 * (1.0 + cd) * g1 * g2
            + 2.0 * (ct + cp) * g1 * s) / d * mean_n
    n_r2 = (d - g2 * (g1 + 2.0 * gc)
            + 2.0 * st * s * delta + 2.0 * sd * g2 * delta
            - 2.0 * ct * b * s + 2.0 * cp * g2 * s
            - 2.0 * cd * b * g2) / d * mean_n
    n_l2 = (d - g2 * (g1 + 2.0 * gc)
            + 2.0 * sp * s * delta - 2.0 * sd * g2 * delta
            - 2.0 * cp * b * s + 2.0 * ct * g2 * s
            - 2.0 * cd * b * g2) / d * mean_n

    return OutputReport.from_channel_numbers(
        {Channel.R1: n_r1, Channel.L1: n_l1, Channel.R2: n_r2, Channel.L2: n_l2},
        n_in=3.0 * mean_n,
    )
