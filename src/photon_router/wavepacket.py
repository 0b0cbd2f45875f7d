"""Mean output numbers for Gaussian coherent wave packets, with cavity decay.

A packet with center omega0, half-bandwidth Omega and mean photon number
|alpha|^2 has the spectrum

    alpha_omega = alpha (2 pi Omega^2)^(-1/4) exp(-(omega - omega0)^2 / (4 Omega^2)),

normalized so that the integral of |alpha_omega|^2 over omega is |alpha|^2.
Because the scattering map is diagonal in frequency, the mean number leaving
each channel is the quadrature of |scatter(alpha_omega)|^2 over omega; the
cavity decay gamma_c enters only through the response denominator
i(omega_c - omega) + gamma1 + gamma2 + gamma_c, and the missing flux shows
up as the report's `loss`.

The quadrature is a fixed composite rule (Simpson by default) on a window of
+-window_halfwidth*Omega around omega0, widened to cover the cavity line when
that lies outside the packet window. Results are deterministic for a fixed
QuadratureSpec; step-halving is used only as a convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNELS,
    Channel,
    OutputReport,
    ParameterError,
    QuadratureUnderResolved,
    RouterParams,
    WavePacket,
    validate_scalar,
)
from .scattering import ChannelAmplitudes, scatter

_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed frequency-quadrature settings.

    window_halfwidth is in multiples of Omega; at the default 8 the Gaussian
    tail mass outside the window is ~1e-14 of the packet. points must be odd
    (composite Simpson needs an even interval count).
    """

    window_halfwidth: float = 8.0
    points: int = 4001
    rule: str = "simpson"

    def __post_init__(self):
        if self.points % 2 == 0:
            raise ParameterError(f"points must be odd, got {self.points}")
        if self.points < 2001:
            raise ParameterError(f"points must be >= 2001, got {self.points}")
        if self.window_halfwidth < 6.0:
            raise ParameterError(
                f"window_halfwidth must be >= 6 Omega, got {self.window_halfwidth}")
        if self.rule not in ("simpson", "trapezoid"):
            raise ParameterError(f"unknown quadrature rule {self.rule!r}")


def gaussian_spectrum(packet: WavePacket, omega):
    """Spectral amplitude alpha_omega of the packet, phase factor included.

    Vectorized over omega. |alpha_omega|^2 peaks at mean_n / sqrt(2 pi Omega^2).
    """
    alpha = np.sqrt(packet.mean_n) * np.exp(1j * packet.phase)
    envelope = np.exp(-((omega - packet.omega0) ** 2) / (4.0 * packet.Omega ** 2))
    return alpha * (2.0 * np.pi * packet.Omega ** 2) ** (-0.25) * envelope


def shared_packet_frame(packets: Sequence[WavePacket]) -> tuple[float, float]:
    """Common (omega0, Omega) of a packet set; rejects mismatched packets."""
    if not packets:
        raise ParameterError("at least one wave packet is required")
    omega0, Omega = packets[0].omega0, packets[0].Omega
    for p in packets[1:]:
        if p.omega0 != omega0 or p.Omega != Omega:
            raise ParameterError(
                "all packets must share center frequency and bandwidth: "
                f"({p.omega0}, {p.Omega}) != ({omega0}, {Omega})")
    seen = set()
    for p in packets:
        if p.channel in seen:
            raise ParameterError(f"duplicate packet channel {p.channel}")
        seen.add(p.channel)
    return omega0, Omega


def _frequency_window(params: RouterParams, omega0: float, Omega: float,
                      halfwidth: float) -> tuple[float, float]:
    lo = omega0 - halfwidth * Omega
    hi = omega0 + halfwidth * Omega
    if not lo <= params.omega_c <= hi:
        reach = 8.0 * params.total_decay
        lo = min(lo, params.omega_c - reach)
        hi = max(hi, params.omega_c + reach)
    return lo, hi


def _weights(points: int, step: float, rule: str) -> np.ndarray:
    w = np.ones(points)
    if rule == "simpson":
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (step / 3.0)
    w[0] = w[-1] = 0.5
    return w * step


def _fluxes_at_resolution(params: RouterParams, packets: Sequence[WavePacket],
                          window: tuple[float, float], points: int,
                          rule: str) -> dict[Channel, float]:
    omegas = np.linspace(window[0], window[1], points)
    step = (window[1] - window[0]) / (points - 1)
    fields = {ch: 0j for ch in CHANNELS}
    for p in packets:
        fields[p.channel] = gaussian_spectrum(p, omegas)
    inputs = ChannelAmplitudes(**{ch.name.lower(): fields[ch] for ch in CHANNELS})
    out = scatter(params, inputs, params.omega_c - omegas)
    w = _weights(points, step, rule)
    return {ch: float(np.dot(w, np.abs(out[ch]) ** 2)) for ch in CHANNELS}


def packet_output_numbers(params: RouterParams, packets: Sequence[WavePacket],
                          quad: QuadratureSpec = QuadratureSpec()) -> OutputReport:
    """Mean output numbers for a set of Gaussian packets sharing (omega0, Omega).

    Integrates the scattered spectral flux channel by channel on the fixed
    quadrature grid. Raises QuadratureUnderResolved if step halving keeps
    changing any channel by more than 1e-6 relative after four doublings.
    """
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    window = _frequency_window(params, omega0, Omega, quad.window_halfwidth)
    n_in = sum(p.mean_n for p in packets)
    floor = 1e-9 * max(n_in, 1e-300)

    points = quad.points
    current = _fluxes_at_resolution(params, packets, window, points, quad.rule)
    for _ in range(_MAX_DOUBLINGS):
        points = 2 * (points - 1) + 1
        finer = _fluxes_at_resolution(params, packets, window, points, quad.rule)
        if all(abs(finer[ch] - current[ch]) <= _REFINE_RTOL * max(abs(current[ch]), floor)
               for ch in CHANNELS):
            return OutputReport.from_channel_numbers(current, n_in=n_in)
        current = finer
    raise QuadratureUnderResolved(
        f"channel fluxes still moving after {_MAX_DOUBLINGS} grid doublings "
        f"(window {window}, base points {quad.points})")
