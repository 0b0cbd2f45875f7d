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

The halvings are nested: the nodes of a grid are every other node of the
grid with half its step (bit for bit, as np.linspace computes them), so each
halving evaluates `scatter` only at the new midpoints and interleaves them
with the flux density it already has. Nodes go to `scatter` in blocks of
4096: past that, each complex temporary passes 128 KB, and the cost per node
more than doubled (21 ns at 4001 nodes, 48 ns at 8001, on a 2-CPU x86-64 VM
with numpy 2.4). The flux at a node does not depend on its block. Each
resolution is then integrated with the same weights and the same np.dot per
channel as a full evaluation of its grid, so every report and every
convergence decision carries the same bits as that full evaluation would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    CHANNELS,
    NonFinite,
    OutputReport,
    ParameterError,
    QuadratureUnderResolved,
    RouterParams,
    WavePacket,
    overflow_guard,
    validate_scalar,
)
from .scattering import ChannelAmplitudes, scatter

_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 4
_BLOCK = 4096  # nodes per scatter call


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
    return _peak_amplitude(packet) * _envelope(packet.omega0, packet.Omega, omega)


def _peak_amplitude(packet: WavePacket) -> complex:
    alpha = np.sqrt(packet.mean_n) * np.exp(1j * packet.phase)
    return alpha * (2.0 * np.pi * packet.Omega ** 2) ** (-0.25)


def _envelope(omega0: float, Omega: float, omega):
    return np.exp(-((omega - omega0) ** 2) / (4.0 * Omega ** 2))


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


def _flux_density(params: RouterParams, packets: Sequence[WavePacket],
                  nodes: Callable[[int, int], np.ndarray], out: list[np.ndarray]) -> None:
    """Write |scatter(alpha_omega)|^2 into the rows `out`, one per channel in
    CHANNELS order; elements start..stop-1 are at the nodes nodes(start,
    stop), taken _BLOCK nodes per scatter call."""
    # the packets share one envelope: each field is gaussian_spectrum's
    # product of the packet's peak amplitude and that envelope
    omega0, Omega = packets[0].omega0, packets[0].Omega
    peaks = [(p.channel, _peak_amplitude(p)) for p in packets]
    fields = dict.fromkeys(CHANNELS, 0j)
    size = out[0].size
    # the density is at most the input's n_in / (sqrt(2 pi) Omega); past
    # 2^1020 it may overflow to inf, which _channel_fluxes reports
    with overflow_guard(sum(p.mean_n for p in packets) / Omega < 2.0 ** 1020):
        for start in range(0, size, _BLOCK):
            stop = min(start + _BLOCK, size)
            omegas = nodes(start, stop)
            # the nodes ascend; far out in a widened window the envelope's
            # exponent may overflow to -inf, and exp(-inf) = 0 is its value
            reach = max(omega0 - omegas[0], omegas[-1] - omega0)
            with overflow_guard(reach < 2.0 ** 500 * min(Omega, 1.0)):
                envelope = _envelope(omega0, Omega, omegas)
            for ch, peak in peaks:
                fields[ch] = peak * envelope
            inputs = ChannelAmplitudes(**{ch.name.lower(): fields[ch] for ch in CHANNELS})
            scattered = scatter(params, inputs, params.omega_c - omegas)
            for row, ch in zip(out, CHANNELS):
                np.square(np.abs(scattered[ch]), out=row[start:stop])


def _channel_fluxes(density: list[np.ndarray], step: float, rule: str) -> list[float]:
    w = _weights(density[0].size, step, rule)
    fluxes = [float(np.dot(w, row)) for row in density]
    if not math.isfinite(sum(fluxes)):
        raise NonFinite("the packet flux density overflows double precision")
    return fluxes


def packet_output_numbers(params: RouterParams, packets: Sequence[WavePacket],
                          quad: QuadratureSpec = QuadratureSpec()) -> OutputReport:
    """Mean output numbers for a set of Gaussian packets sharing (omega0, Omega).

    Integrates the scattered spectral flux channel by channel on the fixed
    quadrature grid. Up to four times, the step is halved and the integral
    taken again; the first resolution that agrees with its halving to 1e-6
    relative on every channel is reported. Each halving evaluates only the
    new midpoints and reuses the flux density of the coarser grid, so a
    converged call at the default 4001 points evaluates 8001 nodes. Raises
    QuadratureUnderResolved, naming the window, the base and final point
    counts and the channel that moved most, if no resolution agrees, and
    NonFinite if the flux density overflows double precision.
    """
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    lo, hi = _frequency_window(params, omega0, Omega, quad.window_halfwidth)
    n_in = sum(p.mean_n for p in packets)
    floor = 1e-9 * max(n_in, 1e-300)

    points = quad.points
    base = np.linspace(lo, hi, points)
    # one array per channel: a single (4, points) array raised the peak
    # memory of RK4 oracle calls made after packet calls by about 0.15 MB
    density = [np.empty(points) for _ in CHANNELS]
    _flux_density(params, packets, lambda a, b: base[a:b], density)
    current = _channel_fluxes(density, (hi - lo) / (points - 1), quad.rule)
    for _ in range(_MAX_DOUBLINGS):
        points = 2 * (points - 1) + 1
        step = (hi - lo) / (points - 1)
        finer_density = [np.empty(points) for _ in CHANNELS]
        for fine, coarse in zip(finer_density, density):
            fine[::2] = coarse
        # element j of the odd elements is node 2j+1 of np.linspace(lo, hi,
        # points), computed as linspace does
        _flux_density(params, packets,
                      lambda a, b: np.arange(2 * a + 1, 2 * b + 1, 2) * step + lo,
                      [fine[1::2] for fine in finer_density])
        density = finer_density
        finer = _channel_fluxes(density, step, quad.rule)
        if all(abs(f - c) <= _REFINE_RTOL * max(abs(c), floor)
               for f, c in zip(finer, current)):
            return OutputReport.from_channel_numbers(dict(zip(CHANNELS, current)), n_in=n_in)
        previous, current = current, finer
    change = [abs(f - c) / max(abs(c), floor) for f, c in zip(current, previous)]
    worst = max(range(len(CHANNELS)), key=change.__getitem__)
    raise QuadratureUnderResolved(
        f"channel fluxes still moving after {_MAX_DOUBLINGS} grid doublings: "
        f"window [{lo!r}, {hi!r}], {quad.points} -> {points} points, "
        f"N_{CHANNELS[worst].name.lower()} changed by {change[worst]:.3g} relative "
        f"at the last doubling, target {_REFINE_RTOL:g}")
