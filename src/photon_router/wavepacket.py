"""Mean output numbers for Gaussian coherent wave packets, with cavity decay.

A packet with center omega0, half-bandwidth Omega and mean photon number
|alpha|^2 has the spectrum

    alpha_omega = alpha (2 pi Omega^2)^(-1/4) exp(-(omega - omega0)^2 / (4 Omega^2)),

normalized so that the integral of |alpha_omega|^2 over omega is |alpha|^2.
The scattering map is diagonal in frequency and rank 1: with
Gamma = gamma1 + gamma2 + gamma_c and delta = omega_c - omega, channel ch
leaves with

    b_ch(omega) = env(omega) (p_ch - k_ch K / (i delta + Gamma)),

where env is the shared envelope, p_ch the packet's peak amplitude on ch (0
if undriven), k_ch = sqrt(gamma_ch) and K = sum k_ch p_ch. Squared and
integrated, every channel's mean number is one combination of three real
line moments of env^2 (see packet_output_numbers), whatever the packets'
phases; the missing flux shows up as the report's `loss`.

The moments are taken by a fixed composite rule (Simpson by default) on a
window of +-window_halfwidth*Omega around omega0, widened to cover the cavity
line when that lies outside the packet window. Results are deterministic for
a fixed QuadratureSpec; step-halving is used only as a convergence check.

The halvings are nested: the nodes of a grid are every other node of the
grid with half its step (bit for bit, as np.linspace computes them), so each
halving copies the coarser grid's rows into its even nodes and evaluates the
three moment rows only at the new midpoints. A node's values do not depend
on which other nodes are evaluated with it, so each resolution is integrated
with the same weights and np.dot as a full evaluation of its grid, and every
report and every convergence decision carries the same bits as that full
evaluation would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

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
from .scattering import scatter  # unused here; perfbench/tracing.py patches it by this name

_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 4
# nodes allowed on the finest halving, (points - 1) * 2**_MAX_DOUBLINGS + 1:
# 31x that of a default call (64 001); a halving peaks at 36 bytes per node
MAX_NODES = 2_000_001


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed frequency-quadrature settings.

    window_halfwidth is in multiples of Omega, finite and >= 6; at the
    default 8 the Gaussian tail mass outside the window is ~1e-14 of the
    packet. points must be an odd integer (composite Simpson needs an even
    interval count), bool excluded. Specs whose finest halving would exceed
    MAX_NODES nodes (points above 125 001) are refused before anything is
    allocated.
    """

    window_halfwidth: float = 8.0
    points: int = 4001
    rule: str = "simpson"

    def __post_init__(self):
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ParameterError(f"points must be an integer, got {self.points!r}")
        if self.points % 2 == 0:
            raise ParameterError(f"points must be odd, got {self.points}")
        if self.points < 2001:
            raise ParameterError(f"points must be >= 2001, got {self.points}")
        if (finest := (self.points - 1) * 2 ** _MAX_DOUBLINGS + 1) > MAX_NODES:
            raise ParameterError(
                f"points must be <= {(MAX_NODES - 1) // 2 ** _MAX_DOUBLINGS + 1}, got "
                f"{self.points}: its finest halving would take {finest} > {MAX_NODES} nodes")
        if not math.isfinite(self.window_halfwidth):
            raise NonFinite(f"window_halfwidth must be finite, got {self.window_halfwidth!r}")
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
    # far from omega0 the exponent overflows to -inf, and exp(-inf) = 0 is
    # the envelope's value; numpy keeps a Python float from raising
    with np.errstate(over="ignore"):
        return np.exp(-np.square(np.subtract(omega, omega0) / (2.0 * Omega)))


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
        return np.multiply(w, step / 3.0, out=w)
    w[0] = w[-1] = 0.5
    return np.multiply(w, step, out=w)


def _moment_rows(params: RouterParams, omega0: float, Omega: float,
                 omegas: np.ndarray, rows: list[np.ndarray]) -> None:
    """Write the three moment densities e, e/(1 + u^2) and e u/(1 + u^2) at
    the ascending nodes `omegas` into `rows`, which may be strided views.

    e = exp(-(omega - omega0)^2 / (2 Omega^2)) is the squared envelope and
    u = (omega_c - omega) / Gamma the detuning in units of the line width.
    The rows are bounded by 1, whatever the packets carry.
    """
    gamma, omega_c = params.total_decay, params.omega_c
    e, a, b = rows
    # the nodes ascend, so their ends bound both ratios; far out in a widened
    # window the envelope's exponent may overflow to -inf, and exp(-inf) = 0
    # is its value
    reach = max(omega0 - omegas[0], omegas[-1] - omega0)
    with overflow_guard(reach < 2.0 ** 500 * Omega):
        x = np.subtract(omegas, omega0)
        x *= 1.0 / Omega
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=e)
    # past 2^500 line widths e/(1 + u^2) is below 2^-1000 e, so u may be
    # clipped there: u^2 stays finite and no value moves visibly
    near = max(omega_c - omegas[0], omegas[-1] - omega_c) < 2.0 ** 500 * gamma
    u = np.subtract(omega_c, omegas)
    with overflow_guard(near):
        u /= gamma
    if not near:
        np.clip(u, -2.0 ** 500, 2.0 ** 500, out=u)
    np.square(u, out=x)
    x += 1.0
    np.divide(e, x, out=a)
    np.multiply(a, u, out=b)


def _channel_numbers(rows: list[np.ndarray], step: float, rule: str,
                     couplings: Sequence[float], peaks: Sequence[complex]) -> list[float]:
    """N_ch on CHANNELS from the rows of _moment_rows on one grid.

    The rule's weights give the moments I0, A and B of the three rows. With
    p_ch the peak amplitude of the packet on ch (0 if undriven), g_ch =
    sqrt(gamma_ch / Gamma) and G = sum g_ch p_ch, the output field is
    env (p_ch - g_ch G / (1 + i u)), so

        N_ch = |p_ch|^2 I0 - 2 g_ch Re(conj(p_ch) G (A - i B)) + g_ch^2 |G|^2 A.
    """
    w = _weights(rows[0].size, step, rule)
    i0, a, b = (float(np.dot(w, row)) for row in rows)
    drive = sum(g * p for g, p in zip(couplings, peaks))
    m = drive * complex(a, -b)
    line = (drive.real * drive.real + drive.imag * drive.imag) * a
    numbers = [(p.real * p.real + p.imag * p.imag) * i0
               - 2.0 * g * (p.real * m.real + p.imag * m.imag) + g * g * line
               for g, p in zip(couplings, peaks)]
    if not math.isfinite(sum(numbers)):
        raise NonFinite("the packet flux density overflows double precision")
    return numbers


def _resolutions(params: RouterParams, omega0: float, Omega: float, lo: float, hi: float,
                 quad: QuadratureSpec, couplings: Sequence[float],
                 peaks: Sequence[complex]) -> Iterator[list[float]]:
    """Channel numbers on np.linspace(lo, hi, quad.points) and on each of
    _MAX_DOUBLINGS halvings of its step.

    A halving copies the rows of the coarser grid into its even nodes and
    evaluates only the midpoints. As a generator, its rows are freed once the
    caller stops iterating, so an exception raised after the last halving
    holds no grid.
    """
    points = quad.points
    rows = [np.empty(points) for _ in range(3)]
    _moment_rows(params, omega0, Omega, np.linspace(lo, hi, points), rows)
    yield _channel_numbers(rows, (hi - lo) / (points - 1), quad.rule, couplings, peaks)
    for _ in range(_MAX_DOUBLINGS):
        points = 2 * (points - 1) + 1
        step = (hi - lo) / (points - 1)
        coarse, rows = rows, [np.empty(points) for _ in range(3)]
        for fine, row in zip(rows, coarse):
            fine[::2] = row
        del coarse, row
        # the midpoints are the odd nodes of np.linspace(lo, hi, points),
        # computed as linspace does
        _moment_rows(params, omega0, Omega, np.arange(1, points, 2) * step + lo,
                     [fine[1::2] for fine in rows])
        yield _channel_numbers(rows, step, quad.rule, couplings, peaks)


def packet_output_numbers(params: RouterParams, packets: Sequence[WavePacket],
                          quad: QuadratureSpec = QuadratureSpec()) -> OutputReport:
    """Mean output numbers for a set of Gaussian packets sharing (omega0, Omega).

    The packets share one envelope, so every channel's flux is one
    combination of three real line moments (see _channel_numbers):

        I0 = int e,  A = int e / (1 + u^2),  B = int e u / (1 + u^2),

    with e = exp(-(omega - omega0)^2 / (2 Omega^2)) and
    u = (omega_c - omega) / Gamma. The moments are taken by the fixed
    composite rule on the quadrature window. Up to four times, the step is
    halved and the channel numbers taken again; the first resolution that
    agrees with its halving to 1e-6 relative on every channel is reported.
    Each halving evaluates the rows only at the new midpoints and reuses
    those of the coarser grid, so a converged call at the default 4001 points
    evaluates 8001 nodes. Raises QuadratureUnderResolved, naming the window,
    the base and final point counts and the channel that moved most, if no
    resolution agrees, and NonFinite if the flux density overflows double
    precision.
    """
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    lo, hi = _frequency_window(params, omega0, Omega, quad.window_halfwidth)
    n_in = sum(p.mean_n for p in packets)
    floor = 1e-9 * max(n_in, 1e-300)
    driven = {p.channel: complex(_peak_amplitude(p)) for p in packets}
    peaks = [driven.get(ch, 0j) for ch in CHANNELS]
    couplings = [math.sqrt(params.coupling(ch) / params.total_decay) for ch in CHANNELS]

    resolutions = _resolutions(params, omega0, Omega, lo, hi, quad, couplings, peaks)
    current = next(resolutions)
    for finer in resolutions:
        if all(abs(f - c) <= _REFINE_RTOL * max(abs(c), floor)
               for f, c in zip(finer, current)):
            return OutputReport.from_channel_numbers(current, n_in=n_in)
        previous, current = current, finer
    change = [abs(f - c) / max(abs(c), floor) for f, c in zip(current, previous)]
    worst = max(range(len(CHANNELS)), key=change.__getitem__)
    raise QuadratureUnderResolved(
        f"channel fluxes still moving after {_MAX_DOUBLINGS} grid doublings: "
        f"window [{lo!r}, {hi!r}], {quad.points} -> "
        f"{(quad.points - 1) * 2 ** _MAX_DOUBLINGS + 1} points, "
        f"N_{CHANNELS[worst].name.lower()} changed by {change[worst]:.3g} relative "
        f"at the last doubling, target {_REFINE_RTOL:g}")
