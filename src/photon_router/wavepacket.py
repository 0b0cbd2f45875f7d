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

The moments are phase-free: they depend on the rates, omega_c, omega0 and
Omega, and the packets' phases and mean numbers enter only the peaks p_ch.
So the packets' mean_n and phase may be arrays that broadcast together; one
call takes the moments once and forms every element's numbers from them,
each element with the bits of its own scalar call. The CLI runs one such
call per distinct (rates, delta, Omega) of a sweep, its phi values as one
array (in blocks of 8192).

The moments are taken by composite Simpson on 4001 nodes of a window of
+-8 Omega around omega0, widened to cover the cavity line when that lies
outside the packet window; at 8 Omega the Gaussian tail mass outside the
window is ~1e-14 of the packet. Results are deterministic; step-halving is
used only as a convergence check.

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
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CHANNELS,
    NonFinite,
    OutputReport,
    QuadratureUnderResolved,
    RouterParams,
    WavePacket,
    check_packets,
    holds,
    overflow_guard,
    packet_amplitude,
    require,
)
from .scattering import scatter  # unused here; perfbench/tracing.py patches it by this name

_HALFWIDTH = 8.0        # window half-width, in multiples of Omega
_POINTS = 4001          # base grid nodes; odd, as composite Simpson needs
_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 4


def gaussian_spectrum(packet: WavePacket, omega):
    """Spectral amplitude alpha_omega of the packet, phase factor included.

    Vectorized over omega. |alpha_omega|^2 peaks at mean_n / sqrt(2 pi Omega^2).
    """
    return (packet_amplitude(packet) * (2.0 * np.pi * packet.Omega ** 2) ** (-0.25)
            * _envelope(packet.omega0, packet.Omega, omega))


def _envelope(omega0: float, Omega: float, omega):
    # far from omega0 the exponent overflows to -inf, and exp(-inf) = 0 is
    # the envelope's value; numpy keeps a Python float from raising
    with np.errstate(over="ignore"):
        return np.exp(-np.square(np.subtract(omega, omega0) / (2.0 * Omega)))


def _frequency_window(params: RouterParams, omega0: float, Omega: float) -> tuple[float, float]:
    lo = omega0 - _HALFWIDTH * Omega
    hi = omega0 + _HALFWIDTH * Omega
    if not lo <= params.omega_c <= hi:
        reach = 8.0 * params.total_decay
        lo = min(lo, params.omega_c - reach)
        hi = max(hi, params.omega_c + reach)
    return lo, hi


def _weights(points: int, step: float) -> np.ndarray:
    """Composite Simpson weights on `points` (odd) nodes of spacing `step`."""
    third = step / 3.0
    w = np.full(points, 2.0 * third)
    w[1::2] = 4.0 * third
    w[0] = w[-1] = third
    return w


def _moment_rows(params: RouterParams, omega0: float, Omega: float,
                 omegas: np.ndarray, rows: list[np.ndarray]) -> None:
    """Write the three moment densities e, e/(1 + u^2) and e u/(1 + u^2) at
    the ascending nodes `omegas` into `rows`, which may be strided views.
    `omegas` is overwritten.

    e = exp(-(omega - omega0)^2 / (2 Omega^2)) is the squared envelope and
    u = (omega_c - omega) / Gamma the detuning in units of the line width.
    The rows are bounded by 1, whatever the packets carry.
    """
    gamma, omega_c = params.total_decay, params.omega_c
    e, a, b = rows
    # the nodes ascend, so their ends bound both ratios; far out in a widened
    # window the envelope's exponent may overflow to -inf, and exp(-inf) = 0
    # is its value. Past 2^500 line widths e/(1 + u^2) is below 2^-1000 e,
    # so u may be clipped there: u^2 stays finite and no value moves visibly.
    reach = max(omega0 - omegas[0], omegas[-1] - omega0)
    near = max(omega_c - omegas[0], omegas[-1] - omega_c) < 2.0 ** 500 * gamma
    u = np.subtract(omega_c, omegas)
    x = omegas  # the caller's scratch from here on
    with overflow_guard(reach < 2.0 ** 500 * Omega):
        x -= omega0
        x *= 1.0 / Omega
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=e)
    with overflow_guard(near):
        u /= gamma
    if not near:
        np.clip(u, -2.0 ** 500, 2.0 ** 500, out=u)
    np.square(u, out=x)
    x += 1.0
    np.divide(e, x, out=a)
    np.multiply(a, u, out=b)


def _moments(rows: list[np.ndarray], step: float) -> tuple[float, float, float]:
    """The line moments (I0, A, B): composite Simpson on the three rows."""
    w = _weights(rows[0].size, step)
    i0, a, b = (float(np.dot(w, row)) for row in rows)
    return i0, a, b


def _resolutions(params: RouterParams, omega0: float, Omega: float, lo: float,
                 hi: float) -> Iterator[tuple[float, float, float]]:
    """Line moments on np.linspace(lo, hi, _POINTS) and on each of
    _MAX_DOUBLINGS halvings of its step, evaluated lazily.

    A halving copies the rows of the coarser grid into its even nodes and
    evaluates only the midpoints. As a generator, its rows are freed once the
    caller stops iterating, so an exception raised after the last halving
    holds no grid.
    """
    points = _POINTS
    rows = [np.empty(points) for _ in range(3)]
    _moment_rows(params, omega0, Omega, np.linspace(lo, hi, points), rows)
    yield _moments(rows, (hi - lo) / (points - 1))
    for _ in range(_MAX_DOUBLINGS):
        points = 2 * (points - 1) + 1
        step = (hi - lo) / (points - 1)
        # a row at a time, so that each coarse row is freed once copied
        coarse, rows = rows, []
        while coarse:
            fine = np.empty(points)
            fine[::2] = coarse.pop(0)
            rows.append(fine)
        # the midpoints are the odd nodes of np.linspace(lo, hi, points),
        # computed as linspace does (odd integers are exact as floats)
        mid = np.arange(1, points, 2, dtype=float)
        mid *= step
        mid += lo
        _moment_rows(params, omega0, Omega, mid, [fine[1::2] for fine in rows])
        del mid  # the Simpson weights, as long as the rows, come next
        yield _moments(rows, step)


def _channel_numbers(moments: tuple[float, float, float], couplings: Sequence[float],
                     peaks: Sequence[tuple]) -> list:
    """N_ch on CHANNELS from the line moments (I0, A, B) of one resolution.

    With p_ch the peak amplitude of the packet on ch (0 if undriven), g_ch =
    sqrt(gamma_ch / Gamma) and G = sum g_ch p_ch, the output field is
    env (p_ch - g_ch G / (1 + i u)), so

        N_ch = |p_ch|^2 I0 - 2 g_ch Re(conj(p_ch) G (A - i B)) + g_ch^2 |G|^2 A.

    Each peak is a pair (Re p_ch, Im p_ch) of floats or of arrays. The complex
    products are written out in real arithmetic, term for term as CPython
    forms them (a float g times p is (g + 0i) p, and sum() starts from 0), so
    floats give the bits of complex arithmetic and each array element the
    bits of its scalar call.
    """
    i0, a, b = moments
    dr = di = 0.0
    for g, (pr, pi) in zip(couplings, peaks):
        dr = dr + (g * pr - 0.0 * pi)
        di = di + (g * pi + 0.0 * pr)
    mr = dr * a - di * -b       # G (A - i B)
    mi = dr * -b + di * a
    line = (dr * dr + di * di) * a
    return [(pr * pr + pi * pi) * i0 - 2.0 * g * (pr * mr + pi * mi) + g * g * line
            for g, (pr, pi) in zip(couplings, peaks)]


def _agrees(finer: list, coarser: list, floor):
    """Whether every channel of `finer` lies within _REFINE_RTOL of `coarser`,
    relative to max(|coarser|, floor): a bool, or a bool array for arrays."""
    ok = True
    for f, c in zip(finer, coarser):
        change = abs(f - c)
        # change <= rtol max(|c|, floor), without max(), which arrays lack;
        # scaling by rtol keeps the order of the two bounds, so the bits agree
        ok = ok & ((change <= _REFINE_RTOL * abs(c)) | (change <= _REFINE_RTOL * floor))
    return ok


def packet_output_numbers(params: RouterParams, packets: Sequence[WavePacket]) -> OutputReport:
    """Mean output numbers for a set of Gaussian packets sharing (omega0, Omega).

    The packets share one envelope, so every channel's flux is one
    combination of three real line moments (see _channel_numbers):

        I0 = int e,  A = int e / (1 + u^2),  B = int e u / (1 + u^2),

    with e = exp(-(omega - omega0)^2 / (2 Omega^2)) and
    u = (omega_c - omega) / Gamma. The moments depend on the rates, omega_c,
    omega0 and Omega only, not on the packets' phases or mean numbers, which
    enter the combination alone. So the packets' mean_n and phase may be
    arrays that broadcast together: the call takes the moments once and
    returns a report of the broadcast shape, each element with the bits of
    the scalar call for that element; a scalar call is the 0-d case.

    The moments are taken by composite Simpson on 4001 nodes of the
    quadrature window. Up to four times, the step is halved and the channel
    numbers taken again; each element reports the first resolution that
    agrees with its halving to 1e-6 relative on every channel. Each halving
    evaluates the rows only at the new midpoints and reuses those of the
    coarser grid, so a converged call evaluates 8001 nodes. Raises
    QuadratureUnderResolved, naming the window, the base and final point
    counts and the channel that moved most, if an element has no resolution
    that agrees, and NonFinite if the flux density overflows double
    precision; for arrays both name the first failing element's flat index.
    """
    omega0, Omega, shape, alphas = check_packets(params, packets)
    lo, hi = _frequency_window(params, omega0, Omega)
    n_in = sum(p.mean_n for p in packets)
    # a scalar call computes in Python floats and complex numbers, which
    # never warn on overflow and cost less than numpy scalars
    peak = (2.0 * np.pi * Omega ** 2) ** (-0.25)
    driven = {ch: alpha * peak for ch, alpha in alphas.items()}
    floor = 1e-9 * (np.maximum(n_in, 1e-300) if shape else max(n_in, 1e-300))
    peaks = [(alpha.real, alpha.imag)
             for alpha in (driven.get(ch, 0j) for ch in CHANNELS)]
    couplings = [math.sqrt(params.coupling(ch) / params.total_decay) for ch in CHANNELS]

    # `settled` marks the elements whose report is taken (a bool for a scalar
    # call); `chosen` holds that report, and each other element's latest
    # candidate. Arrays may warn on overflow, Python floats do not.
    settled = False
    chosen = current = None
    with overflow_guard(not shape):
        for moments in _resolutions(params, omega0, Omega, lo, hi):
            previous, current = current, _channel_numbers(moments, couplings, peaks)
            total = sum(current)
            require((abs(total) < math.inf) | settled, NonFinite,
                    "the packet flux density overflows double precision", total)
            if previous is None:
                continue
            chosen = previous if chosen is None else [
                np.where(settled, c, p) for c, p in zip(chosen, previous)]
            settled = settled | _agrees(current, previous, floor)
            if holds(settled):
                return OutputReport.from_channel_numbers(chosen, n_in=n_in)

    index = int(np.argmin(settled))

    def at(x):
        return np.broadcast_to(x, shape).flat[index] if shape else x

    change = [abs(at(f) - at(c)) / max(abs(at(c)), at(floor))
              for f, c in zip(current, previous)]
    worst = max(range(len(CHANNELS)), key=change.__getitem__)
    where = f" at index {index}" if shape else ""
    raise QuadratureUnderResolved(
        f"channel fluxes still moving after {_MAX_DOUBLINGS} grid doublings{where}: "
        f"window [{lo!r}, {hi!r}], {_POINTS} -> "
        f"{(_POINTS - 1) * 2 ** _MAX_DOUBLINGS + 1} points, "
        f"N_{CHANNELS[worst].name.lower()} changed by {change[worst]:.3g} relative "
        f"at the last doubling, target {_REFINE_RTOL:g}")
