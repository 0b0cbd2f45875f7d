"""Time-domain oracle: RK4 integration of the cavity amplitude equation.

For coherent inputs the expectation values close on themselves, so the
cavity obeys the classical linear equation

    dc/dt = (-i omega_c - gamma1 - gamma2 - gamma_c) c
            - i sum_ch sqrt(gamma_j) <o_ch_in(t)>

with c(t_start) = 0, and every channel leaves as
<o_ch_out(t)> = <o_ch_in(t)> - i sqrt(gamma_j) c(t). Integrating |.|^2 over
the window gives the same mean output numbers as the frequency-domain route,
which is exactly what this module exists to cross-check.

The packets of one call share their center omega0 and one real envelope
env. In the frame rotating at omega0 (omega_c -> omega_c - omega0, carrier
dropped) packet ch is alpha_ch env, so the cavity sees only kick env with
kick = sum_ch -i sqrt(gamma_ch) alpha_ch. The equation is linear, so
c = kick c1, where c1, the unit response, is the cavity driven by env
alone. The oracle solves c1 once per call, whatever the packets' phases and
photon numbers, in one stream of blocks (`_envelope_blocks`):
`integrate_cavity` gathers kick c1 at the grid nodes, times the carrier at
omega0 != 0, and `time_domain_report` adds the trapezoid moments
E = int env^2, C1 = int |c1|^2 and X1 = int env c1, from which
`output_flux` forms n_in = sum_ch |alpha_ch|^2 E and
N_ch = |alpha_ch|^2 E + gamma_ch |kick|^2 C1 + 2 sqrt(gamma_ch) Im(conj(alpha_ch) kick X1).
So the packets' mean_n and phase may be arrays that broadcast together: a
report of their broadcast shape still takes one solve. The report holds no
array as long as the grid.

The integrator is classical fixed-step RK4. The equation is linear with
constant coefficients, so each step is c[i+1] = R c[i] + B[i] with a fixed
gain R, and the steps are solved in numpy as that recurrence, a block of 2^13
steps at a time, in rows of up to 2^11 steps (see `_ROW`): counting j and i
from a row's start, c[j+1] = R^j (R c0 + sum_{i<=j} R^-i B[i]), a prefix sum
between two scalings, c0 the amplitude the row starts from. A stream
allocates its block arrays once per call and reuses them for every block
(see `_BLOCK`). Each power R^k is exp(k log R), log R computed from z = h lam
without rounding R: repeated multiplication would leave R^k about k eps off.
Fluxes use the trapezoid rule, effectively exact here because every
integrand vanishes at the window edges.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    CHANNELS,
    GridTooCoarse,
    GridTooLarge,
    NonFinite,
    OutputReport,
    ParameterError,
    PulseNotContained,
    RouterParams,
    WavePacket,
    broadcast_shape,
    overflow_guard,
    require_scalar,
    validate_scalar,
)
from .wavepacket import shared_packet_frame

_TAIL_MASS = 1e-10          # allowed envelope mass outside the window
_RINGDOWN_RATIO = 1e-8      # |c(t_end)| allowed vs max |c|
# RK4 steps allowed on one grid: about 4x the longest grid the tests, the
# verify battery and the benchmark integrate (482 200 steps, which the report
# and verify's plateau check stream). integrate_cavity holds 16 bytes per
# step for the trajectory it returns; the report holds no per-step array.
MAX_STEPS = 2_000_000
# RK4 steps solved together. A stream's block arrays (the half-node numbers
# and the real envelope on them, the trajectory and one scratch row, about
# 0.5 MB) fit a 2 MB L2 cache. The stream allocates them once per call and
# reuses them for every block, so its page faults per call do not grow with
# the grid: in fresh processes 0-128 per report of scripts/bench_layers.py,
# at Omega = 0.3 and at Omega = 0.01 (434 200 steps), where fresh arrays per
# block faulted up to 240 and 2 432 times. In 2^16-step blocks (about 5 MB)
# the Omega = 0.3 report took 1.0-1.2 ms instead of 0.7-0.75 ms (2-CPU VM,
# Python 3.11, numpy 2.4); 2^12 timed the same as 2^13 in twice the blocks.
_BLOCK = 1 << 13
# Steps per prefix sum at most; rows of 2^12 and 2^13 steps timed no faster.
# A row of n steps scales a step's forcing by up to |R|^-n, and `_row` halves
# n until that is at most e^_SPAN. On the grids default_grid makes (h Gamma
# <= 0.01, at most 0.02 rad per step) rows are _ROW steps, |R|^-_ROW <=
# e^20.5. RK4 damps large rotations per step, |R| down to about 0.48 at
# 2.45 rad, where a row of _ROW steps would scale by e^1500; there rows are
# 32 steps.
_ROW = 1 << 11
_SPAN = 24.0
# The powers R^k, k < _ROW, are products of two exp tables of up to _FINE
# and _ROW / _FINE entries.
_FINE = 1 << 6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid; dt is an upper bound on the actual step.

    The number of steps is ceil((t_end - t_start) / dt), so halving dt
    exactly doubles the step count. Grids of more than MAX_STEPS steps are
    refused with GridTooLarge before anything is allocated.
    """

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.t_start, self.t_end, self.dt)):
            raise NonFinite(f"non-finite entry in {self}")
        if self.t_end <= self.t_start or self.dt <= 0.0:
            raise ParameterError(f"need t_end > t_start and dt > 0, got {self}")
        if self.n_steps > MAX_STEPS:
            raise GridTooLarge(
                f"{self} needs {self.n_steps} RK4 steps, more than the "
                f"ceiling of {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t_start
        return max(1, math.ceil(span / self.dt * (1.0 - 1e-12)))

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    @property
    def half_nodes(self) -> np.ndarray:
        """The 2 n_steps + 1 step ends and midpoints; every other one is a node
        of `times`, bit for bit."""
        return np.linspace(self.t_start, self.t_end, 2 * self.n_steps + 1)


def default_grid(params: RouterParams, packets: Sequence[WavePacket],
                 t0: float = 0.0) -> TimeGrid:
    """Grid covering 12/Omega on both sides of the pulse peak plus ring-down."""
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    gtot = params.total_decay
    rotation = abs(params.omega_c - omega0)
    dt = min(0.01 / gtot, 0.05 / Omega)
    if rotation > 0.0:
        dt = min(dt, 0.02 / rotation)
    return TimeGrid(t_start=t0 - 12.0 / Omega,
                    t_end=t0 + 12.0 / Omega + 22.0 / gtot,
                    dt=dt)


def _envelope(Omega: float, tau, out=None):
    """The real Gaussian every packet of bandwidth Omega shares, unit flux:
    (2 Omega^2 / pi)^(1/4) exp(-(Omega tau)^2), into `out` if given."""
    arg = np.negative(np.square(np.multiply(Omega, tau, out=out), out=out), out=out)
    return np.multiply((2.0 * Omega ** 2 / np.pi) ** 0.25, np.exp(arg, out=out), out=out)


def _amplitude(packet: WavePacket):
    """alpha = sqrt(mean_n) exp(i phase), the packet's coherent amplitude; an
    array where mean_n or phase is one."""
    return np.sqrt(packet.mean_n) * np.exp(1j * packet.phase)


def _kick(params: RouterParams, packets: Sequence[WavePacket]) -> tuple[dict, complex]:
    """The packets' amplitudes by channel and the kick sum_ch -i sqrt(gamma_ch)
    alpha_ch: Python complex numbers, or arrays of the broadcast shape of the
    packets' mean_n and phase values."""
    validate_scalar(params)
    shape = broadcast_shape("packet mean_n and phase values",
                            *(x for p in packets for x in (p.mean_n, p.phase)))
    alphas = {p.channel: _amplitude(p) if shape else complex(_amplitude(p)) for p in packets}
    kick = sum(-1j * math.sqrt(params.coupling(ch)) * a for ch, a in alphas.items())
    return alphas, kick


def time_pulse(packet: WavePacket, t, t0: float = 0.0):
    """Mean input field <o_in(t)> of the packet, peak at t0 (vectorized over t).

    alpha (2 Omega^2 / pi)^(1/4) exp(-Omega^2 (t-t0)^2) exp(-i omega0 (t-t0)),
    the Fourier pair of the Gaussian spectrum; integrates to mean_n in flux.
    The carrier factor is skipped at omega0 = 0, the rotating frame's case.
    """
    require_scalar(packet, "mean_n", "phase")
    tau = np.asarray(t, dtype=float) - t0
    pulse = _amplitude(packet) * _envelope(packet.Omega, tau)
    if packet.omega0 != 0.0:
        # in place: numpy's out-of-place complex product differs from it in
        # the last bit of some elements
        pulse *= np.exp(-1j * packet.omega0 * tau)
    return pulse


def _lam(params: RouterParams) -> complex:
    """Coefficient of c in the cavity equation dc/dt = lam c + forcing."""
    return complex(-1j * params.omega_c - params.total_decay)


def _check_grid(grid: TimeGrid, params: RouterParams) -> None:
    if grid.n_steps < 1000:
        raise GridTooCoarse(f"need >= 1000 steps, got {grid.n_steps}")
    limit = 0.01 / params.total_decay
    if grid.step > limit * (1.0 + 1e-9):
        raise GridTooCoarse(
            f"step {grid.step:.3e} exceeds 0.01/total_decay = {limit:.3e}")
    # RK4's growth factor per step, R = 1 + z + z^2/2 + z^3/6 + z^4/24
    z = grid.step * _lam(params)
    gain = abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    if not gain < 1.0:      # NaN too: R overflows for huge h * omega_c
        raise GridTooCoarse(
            f"RK4 is unstable on this grid: |R| = {gain:.6g} >= 1 at step "
            f"{grid.step:.3e} with omega_c = {params.omega_c}")


def _log_gain(z: complex) -> complex:
    """log R for RK4's gain R = T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = h lam,
    without rounding R: T4 = e^z - S with S = sum_{k>=5} z^k/k!, so
    log T4 = z + log1p(w) with w = -e^-z S."""
    term = z ** 5 / 120.0
    s = 0j
    k = 5
    while s + term != s:
        s += term
        k += 1
        term *= z / k
    w = -cmath.exp(-z) * s
    # log1p(w), which numpy rounds to w.imag * 1j when |w| is tiny
    return z + complex(0.5 * math.log1p(2.0 * w.real + abs(w) ** 2),
                       math.atan2(w.imag, 1.0 + w.real))


def _row(log_r: complex) -> int:
    """Steps per prefix sum: the largest power of two n <= _ROW with
    |R|^-n = exp(-n Re log R) <= e^_SPAN."""
    n = _ROW
    while n > 1 and -n * log_r.real > _SPAN:
        n //= 2
    return n


def _powers(log_r: complex, n: int) -> np.ndarray:
    """R^k = exp(k log R) for k = 0 .. n - 1, n a power of two, as products of
    two short exp tables, k = fine q + r. log R splits into hi, its parts
    rounded to 24 bits, and the rest lo, at most 2^-24 of it: k hi is exact,
    so no power carries the rounding of a large argument k log R. Powers from
    a rounded k log R put a trajectory at |h Im lam| = 1 4.5e-14 of its peak
    off a step-by-step RK4 loop, instead of 6.8e-15."""
    hi = complex(np.complex64(log_r))
    lo = log_r - hi

    def table(k):
        return np.exp(hi * k) * np.exp(lo * k)

    fine = min(n, _FINE)
    return (table(fine * np.arange(n // fine))[:, None] * table(np.arange(fine))).ravel()


def _recurrence(params: RouterParams, grid: TimeGrid) -> Callable:
    """The RK4 recurrence on a checked grid as a block solver,
    solve(drive, c): drive on the half nodes 2 i0 .. 2 i1 of a block of
    m <= _BLOCK steps and c of m + 1 elements, c[0] the amplitude the block
    starts from; it fills c[1:] with the trajectory at the grid nodes
    i0 + 1 .. i1. The solver's tables and scratch row belong to this call of
    _recurrence.
    """
    h = grid.step
    # One RK4 step is c[i+1] = R c[i] + B[i]: R from the homogeneous part,
    # B[i] the same step taken from c = 0 with the forcing d0, dh, d1 at t_i,
    # t_i + h/2 and t_i + h. There k1 = d0, k2 = a d0 + dh, k3 = a k2 + dh
    # and k4 = 2a k3 + d1 with a = h lam / 2, so B is fixed weights on them.
    a = _lam(params) * (0.5 * h)
    w0 = h / 6.0 * (1.0 + 2.0 * a * (1.0 + a * (1.0 + a)))
    wh = h / 6.0 * (4.0 + a * (4.0 + 2.0 * a))
    w1 = h / 6.0
    log_r = _log_gain(h * _lam(params))
    gain = cmath.exp(log_r)
    row = _row(log_r)
    up, down = _powers(log_r, row), _powers(-log_r, row)
    tmp = np.empty(min(grid.n_steps, _BLOCK), dtype=complex)

    def solve(drive: np.ndarray, c: np.ndarray) -> None:
        m = len(c) - 1
        b = c[1:]
        t = tmp[:m]
        np.multiply(w0, drive[:-1:2], out=b)
        b += np.multiply(wh, drive[1::2], out=t)
        b += np.multiply(w1, drive[2::2], out=t)
        # Row by row, c[j+1] = R^j (R start + sum_{i<=j} R^-i B[i]) with j
        # and i counted from the row's start: a prefix sum between two
        # scalings, the row's end the next row's start.
        start = c[0]
        for j0 in range(0, m, row):
            part = b[j0:j0 + row]
            part *= down[:len(part)]
            part[0] += gain * start
            np.cumsum(part, out=part)
            part *= up[:len(part)]
            start = part[-1]

    return solve


def _envelope_blocks(params: RouterParams, packets: Sequence[WavePacket], grid: TimeGrid,
                     t0: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (i0, env, c1) per block of grid: env the packets' envelope on the
    block's half nodes, c1 the unit response, the cavity in their rotating
    frame driven by env alone, at its nodes i0 .. i0 + m, c1[0] the end of
    the block before. Raises PulseNotContained if the envelope mass outside
    the window exceeds 1e-10.
    """
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    mass_out = 0.5 * (math.erfc(math.sqrt(2.0) * Omega * (t0 - grid.t_start))
                      + math.erfc(math.sqrt(2.0) * Omega * (grid.t_end - t0)))
    if mass_out > _TAIL_MASS:
        raise PulseNotContained(
            f"envelope mass {mass_out:.2e} outside [{grid.t_start}, {grid.t_end}]")

    rotated = replace(params, omega_c=params.omega_c - omega0)
    validate_scalar(rotated)
    _check_grid(grid, rotated)
    solve = _recurrence(rotated, grid)
    n = grid.n_steps
    half = (grid.t_end - grid.t_start) / (2 * n)
    # One set of block arrays serves the whole stream, each block overwriting
    # the one before, so a consumer reads a block before it asks for the
    # next. index holds the block's half-node numbers 2 i0 .. 2 i0 + 2 m.
    m = min(n, _BLOCK)
    index = np.arange(2 * m + 1, dtype=float)
    env = np.empty(2 * m + 1)
    c = np.zeros(m + 1, dtype=complex)
    for i0 in range(0, n, _BLOCK):
        k = min(_BLOCK, n - i0)
        block_env, block_c = env[:2 * k + 1], c[:k + 1]
        # every block before the last is whole: c[-1] is the end of the one
        # before, or 0
        c[0] = c[-1]
        # grid.half_nodes[2 i0:2 i0 + 2 k + 1], computed as np.linspace
        # computes them, so bit for bit; then the envelope in place
        tau = np.multiply(index[:2 * k + 1], half, out=block_env)
        tau += grid.t_start
        if i0 + k == n:
            tau[-1] = grid.t_end
        tau -= t0
        _envelope(Omega, tau, out=block_env)
        solve(block_env, block_c)
        yield i0, block_env, block_c
        index += 2 * _BLOCK


def integrate_cavity(params: RouterParams, packets: Sequence[WavePacket],
                     grid: TimeGrid | None = None, t0: float = 0.0) -> np.ndarray:
    """RK4 trajectory of the cavity amplitude the packets drive, c(t_start) = 0.

    The packets' pulses peak at t0; grid defaults to default_grid. Returns c
    at the grid.times nodes in the lab frame: kick c1 from the unit-response
    stream, times the carrier exp(-i omega0 (t - t0)) at omega0 != 0. For
    array mean_n or phase values the result has their broadcast shape, then
    one axis of nodes. Raises PulseNotContained if the envelope mass outside
    the window exceeds 1e-10.
    """
    if grid is None:
        grid = default_grid(params, packets, t0)
    kick = np.expand_dims(_kick(params, packets)[1], -1)
    out = np.zeros(kick.shape[:-1] + (grid.n_steps + 1,), dtype=complex)
    for i0, _, c1 in _envelope_blocks(params, packets, grid, t0):
        # the first node stays 0 exactly, where kick * 0 may be -0.0
        np.multiply(kick, c1[1:], out=out[..., i0 + 1:i0 + len(c1)])
    omega0 = packets[0].omega0
    if omega0 != 0.0:
        out *= np.exp(-1j * omega0 * (grid.times - t0))
    return out


def output_flux(params: RouterParams, packets: Sequence[WavePacket], e: float, cc: float,
                x: complex) -> OutputReport:
    """Mean output numbers of the packets from the trapezoid moments of their
    unit response c1 over the window: e = E = int env^2, cc = C1 = int |c1|^2
    and x = X1 = int env c1.

    The cavity is kick c1, so C = int |c|^2 = |kick|^2 C1 and
    X = int env c = kick X1; then n_in = sum_ch |alpha_ch|^2 E and
    N_ch = |alpha_ch|^2 E + gamma_ch C + 2 sqrt(gamma_ch) Im(conj(alpha_ch) X).
    The report has the broadcast shape of the packets' mean_n and phase.
    """
    alphas, kick = _kick(params, packets)
    # a scalar call computes in Python floats, which never warn on overflow
    with overflow_guard(not np.shape(kick)):
        size = abs(kick)
        cc = size * size * cc
        x = kick * x
        n_in = 0.0
        fluxes = [params.coupling(ch) * cc for ch in CHANNELS]
        for p in packets:
            direct = p.mean_n * e       # |alpha|^2 E
            n_in = n_in + direct
            i = CHANNELS.index(p.channel)
            fluxes[i] = fluxes[i] + direct + 2.0 * math.sqrt(
                params.coupling(p.channel)) * (alphas[p.channel].conjugate() * x).imag
    return OutputReport.from_channel_numbers(fluxes, n_in=n_in)


def time_domain_report(params: RouterParams, packets: Sequence[WavePacket],
                       grid: TimeGrid | None = None, t0: float = 0.0) -> OutputReport:
    """Route Gaussian packets through the cavity entirely in the time domain.

    Integrates the unit response in the packet-center frame a block at a
    time, summing the moments E, C1 and X1 as it goes, and returns the
    integrated output numbers (see output_flux): one solve for every element
    when the packets' mean_n and phase are arrays. Raises PulseNotContained
    if the envelope mass outside the window exceeds 1e-10 or the cavity has
    not rung down by t_end.
    """
    if grid is None:
        grid = default_grid(params, packets, t0)
    # the trapezoid over the grid is the sum of the trapezoids over the
    # blocks, each h (sum - half the two ends)
    h = grid.step
    e = cc = peak = 0.0
    x = 0j
    for _, env, c in _envelope_blocks(params, packets, grid, t0):
        u = env[::2]
        u0, u1, ca, cb = float(u[0]), float(u[-1]), complex(c[0]), complex(c[-1])
        peak = max(peak, float(np.max(np.abs(c))))
        e += h * (float(np.dot(u, u)) - 0.5 * (u0 * u0 + u1 * u1))
        cc += h * (float(np.vdot(c, c).real) - 0.5 * (abs(ca) * abs(ca) + abs(cb) * abs(cb)))
        x += h * (complex(float(np.dot(u, c.real)), float(np.dot(u, c.imag)))
                  - 0.5 * (u0 * ca + u1 * cb))

    end = abs(cb)
    if peak > 0.0 and end >= _RINGDOWN_RATIO * peak:
        raise PulseNotContained(f"cavity not rung down: |c(t_end)| = {end / peak:.2e} of max")
    return output_flux(params, packets, e, cc, x)
