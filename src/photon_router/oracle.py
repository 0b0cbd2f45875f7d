"""Time-domain oracle: RK4 integration of the cavity amplitude equation.

For coherent inputs the expectation values close on themselves, so the
cavity obeys the classical linear equation

    dc/dt = (-i omega_c - gamma1 - gamma2 - gamma_c) c
            - i sum_ch sqrt(gamma_j) <o_ch_in(t)>

with c(t_start) = 0, and every channel leaves as
<o_ch_out(t)> = <o_ch_in(t)> - i sqrt(gamma_j) c(t). Integrating |.|^2 over
the window gives the same mean output numbers as the frequency-domain route,
which is exactly what this module exists to cross-check.

The integrator is classical fixed-step RK4. The equation is linear with
constant coefficients, so each step is c[i+1] = R c[i] + B[i] with a fixed
gain R, and the steps are solved in numpy as that recurrence, by doubling, a
block of 2^13 steps at a time, the amplitude c0 a block starts from entering
its first step as R c0. A block's arrays stay in cache, and the allocator
reuses them from block to block and call to call (see `_BLOCK`). Each power
R^s the doubling takes is exp(s log R), log R computed from z = h lam without
rounding R: repeated squaring would leave R^s about s eps off. Fluxes use the
trapezoid rule, effectively exact here because every integrand vanishes at
the window edges.

`integrate_cavity` takes drives as data: each driven channel's mean input
field sampled at `TimeGrid.half_nodes`, the step ends and midpoints RK4
evaluates, whose step ends are `TimeGrid.times` bit for bit.
`time_domain_report` takes packets. In the frame rotating at their shared
center frequency omega0 (omega_c -> omega_c - omega0, carrier dropped) each
is alpha_ch times one real envelope, so the cavity sees kick * env with
kick = sum_ch -i sqrt(gamma_ch) alpha_ch. Per block the report evaluates env
once and adds the trapezoid moments E = int env^2, C = int |c|^2 and
X = int env c; then n_in = sum_ch |alpha_ch|^2 E and
N_ch = |alpha_ch|^2 E + gamma_ch C + 2 sqrt(gamma_ch) Im(conj(alpha_ch) X).
Neither it nor `verify`'s plateau check, which reads one node of the same
block stream, holds an array as long as the grid.

The oracle integrates one set of packets per call: `default_grid`,
`time_pulse` and `time_domain_report` raise ParameterError for a packet whose
mean_n or phase is an array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CHANNELS,
    Channel,
    GridTooCoarse,
    GridTooLarge,
    NonFinite,
    OutputReport,
    ParameterError,
    PulseNotContained,
    RouterParams,
    WavePacket,
    require_scalar,
    validate_scalar,
)
from .wavepacket import shared_packet_frame

_EDGE_RATIO = 1e-4          # drive amplitude allowed at window edges, vs peak
_TAIL_MASS = 1e-10          # allowed envelope mass outside the window
_RINGDOWN_RATIO = 1e-8      # |c(t_end)| allowed vs max |c|
# RK4 steps allowed on one grid: about 4x the longest grid the tests, the
# verify battery and the benchmark integrate (482 200 steps, which the report
# and verify's plateau check stream). A caller of integrate_cavity holds 32
# bytes per step for each drive's half-node samples and 16 for the trajectory.
MAX_STEPS = 2_000_000
# RK4 steps solved together, in ceil(log2 _BLOCK) passes. A report's block
# holds one real envelope and one complex forcing on its half nodes, the
# trajectory and one scratch row, about 0.6 MB: that fits a 2 MB L2 cache,
# and glibc keeps the freed arrays for the next block or call instead of
# handing them back to the OS. In 2^16-step blocks (about 5 MB) the
# Omega = 0.3 report of scripts/bench_layers.py faulted in 260-420 fresh
# pages per call and its 434 200-step Omega = 0.01 report 3 600; in 2^13-step
# blocks neither faults, and they take 0.7-0.75 and 15-19 ms instead of
# 1.0-1.2 and 26-29 ms (2-CPU VM, Python 3.11, numpy 2.4). 2^12 timed the
# same as 2^13 in twice the blocks; at 2^14 the faults came back.
_BLOCK = 1 << 13


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
    for p in packets:
        require_scalar(p, "mean_n", "phase")
    omega0, Omega = shared_packet_frame(packets)
    gtot = params.total_decay
    rotation = abs(params.omega_c - omega0)
    dt = min(0.01 / gtot, 0.05 / Omega)
    if rotation > 0.0:
        dt = min(dt, 0.02 / rotation)
    return TimeGrid(t_start=t0 - 12.0 / Omega,
                    t_end=t0 + 12.0 / Omega + 22.0 / gtot,
                    dt=dt)


def _envelope(Omega: float, tau):
    """The real Gaussian every packet of bandwidth Omega shares, unit flux:
    (2 Omega^2 / pi)^(1/4) exp(-(Omega tau)^2)."""
    return (2.0 * Omega ** 2 / np.pi) ** 0.25 * np.exp(-(Omega * tau) ** 2)


def _amplitude(packet: WavePacket) -> complex:
    """alpha = sqrt(mean_n) exp(i phase), the packet's coherent amplitude."""
    return complex(math.sqrt(packet.mean_n) * np.exp(1j * packet.phase))


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


def _samples(drives: Mapping[Channel, np.ndarray], grid: TimeGrid) -> dict:
    """The drives as complex arrays; ParameterError unless each holds one
    sample per node of grid.half_nodes."""
    nodes = 2 * grid.n_steps + 1
    out = {}
    for ch, vals in drives.items():
        out[ch] = np.asarray(vals, dtype=complex)
        if out[ch].shape != (nodes,):
            raise ParameterError(
                f"drive on {ch} has shape {out[ch].shape}, need ({nodes},): "
                "one sample per node of grid.half_nodes")
    return out


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


def _recurrence(params: RouterParams, grid: TimeGrid) -> Callable:
    """The RK4 recurrence on a checked grid as a block solver, solve(forcing, c):
    forcing on the half nodes 2 i0 .. 2 i1 of a block of m <= _BLOCK steps, and
    c of m + 1 elements, c[0] the amplitude the block starts from; it fills
    c[1:] with the trajectory at the grid nodes i0 + 1 .. i1.
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

    def solve(forcing: np.ndarray, c: np.ndarray) -> None:
        m = len(c) - 1
        b = c[1:]
        # the scalar goes first: numpy's complex product with the scalar on
        # the right differs in the last bit of some elements
        tmp = np.empty(m, dtype=complex)
        np.multiply(w0, forcing[:-1:2], out=b)
        b += np.multiply(wh, forcing[1::2], out=tmp)
        b += np.multiply(w1, forcing[2::2], out=tmp)
        # c0 = c[0] enters the first step, so the scan carries c0 R^(i+1) to
        # node i + 1; a block starting from 0 keeps its bits
        if c[0]:
            b[0] += cmath.exp(log_r) * c[0]
        # Solve by doubling: after the pass with shift s, b[i] sums R^k B[i-k]
        # over k < 2s, so after ceil(log2 m) passes each sum reaches back to
        # the block's start.
        s = 1
        while s < m:
            b[s:] += np.multiply(cmath.exp(s * log_r), b[:-s], out=tmp[:m - s])
            s *= 2

    return solve


def integrate_cavity(params: RouterParams, drives: Mapping[Channel, np.ndarray],
                     grid: TimeGrid) -> np.ndarray:
    """RK4 trajectory of the cavity amplitude, c(t_start) = 0.

    drives: channel -> mean input field <o_ch_in(t)> sampled at
    grid.half_nodes; each must vanish at the window edges.
    Returns c at the grid.times nodes. Raises NonFinite, naming the channel,
    for a NaN or inf sample.
    """
    validate_scalar(params)
    _check_grid(grid, params)
    samples = _samples(drives, grid)
    for ch, vals in samples.items():
        peak = float(np.max(np.abs(vals)))
        if not peak < math.inf:     # NaN too
            raise NonFinite(f"drive on {ch} must be finite, got peak |sample| = {peak}")
        edge = max(abs(complex(vals[0])), abs(complex(vals[-1])))
        if peak > 0.0 and edge > _EDGE_RATIO * peak:
            raise PulseNotContained(
                f"drive on {ch} is {edge / peak:.2e} of its peak at the window edge")

    solve = _recurrence(params, grid)
    n = grid.n_steps
    out = np.zeros(n + 1, dtype=complex)
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        forcing = np.zeros(2 * (i1 - i0) + 1, dtype=complex)
        for ch, vals in samples.items():
            forcing += (-1j * math.sqrt(params.coupling(ch))) * vals[2 * i0:2 * i1 + 1]
        solve(forcing, out[i0:i1 + 1])
    return out


def output_flux(params: RouterParams, drives: Mapping[Channel, np.ndarray],
                trajectory: np.ndarray, grid: TimeGrid) -> OutputReport:
    """Integrated mean output numbers from a cavity trajectory.

    drives are the samples integrate_cavity took, on grid.half_nodes; every
    other one is the input at a node of grid.times.
    N_ch = integral |<o_ch_in(t)> - i sqrt(gamma_j) c(t)|^2 dt, trapezoid on
    grid.times; n_in is the integrated input flux.
    """
    validate_scalar(params)
    inputs = _samples(drives, grid)
    nodes = grid.n_steps + 1
    if trajectory.shape != (nodes,):
        raise ParameterError(
            f"trajectory has shape {trajectory.shape}, need ({nodes},): one value per grid node")
    w = np.full(nodes, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    n_in = 0.0
    fluxes = []
    for ch in CHANNELS:
        d = inputs[ch][::2] if ch in inputs else np.zeros_like(trajectory)
        n_in += float(np.dot(w, np.abs(d) ** 2))
        out_t = d - 1j * math.sqrt(params.coupling(ch)) * trajectory
        fluxes.append(float(np.dot(w, np.abs(out_t) ** 2)))
    return OutputReport.from_channel_numbers(fluxes, n_in=n_in)


def _envelope_blocks(params: RouterParams, packets: Sequence[WavePacket], grid: TimeGrid,
                     t0: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (i0, env, c) per block of grid: env the packets' envelope on the
    block's half nodes, c the cavity amplitude in their rotating frame at its
    nodes i0 .. i0 + m, c[0] the end of the block before. Raises
    PulseNotContained if the envelope mass outside the window exceeds 1e-10.
    """
    validate_scalar(params)
    for p in packets:
        require_scalar(p, "mean_n", "phase")
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
    kick = sum(-1j * math.sqrt(params.coupling(p.channel)) * _amplitude(p) for p in packets)
    n = grid.n_steps
    half = (grid.t_end - grid.t_start) / (2 * n)
    carry = 0j
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        # grid.half_nodes[2 i0:2 i1 + 1], computed as np.linspace computes
        # them, so bit for bit
        nodes = np.arange(2 * i0, 2 * i1 + 1) * half + grid.t_start
        if i1 == n:
            nodes[-1] = grid.t_end
        env = _envelope(Omega, nodes - t0)
        c = np.empty(i1 - i0 + 1, dtype=complex)
        c[0] = carry
        solve(kick * env, c)
        yield i0, env, c
        carry = c[-1]


def time_domain_report(params: RouterParams, packets: Sequence[WavePacket],
                       grid: TimeGrid | None = None, t0: float = 0.0) -> OutputReport:
    """Route Gaussian packets through the cavity entirely in the time domain.

    Integrates the cavity in the packet-center frame a block at a time,
    summing the moments E, C and X as it goes, and returns the integrated
    output numbers. Raises PulseNotContained if the envelope mass outside
    the window exceeds 1e-10 or the cavity has not rung down by t_end.
    """
    if grid is None:
        grid = default_grid(params, packets, t0)
    # the trapezoid over the grid is the sum of the trapezoids over the blocks
    e = cc = peak = 0.0
    x = 0j
    for _, env, c in _envelope_blocks(params, packets, grid, t0):
        w = np.full(len(c), grid.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        u = env[::2]
        abs_c = np.abs(c)
        peak = max(peak, float(np.max(abs_c)))
        e += float(np.dot(w, u * u))
        cc += float(np.dot(w, abs_c * abs_c))
        x += complex(np.dot(w * u, c))

    end = abs(complex(c[-1]))
    if peak > 0.0 and end >= _RINGDOWN_RATIO * peak:
        raise PulseNotContained(f"cavity not rung down: |c(t_end)| = {end / peak:.2e} of max")
    n_in = 0.0
    fluxes = [params.coupling(ch) * cc for ch in CHANNELS]
    for p in packets:
        direct = p.mean_n * e       # |alpha|^2 E; a Python float overflows to inf
        n_in += direct
        fluxes[CHANNELS.index(p.channel)] += direct + 2.0 * math.sqrt(
            params.coupling(p.channel)) * (_amplitude(p).conjugate() * x).imag
    return OutputReport.from_channel_numbers(fluxes, n_in=n_in)
