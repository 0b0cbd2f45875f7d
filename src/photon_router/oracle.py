"""Time-domain oracle: RK4 integration of the cavity amplitude equation.

For coherent inputs the expectation values close on themselves, so the
cavity obeys the classical linear equation

    dc/dt = (-i omega_c - gamma1 - gamma2 - gamma_c) c
            - i sum_ch sqrt(gamma_j) <o_ch_in(t)>

with c(t_start) = 0, and every channel leaves as
<o_ch_out(t)> = <o_ch_in(t)> - i sqrt(gamma_j) c(t). Integrating |.|^2 over
the window gives the same mean output numbers as the frequency-domain route,
which is exactly what this module exists to cross-check.

The integrator is classical fixed-step RK4 (deterministic, clean order-4
convergence). The equation is linear with constant coefficients, so each
step is c[i+1] = R c[i] + B[i] with a fixed gain R; the steps are solved
together in numpy as that linear recurrence, by doubling, rather than one at
a time. Fluxes use the trapezoid rule, which is effectively exact here
because every integrand vanishes at the window edges. High-level packet
scenarios run in a frame rotating at the packet center frequency omega0
(omega_c -> omega_c - omega0, carrier dropped) so the step resolves only
decay rates and bandwidths; interface values stay lab-frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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
    validate_scalar,
)
from .wavepacket import shared_packet_frame

Drive = tuple[Channel, Callable]

_EDGE_RATIO = 1e-4          # drive amplitude allowed at window edges, vs peak
_TAIL_MASS = 1e-10          # allowed envelope mass outside the window
_RINGDOWN_RATIO = 1e-8      # |c(t_end)| allowed vs max |c|
# RK4 steps allowed on one grid: about 4x the longest grid the tests, the
# verify battery and the benchmark integrate (482 000 steps). The half-node
# forcing alone takes 32 bytes per step, and the recurrence ceil(log2 n)
# passes over the n steps.
MAX_STEPS = 2_000_000


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


def time_pulse(packet: WavePacket, t, t0: float = 0.0):
    """Mean input field <o_in(t)> of the packet, peak at t0 (vectorized over t).

    alpha (2 Omega^2 / pi)^(1/4) exp(-Omega^2 (t-t0)^2) exp(-i omega0 (t-t0)),
    the Fourier pair of the Gaussian spectrum; integrates to mean_n in flux.
    The carrier factor is skipped at omega0 = 0, the rotating frame's case.
    """
    tau = np.asarray(t, dtype=float) - t0
    alpha = math.sqrt(packet.mean_n) * np.exp(1j * packet.phase)
    envelope = (2.0 * packet.Omega ** 2 / np.pi) ** 0.25 * np.exp(-(packet.Omega * tau) ** 2)
    if packet.omega0 == 0.0:
        return alpha * envelope
    return alpha * envelope * np.exp(-1j * packet.omega0 * tau)


def _lam(params: RouterParams) -> complex:
    """Coefficient of c in the cavity equation dc/dt = lam c + forcing."""
    return complex(-1j * params.omega_c - params.total_decay)


def _rk4_gain(grid: TimeGrid, params: RouterParams) -> complex:
    """RK4 growth factor per step, R = 1 + z + z^2/2 + z^3/6 + z^4/24, z = h lam."""
    z = grid.step * _lam(params)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _check_grid(grid: TimeGrid, params: RouterParams) -> None:
    if grid.n_steps < 1000:
        raise GridTooCoarse(f"need >= 1000 steps, got {grid.n_steps}")
    limit = 0.01 / params.total_decay
    if grid.step > limit * (1.0 + 1e-9):
        raise GridTooCoarse(
            f"step {grid.step:.3e} exceeds 0.01/total_decay = {limit:.3e}")
    gain = abs(_rk4_gain(grid, params))
    if not gain < 1.0:      # NaN too: R overflows for huge h * omega_c
        raise GridTooCoarse(
            f"RK4 is unstable on this grid: |R| = {gain:.6g} >= 1 at step "
            f"{grid.step:.3e} with omega_c = {params.omega_c}")


def _drive_arrays(drives: Sequence[Drive], t: np.ndarray) -> dict[Channel, np.ndarray]:
    """Per-channel drive amplitudes on the given nodes; coherent sums per channel."""
    out: dict[Channel, np.ndarray] = {}
    for ch, fn in drives:
        vals = np.broadcast_to(np.asarray(fn(t), dtype=complex), t.shape)
        out[ch] = out.get(ch, 0) + vals
    return out


def integrate_cavity(params: RouterParams, drives: Sequence[Drive],
                     grid: TimeGrid) -> np.ndarray:
    """RK4 trajectory of the cavity amplitude, c(t_start) = 0.

    drives: (channel, fn) pairs, fn mapping an ndarray of times to complex
    amplitudes; drive envelopes must vanish at the window edges.
    Returns c at the grid.times nodes.
    """
    validate_scalar(params)
    _check_grid(grid, params)
    n = grid.n_steps
    h = grid.step
    half_nodes = np.linspace(grid.t_start, grid.t_end, 2 * n + 1)

    forcing = np.zeros(2 * n + 1, dtype=complex)
    for ch, vals in _drive_arrays(drives, half_nodes).items():
        peak = float(np.max(np.abs(vals)))
        edge = max(abs(complex(vals[0])), abs(complex(vals[-1])))
        if peak > 0.0 and edge > _EDGE_RATIO * peak:
            raise PulseNotContained(
                f"drive on {ch} is {edge / peak:.2e} of its peak at the window edge")
        forcing += (-1j * math.sqrt(params.coupling(ch))) * vals

    # One RK4 step is c[i+1] = R c[i] + B[i]: R from the homogeneous part,
    # B[i] the same step taken from c = 0 with the forcing d0, dh, d1 at t_i,
    # t_i + h/2 and t_i + h. There k1 = d0, k2 = a d0 + dh, k3 = a k2 + dh
    # and k4 = 2a k3 + d1 with a = h lam / 2, so B is fixed weights on them.
    a = _lam(params) * (0.5 * h)
    w0 = h / 6.0 * (1.0 + 2.0 * a * (1.0 + a * (1.0 + a)))
    wh = h / 6.0 * (4.0 + a * (4.0 + 2.0 * a))
    w1 = h / 6.0
    out = np.zeros(n + 1, dtype=complex)
    c = out[1:]
    c[:] = w0 * forcing[:-1:2] + wh * forcing[1::2] + w1 * forcing[2::2]

    # Solve the recurrence by doubling: after the pass with shift s, c[i]
    # sums R^k B[i-k] over k < 2s, so after ceil(log2 n) passes each sum
    # reaches back to c(t_start) = 0.
    r = _rk4_gain(grid, params)
    s = 1
    while s < n:
        c[s:] += r * c[:-s]
        r *= r
        s *= 2
    return out


def output_flux(params: RouterParams, drives: Sequence[Drive],
                trajectory: np.ndarray, grid: TimeGrid) -> OutputReport:
    """Integrated mean output numbers from a cavity trajectory.

    N_ch = integral |<o_ch_in(t)> - i sqrt(gamma_j) c(t)|^2 dt, trapezoid on
    the same grid; n_in is the integrated input flux.
    """
    validate_scalar(params)
    times = grid.times
    if trajectory.shape != times.shape:
        raise ParameterError(
            f"trajectory has {trajectory.shape[0]} nodes, grid has {times.shape[0]}")
    w = np.full(times.shape, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5

    inputs = _drive_arrays(drives, times)
    n_in = 0.0
    fluxes = {}
    for ch in CHANNELS:
        d = inputs.get(ch, np.zeros_like(trajectory))
        n_in += float(np.dot(w, np.abs(d) ** 2))
        out_t = d - 1j * math.sqrt(params.coupling(ch)) * trajectory
        fluxes[ch] = float(np.dot(w, np.abs(out_t) ** 2))
    return OutputReport.from_channel_numbers(fluxes, n_in=n_in)


def time_domain_report(params: RouterParams, packets: Sequence[WavePacket],
                       grid: TimeGrid | None = None, t0: float = 0.0) -> OutputReport:
    """Route Gaussian packets through the cavity entirely in the time domain.

    Rotates into the packet-center frame, integrates the cavity, and returns
    the integrated output numbers. Raises PulseNotContained if the envelope
    mass outside the window exceeds 1e-10 or the cavity has not rung down by
    t_end.
    """
    validate_scalar(params)
    omega0, Omega = shared_packet_frame(packets)
    if grid is None:
        grid = default_grid(params, packets, t0)

    mass_out = 0.5 * (math.erfc(math.sqrt(2.0) * Omega * (t0 - grid.t_start))
                      + math.erfc(math.sqrt(2.0) * Omega * (grid.t_end - t0)))
    if mass_out > _TAIL_MASS:
        raise PulseNotContained(
            f"envelope mass {mass_out:.2e} outside [{grid.t_start}, {grid.t_end}]")

    rotated = replace(params, omega_c=params.omega_c - omega0)
    envelopes = [replace(p, omega0=0.0) for p in packets]
    drives: list[Drive] = [
        (p.channel, lambda t, _p=p: time_pulse(_p, t, t0)) for p in envelopes
    ]
    trajectory = integrate_cavity(rotated, drives, grid)

    peak = float(np.max(np.abs(trajectory)))
    if peak > 0.0 and abs(trajectory[-1]) >= _RINGDOWN_RATIO * peak:
        raise PulseNotContained(
            f"cavity not rung down: |c(t_end)| = {abs(trajectory[-1]) / peak:.2e} of max")
    return output_flux(rotated, drives, trajectory, grid)
