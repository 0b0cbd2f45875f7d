"""Self-validation suites wiring the analytic and numerical routes together.

Each suite exercises one module's invariants: closed forms against the
general scattering map, frequency-domain packet results against the
time-domain integrator, conservation and symmetry properties on random
draws. The CLI `verify` subcommand runs these and renders the table; the
pytest suite covers the same ground with finer-grained assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNELS,
    Channel,
    OutputReport,
    RouterParams,
    WavePacket,
    channel_of_input_port,
    port_of_output_channel,
)
from .scattering import (
    cavity_amplitude,
    mean_output_single,
    mean_output_three,
    mean_output_two,
    report_from_scatter,
    scatter,  # unused here; perfbench/tracing.py patches it by this name
    two_port_reduction,
)
from .wavepacket import gaussian_spectrum, packet_output_numbers
from .oracle import (TimeGrid, _envelope_blocks, _kick, integrate_cavity, time_domain_report,
                     time_pulse)

_SEED = 20260815


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    max_dev: float
    tol: float
    passed: bool
    detail: str = ""


def _report_dev(a: OutputReport, b: OutputReport, scale) -> float:
    """Largest |a - b| / scale over the channels and, for array reports, the points."""
    scale = np.maximum(scale, 1e-300)
    return float(max(np.max(np.abs(a.n_out[ch] - b.n_out[ch]) / scale) for ch in CHANNELS))


def _two_packets(phi: float | np.ndarray, mean_n: float = 1.0,
                 Omega: float = 0.3) -> list[WavePacket]:
    return [
        WavePacket(Channel.R1, mean_n=mean_n, Omega=Omega),
        WavePacket(Channel.L1, mean_n=mean_n, Omega=Omega, phase=phi),
    ]


# ---------------------------------------------------------------- core


def _suite_core() -> list[CheckResult]:
    out = []
    want_in = {1: Channel.R1, 2: Channel.L1, 3: Channel.R2, 4: Channel.L2}
    want_out = {Channel.R1: 2, Channel.L1: 1, Channel.R2: 4, Channel.L2: 3}
    ok = all(channel_of_input_port(p) is ch for p, ch in want_in.items()) and \
        all(port_of_output_channel(ch) == p for ch, p in want_out.items())
    out.append(CheckResult("core", "port-map", 0.0 if ok else 1.0, 0.0, ok,
                           "input ports 1..4 -> R1,L1,R2,L2; outputs -> 2,1,4,3"))

    perm = {1: 2, 2: 1, 3: 4, 4: 3}
    ok = all(port_of_output_channel(channel_of_input_port(p)) == q
             for p, q in perm.items())
    out.append(CheckResult("core", "pass-through-permutation", 0.0 if ok else 1.0,
                           0.0, ok, "undisturbed propagation maps 1->2, 2->1, 3->4, 4->3"))

    # far off resonance the cavity decouples and every port passes through;
    # row k of the identity drives channel k alone, and each channel leaves
    # with out - in = -i sqrt(gamma_j) c, which is -i c at unit rates
    c = cavity_amplitude(RouterParams(gamma1=1.0, gamma2=1.0), np.eye(4), delta=1e6)
    dev = float(np.max(np.abs(c)))
    out.append(CheckResult("core", "far-detuned-identity", dev, 1e-5, dev <= 1e-5,
                           "delta = 1e6: |out - in| per channel"))
    return out


# ---------------------------------------------------------------- scattering


def _random_params(rng, size: int, lossy=False) -> RouterParams:
    """`size` random rate sets, gamma_c in [0, 1] where `lossy` holds, else 0."""
    g1 = rng.uniform(0.2, 3.0, size)
    return RouterParams(gamma1=g1, gamma2=g1 * rng.uniform(0.0, 5.0, size),
                        gamma_c=np.where(lossy, rng.uniform(0.0, 1.0, size), 0.0))


def _amplitudes(*channels) -> np.ndarray:
    """(..., 4) amplitudes from the four channels' values, in CHANNELS order."""
    return np.stack(np.broadcast_arrays(*channels), axis=-1)


def _random_amplitudes(rng, size: int) -> np.ndarray:
    return _amplitudes(*(rng.normal(size=size) + 1j * rng.normal(size=size)
                         for _ in CHANNELS))


def _suite_scattering() -> list[CheckResult]:
    """Each check is one array call over all of its random draws."""
    rng = np.random.default_rng(_SEED)
    two_pi = 2.0 * math.pi
    out = []

    rep = report_from_scatter(_random_params(rng, 1000), _random_amplitudes(rng, 1000),
                              delta=rng.uniform(-10, 10, 1000))
    dev = float(np.max(np.abs(rep.loss) / rep.n_in))
    out.append(CheckResult("scattering", "flux-conservation", dev, 1e-12, dev <= 1e-12,
                           "1000 random lossless four-input draws"))

    params = _random_params(rng, 1000, lossy=np.arange(1000) % 2 == 1)
    delta = rng.uniform(-10, 10, 1000)
    n = rng.uniform(0.01, 4.0, 1000)
    a = np.sqrt(n)
    ph, ph2 = rng.uniform(0.0, two_pi, size=(2, 1000))

    brute = report_from_scatter(params, _amplitudes(a, 0, 0, 0), delta)
    dev3 = _report_dev(mean_output_single(params, n, delta), brute, n)
    brute = report_from_scatter(params, _amplitudes(a, a * np.exp(1j * ph), 0, 0), delta)
    dev4 = _report_dev(mean_output_two(params, n, delta, ph), brute, 2 * n)
    brute = report_from_scatter(
        params, _amplitudes(a, 0, a * np.exp(1j * ph), a * np.exp(1j * ph2)), delta)
    dev5 = _report_dev(mean_output_three(params, n, delta, ph, ph2), brute, 3 * n)
    lossy = "1000 draws, half with gamma_c in [0, 1]"
    out.append(CheckResult("scattering", "single-input-form-vs-scatter", dev3, 1e-10,
                           dev3 <= 1e-10, lossy))
    out.append(CheckResult("scattering", "two-input-form-vs-scatter", dev4, 1e-10,
                           dev4 <= 1e-10, lossy))
    out.append(CheckResult("scattering", "three-input-form-vs-scatter", dev5, 1e-10,
                           dev5 <= 1e-10, lossy))

    g1 = rng.uniform(0.2, 3.0, 200)
    n = rng.uniform(0.01, 4.0, 200)
    delta = rng.uniform(-10, 10, 200)
    phi = rng.uniform(0.0, two_pi, 200)
    nr1, nl1 = two_port_reduction(g1, n, delta, phi)
    rep = mean_output_two(RouterParams(gamma1=g1, gamma2=0.0), n, delta, phi)
    dev = float(max(np.max(np.abs(nr1 - rep.n_r1) / (2 * n)),
                    np.max(np.abs(nl1 - rep.n_l1) / (2 * n))))
    out.append(CheckResult("scattering", "two-port-reduction", dev, 1e-12, dev <= 1e-12,
                           "200 draws at gamma2 = 0"))

    params = _random_params(rng, 200)
    n = rng.uniform(0.01, 4.0, 200)
    delta = rng.uniform(-10, 10, 200)
    phi, th, thp = rng.uniform(0.0, two_pi, size=(3, 200))
    dev = max(_report_dev(mean_output_two(params, n, delta, phi),
                          mean_output_two(params, n, delta, phi + two_pi), 2 * n),
              _report_dev(mean_output_three(params, n, delta, th, thp),
                          mean_output_three(params, n, delta, th + two_pi, thp - two_pi),
                          3 * n))
    out.append(CheckResult("scattering", "phase-periodicity", dev, 1e-12, dev <= 1e-12,
                           "shift phases by +-2*pi; exact up to trig rounding"))

    rep = mean_output_two(_random_params(rng, 200), rng.uniform(0.01, 4.0, 200),
                          rng.uniform(-10, 10, 200), math.pi)
    dev = float(max(np.max(rep.n_r2), np.max(rep.n_l2)))
    out.append(CheckResult("scattering", "destructive-null-at-pi", dev, 0.0,
                           dev <= 0.0, "phi = pi empties waveguide 2 exactly"))

    g = rng.uniform(0.2, 3.0, 200)
    params = RouterParams(gamma1=g, gamma2=g)
    a = np.sqrt(rng.uniform(0.01, 4.0, 200))
    phi = rng.uniform(0.0, two_pi, 200)
    delta = rng.uniform(-10, 10, 200)
    p12 = report_from_scatter(params, _amplitudes(a, a * np.exp(1j * phi), 0, 0), delta)
    p13 = report_from_scatter(params, _amplitudes(a, 0, a * np.exp(1j * phi), 0), delta)
    scale = 2 * a * a
    dev = float(max(np.max(np.abs(p13.n_r1 - p12.n_r1) / scale),
                    np.max(np.abs(p13.n_l1 - p12.n_r2) / scale),
                    np.max(np.abs(p13.n_r2 - p12.n_l1) / scale),
                    np.max(np.abs(p13.n_l2 - p12.n_l2) / scale)))
    out.append(CheckResult("scattering", "ports-1-3-match-ports-1-2", dev, 1e-12,
                           dev <= 1e-12,
                           "gamma2 = gamma1: waveguide swap relabels outputs only"))

    params = _random_params(rng, 200)
    n = rng.uniform(0.01, 4.0, 200)
    s = rng.uniform(0.1, 3.0, 200)
    delta = rng.uniform(-10, 10, 200)
    phi = rng.uniform(0.0, two_pi, 200)
    base = mean_output_two(params, n, delta, phi)
    scaled = mean_output_two(params, s * s * n, delta, phi)
    dev = float(max(np.max(np.abs(scaled.n_out[ch] - s * s * base.n_out[ch])
                           / (2 * n * s * s)) for ch in CHANNELS))
    out.append(CheckResult("scattering", "scaling-linearity", dev, 1e-12, dev <= 1e-12,
                           "outputs scale as |alpha|^2; fractions invariant"))

    params = _random_params(rng, 200)
    amps = _random_amplitudes(rng, 200)
    delta = rng.uniform(-10, 10, 200)
    chi = np.exp(1j * rng.uniform(0.0, two_pi, 200))
    a = report_from_scatter(params, amps, delta)
    b = report_from_scatter(params, chi[:, None] * amps, delta)
    dev = _report_dev(a, b, a.n_in)
    out.append(CheckResult("scattering", "global-phase-invariance", dev, 1e-12,
                           dev <= 1e-12, "common phase on all inputs is unobservable"))
    return out


# ---------------------------------------------------------------- wavepacket


def _suite_wavepacket() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    out = []

    packet = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
    omegas = np.linspace(-8.0 * packet.Omega, 8.0 * packet.Omega, 4001)
    h = omegas[1] - omegas[0]
    w = np.full(4001, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    norm = float(np.dot(w, np.abs(gaussian_spectrum(packet, omegas)) ** 2))
    dev = abs(norm - 1.0)
    out.append(CheckResult("wavepacket", "spectrum-norm", dev, 1e-9, dev <= 1e-9,
                           "Simpson quadrature of |spectrum|^2, mean_n = 1"))

    dev = 0.0
    for _ in range(20):
        g1 = rng.uniform(0.5, 2.0)
        params = RouterParams(gamma1=g1, gamma2=g1 * rng.uniform(0.1, 2.0),
                              omega_c=rng.uniform(-1.0, 1.0))
        packets = _two_packets(rng.uniform(0.0, 2.0 * math.pi),
                               Omega=rng.uniform(0.2, 0.5))
        rep = packet_output_numbers(params, packets)
        dev = max(dev, abs(rep.loss) / rep.n_in)
    # one case with the cavity line outside +-8 Omega (widened window branch)
    rep = packet_output_numbers(RouterParams(gamma1=1.0, gamma2=0.5, omega_c=2.0),
                                _two_packets(0.7, Omega=0.1))
    dev = max(dev, abs(rep.loss) / rep.n_in)
    out.append(CheckResult("wavepacket", "lossless-conservation", dev, 1e-14,
                           dev <= 1e-14, "21 gamma_c = 0 packet scenarios"))

    dev = 0.0
    prev = None
    for gc in np.linspace(0.0, 2.0, 10):
        params = RouterParams(gamma1=1.0, gamma2=1.0, gamma_c=float(gc))
        rep = packet_output_numbers(params, _two_packets(0.5))
        if rep.n_total > rep.n_in + 1e-9 or rep.n_total < 0.0:
            dev = max(dev, abs(rep.n_total - rep.n_in))
        if prev is not None:
            dev = max(dev, (rep.n_total - prev) / rep.n_in)
        prev = rep.n_total
    out.append(CheckResult("wavepacket", "loss-monotone-in-gamma-c", dev, 1e-12,
                           dev <= 1e-12, "10-point gamma_c grid, transmitted total"))

    # keep the cavity line at the packet center so the window never widens
    # and the Omega series probes only the bandwidth effect
    params = RouterParams(gamma1=1.0, gamma2=0.7)
    mono = mean_output_two(params, 1.0, 0.0, math.pi / 3.0)
    errs = [
        _report_dev(packet_output_numbers(
            params, _two_packets(math.pi / 3.0, Omega=Om)), mono, 2.0)
        for Om in (0.3, 0.1, 0.03, 0.01)
    ]
    dev = max(b - a for a, b in zip(errs, errs[1:]))
    out.append(CheckResult("wavepacket", "narrow-band-convergence", dev, 0.0,
                           dev <= 0.0,
                           "packet-vs-monochromatic gap shrinks through "
                           "Omega = 0.3, 0.1, 0.03, 0.01"))

    rep = packet_output_numbers(params, _two_packets(math.pi / 3.0, Omega=1e-3))
    dev = _report_dev(rep, mono, 2.0)
    out.append(CheckResult("wavepacket", "narrow-band-limit", dev, 1e-4, dev <= 1e-4,
                           "Omega = 1e-3 collapses onto the monochromatic form"))

    params = RouterParams(gamma1=1.0, gamma2=1.0, gamma_c=0.1)
    phis = np.linspace(0.0, 2.0 * math.pi, 41)
    max_r2 = float(np.max(packet_output_numbers(params, _two_packets(phis)).n_r2))
    r1_at_pi = packet_output_numbers(params, _two_packets(math.pi)).n_r1
    dev = max(max_r2 - 1.0, 0.98 - r1_at_pi)
    out.append(CheckResult("wavepacket", "bandwidth-degradation", dev, 0.0, dev < 0.0,
                           f"peak N_r2 = {max_r2:.4f} < 1; N_r1(pi) = {r1_at_pi:.4f}"))
    return out


# ---------------------------------------------------------------- oracle


def _suite_oracle() -> list[CheckResult]:
    out = []

    packet = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
    grid = TimeGrid(-40.0, 40.0, 0.004)
    vals = time_pulse(packet, grid.times)
    w = np.full(grid.times.shape, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    dev = abs(float(np.dot(w, np.abs(vals) ** 2)) - 1.0)
    out.append(CheckResult("oracle", "pulse-norm", dev, 1e-8, dev <= 1e-8,
                           "integrated |pulse|^2 equals mean_n"))

    params = RouterParams(gamma1=1.0, gamma2=0.6, gamma_c=0.2)
    traj = integrate_cavity(
        params, [packet, WavePacket(Channel.L1, 1.0, Omega=0.3, phase=math.pi)], grid)
    dev = float(np.max(np.abs(traj)))
    out.append(CheckResult("oracle", "destructive-drive-null", dev, 1e-12,
                           dev <= 1e-12, "opposite-phase pair cancels the kick, so the "
                           "cavity is never excited"))

    params = RouterParams(gamma1=1.0, gamma2=1.0, omega_c=0.3)
    slow = WavePacket(Channel.R1, mean_n=1.0, Omega=0.01)
    grid = TimeGrid(-12.0 / 0.01, 12.0 / 0.01 + 11.0, 0.005)
    # c = kick c1 at the node nearest t = 0, read from the report's block
    # stream, which stops after that node's block; at omega0 = 0 the
    # stream's rotating frame is the lab frame
    peak_idx = round(-grid.t_start / grid.step)
    kick = _kick(params, [slow])[1]
    for i0, _, c1 in _envelope_blocks(params, [slow], grid, 0.0):
        if peak_idx - i0 < len(c1):
            c_peak = kick * complex(c1[peak_idx - i0])
            break
    peak_amp = complex(time_pulse(slow, 0.0))
    c_ss = cavity_amplitude(params, [peak_amp, 0, 0, 0], delta=0.3)
    dev = abs(abs(c_peak) ** 2 - abs(c_ss) ** 2) / abs(c_ss) ** 2
    out.append(CheckResult("oracle", "plateau-vs-steady-state", dev, 1e-4, dev <= 1e-4,
                           "Omega = 0.01 drive sits on the monochromatic solution"))

    params = RouterParams(gamma1=1.0, gamma2=1.0)
    rep = time_domain_report(params, _two_packets(math.pi / 2.0, Omega=0.01))
    dev = _report_dev(rep, mean_output_two(params, 1.0, 0.0, math.pi / 2.0), 2.0)
    out.append(CheckResult("oracle", "narrow-band-vs-closed-form", dev, 1e-3,
                           dev <= 1e-3, "Omega = 0.01 packet pair at phi = pi/2"))

    params = RouterParams(gamma1=1.0, gamma2=1.0, gamma_c=0.1)
    packets = _two_packets(np.linspace(0.0, 2.0 * math.pi, 41))
    td = time_domain_report(params, packets)
    fd = packet_output_numbers(params, packets)
    dev = max(_report_dev(td, fd, td.n_in),
              float(np.max(np.abs(td.n_total - fd.n_total) / td.n_in)))
    out.append(CheckResult("oracle", "parseval-broadband", dev, 1e-10, dev <= 1e-10,
                           "time-domain vs frequency-domain over 41 phases, "
                           "Omega = 0.3, gamma_c = 0.1"))

    params = RouterParams(gamma1=1.0, gamma2=1.0)
    wide = WavePacket(Channel.R1, mean_n=1.0, Omega=0.5)
    grids = [TimeGrid(-20.0, 20.0, dt) for dt in (0.005, 0.0025, 0.000625)]
    c_h, c_h2, c_ref = [integrate_cavity(params, [wide], g) for g in grids]
    e1 = float(np.max(np.abs(c_h - c_ref[::8])))
    e2 = float(np.max(np.abs(c_h2[::2] - c_ref[::8])))
    order = math.log2(e1 / e2)
    dev = abs(order - 4.0)
    out.append(CheckResult("oracle", "rk4-order", dev, 0.3, dev <= 0.3,
                           f"measured order {order:.3f} from step halving"))

    params = RouterParams(gamma1=1.0, gamma2=0.8)
    rep = time_domain_report(params, _two_packets(1.1))
    dev = abs(rep.loss) / rep.n_in
    out.append(CheckResult("oracle", "time-domain-conservation", dev, 1e-10,
                           dev <= 1e-10, "gamma_c = 0 packet pair"))

    params = RouterParams(gamma1=1.0, gamma2=1.0, gamma_c=0.1)
    base = time_domain_report(params, _two_packets(1.1))
    s = 1.7
    scaled = time_domain_report(params, _two_packets(1.1, mean_n=s * s))
    dev = max(abs(scaled.n_out[ch] - s * s * base.n_out[ch])
              for ch in CHANNELS) / (s * s * base.n_in)
    out.append(CheckResult("oracle", "amplitude-linearity", dev, 1e-12, dev <= 1e-12,
                           "scaling inputs by s scales every N by s^2"))
    return out


_SUITES = {
    "core": _suite_core,
    "scattering": _suite_scattering,
    "wavepacket": _suite_wavepacket,
    "oracle": _suite_oracle,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str] = SUITE_NAMES) -> list[CheckResult]:
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SUITES[name]())
    return results


def format_table(results: Sequence[CheckResult]) -> str:
    rows = [("suite", "check", "max_dev", "tol", "status")]
    for r in results:
        rows.append((r.suite, r.check, f"{r.max_dev:.3e}", f"{r.tol:.1e}",
                     "pass" if r.passed else "FAIL"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]

    lines.append("")
    for suite in dict.fromkeys(r.suite for r in results):
        batch = [r for r in results if r.suite == suite]
        worst = max(batch, key=lambda r: r.max_dev)
        status = "pass" if all(r.passed for r in batch) else "FAIL"
        lines.append(f"{suite}: max deviation {worst.max_dev:.3e} "
                     f"({worst.check}) [{status}]")
    return "\n".join(lines)
