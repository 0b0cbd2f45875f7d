"""Acceptance gate: one pass/fail line per criterion, fixed tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from photon_router import (
    Channel,
    RouterParams,
    TimeGrid,
    WavePacket,
    integrate_cavity,
    mean_output_single,
    mean_output_three,
    mean_output_two,
    packet_output_numbers,
    report_from_scatter,
    scatter,
    time_domain_report,
    time_pulse,
    two_port_reduction,
)
from photon_router.wavepacket import QuadratureSpec

PI = math.pi
LOSSLESS = RouterParams()
_SEED = 20260815


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _pair(phi: float, Omega: float = 0.3) -> list[WavePacket]:
    return [WavePacket(Channel.R1, 1.0, Omega=Omega),
            WavePacket(Channel.L1, 1.0, Omega=Omega, phase=phi)]


def test_criterion_01_equal_four_way_split():
    rep = mean_output_single(LOSSLESS, 1.0, 0.0)
    ok = all(abs(rep.n_out[ch] - 0.25) <= 1e-12 for ch in Channel)

    mean_output_single(LOSSLESS, 1.0, 0.0)  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        mean_output_single(LOSSLESS, 1.0, 0.0)
        best = min(best, time.perf_counter() - t0)
    ok = ok and best < 1e-3
    _verdict(1, "resonant symmetric input splits 0.25 per port", ok,
             f"best call {best * 1e6:.1f} us")


def test_criterion_02_perfect_reflection():
    rep = mean_output_single(RouterParams(gamma2=0.0), 1.0, 0.0)
    ports = rep.by_output_port()
    ok = abs(ports[1] - 1.0) <= 1e-12
    ok = ok and all(abs(ports[p]) <= 1e-12 for p in (2, 3, 4))
    _verdict(2, "resonant one-guide cavity reflects everything to port 1", ok)


def test_criterion_03_two_input_extremes():
    odd = mean_output_two(LOSSLESS, 1.0, 0.0, PI)
    even = mean_output_two(LOSSLESS, 1.0, 0.0, 0.0)
    ok = all(abs(g - w) <= 1e-12 for g, w in zip(
        (odd.n_r1, odd.n_l1, odd.n_r2, odd.n_l2), (1.0, 1.0, 0.0, 0.0)))
    ok = ok and all(abs(g - w) <= 1e-12 for g, w in zip(
        (even.n_r1, even.n_l1, even.n_r2, even.n_l2), (0.0, 0.0, 1.0, 1.0)))
    _verdict(3, "phase pi keeps the pair in guide 1, phase 0 moves it to guide 2", ok)


def test_criterion_04_two_port_swing():
    lo, _ = two_port_reduction(1.0, 1.0, 1.0, PI / 2)
    hi, _ = two_port_reduction(1.0, 1.0, 1.0, 3.0 * PI / 2)
    ok = abs(lo) <= 1e-12 and abs(hi - 2.0) <= 1e-12
    # the quarter-turn points are the true extremes of the scan
    scan = [two_port_reduction(1.0, 1.0, 1.0, p)[0]
            for p in np.linspace(0.0, 2.0 * PI, 2001)]
    ok = ok and min(scan) >= -1e-12 and max(scan) <= 2.0 + 1e-12
    _verdict(4, "matched-detuning two-port output swings over [0, 2 mean_n]", ok)


def test_criterion_05_flux_conservation():
    rng = np.random.default_rng(_SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = RouterParams(gamma1=rng.uniform(0.1, 5.0),
                              gamma2=rng.uniform(0.0, 5.0))
        raw = rng.standard_normal(8)
        inputs = raw[0::2] + 1j * raw[1::2]
        outputs = scatter(params, inputs, rng.uniform(-10.0, 10.0))
        n_in = np.sum(np.abs(inputs) ** 2)
        dev = abs(np.sum(np.abs(outputs) ** 2) - n_in) / max(n_in, 1.0)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(5, "lossless scattering conserves total flux on 1000 random draws",
             ok, f"worst {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_06_closed_forms_match_scattering():
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        params = RouterParams(gamma1=rng.uniform(0.1, 5.0),
                              gamma2=rng.uniform(0.0, 5.0))
        delta = rng.uniform(-10.0, 10.0)
        n = rng.uniform(0.0, 4.0)
        a = math.sqrt(n)
        phi, th, tp = rng.uniform(0.0, 2.0 * PI, 3)
        cases = [
            (mean_output_single(params, n, delta), [a, 0, 0, 0]),
            (mean_output_two(params, n, delta, phi), [a, a * np.exp(1j * phi), 0, 0]),
            (mean_output_three(params, n, delta, th, tp),
             [a, 0, a * np.exp(1j * th), a * np.exp(1j * tp)]),
        ]
        scale = max(n, 1.0)
        for form, inputs in cases:
            direct = report_from_scatter(params, inputs, delta)
            for ch in Channel:
                worst = max(worst,
                            abs(form.n_out[ch] - direct.n_out[ch]) / scale)
    ok = worst <= 1e-10
    _verdict(6, "closed-form outputs equal squared scattering amplitudes", ok,
             f"worst {worst:.2e}")


def test_criterion_07_time_domain_cross_check():
    t0 = time.perf_counter()
    worst_narrow = 0.0
    for phi in (0.0, PI / 2, PI, 3.0 * PI / 2):
        td = time_domain_report(LOSSLESS, _pair(phi, Omega=0.01))
        mono = mean_output_two(LOSSLESS, 1.0, 0.0, phi)
        worst_narrow = max(worst_narrow,
                           max(abs(td.n_out[ch] - mono.n_out[ch])
                               for ch in Channel))
    params = RouterParams(gamma_c=0.1)
    packets = _pair(PI / 2)
    td = time_domain_report(params, packets)
    fd = packet_output_numbers(params, packets)
    worst_broad = max(abs(td.n_out[ch] - fd.n_out[ch]) for ch in Channel)
    worst_broad = max(worst_broad, abs(td.n_total - fd.n_total))
    elapsed = time.perf_counter() - t0
    ok = worst_narrow <= 1e-3 and worst_broad <= 1e-4 * td.n_in and elapsed < 30.0
    _verdict(7, "time-domain integration agrees with the stationary and "
                "frequency-domain routes", ok,
             f"narrow {worst_narrow:.2e}, broad {worst_broad:.2e}, "
             f"{elapsed:.1f} s")


def test_criterion_08_broadband_totals():
    params = RouterParams(gamma_c=0.1)
    odd = packet_output_numbers(params, _pair(PI))
    even = packet_output_numbers(params, _pair(0.0))
    ok = abs(odd.n_total - 2.0) <= 2e-14
    ok = ok and even.n_total <= 2.0 - 0.05
    _verdict(8, "odd pair dodges internal loss, even pair absorbs visibly", ok,
             f"N_total(pi) = {odd.n_total:.8f}, N_total(0) = {even.n_total:.4f}")


def test_criterion_09_bandwidth_limits_routing():
    params = RouterParams(gamma_c=0.1)
    peak_r2 = max(packet_output_numbers(params, _pair(float(p))).n_r2
                  for p in np.linspace(0.0, 2.0 * PI, 101))
    r1_at_pi = packet_output_numbers(params, _pair(PI)).n_r1
    ok = peak_r2 < 1.0 and r1_at_pi >= 0.98
    _verdict(9, "finite bandwidth caps transfer below the stationary value",
             ok, f"peak N_r2 = {peak_r2:.4f}, N_r1(pi) = {r1_at_pi:.4f}")


def test_criterion_10_numerical_convergence():
    wide = WavePacket(Channel.R1, 1.0, Omega=0.5)
    grids = [TimeGrid(-20.0, 20.0, dt) for dt in (0.005, 0.0025, 0.000625)]
    c_h, c_h2, c_ref = [
        integrate_cavity(LOSSLESS, {Channel.R1: time_pulse(wide, g.half_nodes)}, g)
        for g in grids]
    e1 = float(np.max(np.abs(c_h - c_ref[::8])))
    e2 = float(np.max(np.abs(c_h2[::2] - c_ref[::8])))
    order = math.log2(e1 / e2)

    params = RouterParams(gamma_c=0.1)
    packets = _pair(0.7)
    a = packet_output_numbers(params, packets, QuadratureSpec(points=4001))
    b = packet_output_numbers(params, packets, QuadratureSpec(points=8001))
    quad_dev = max(abs(a.n_out[ch] - b.n_out[ch])
                   / max(abs(a.n_out[ch]), 1e-9 * a.n_in) for ch in Channel)

    ok = order >= 3.8 and quad_dev < 1e-6
    _verdict(10, "integrator shows fourth-order steps and converged quadrature",
             ok, f"order {order:.2f}, halving shift {quad_dev:.2e}")
