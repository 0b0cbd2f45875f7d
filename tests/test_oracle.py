"""Time-domain integrator: grid rules, RK4 convergence, cross-checks."""

import cmath
import itertools
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import integrate_cavity_loop
from photon_router import oracle, verify
from photon_router import (
    CHANNELS,
    Channel,
    GridTooCoarse,
    GridTooLarge,
    NonFinite,
    ParameterError,
    PulseNotContained,
    RouterParams,
    TimeGrid,
    WavePacket,
    cavity_amplitude,
    default_grid,
    integrate_cavity,
    mean_output_two,
    packet_output_numbers,
    time_domain_report,
    time_pulse,
)

PI = math.pi


def _half_nodes(grid: TimeGrid) -> np.ndarray:
    """The grid's 2 n_steps + 1 step ends and midpoints."""
    return np.linspace(grid.t_start, grid.t_end, 2 * grid.n_steps + 1)


def _drives(packets: list[WavePacket], grid: TimeGrid) -> dict:
    """The packets' pulses on the grid's half nodes, as integrate_cavity_loop
    takes them."""
    nodes = _half_nodes(grid)
    return {p.channel: time_pulse(p, nodes) for p in packets}


def _pair(phi: float, mean_n: float = 1.0, Omega: float = 0.3) -> list[WavePacket]:
    return [
        WavePacket(Channel.R1, mean_n=mean_n, Omega=Omega),
        WavePacket(Channel.L1, mean_n=mean_n, Omega=Omega, phase=phi),
    ]


class TestTimeGrid:
    def test_exact_division(self):
        grid = TimeGrid(0.0, 10.0, 0.01)
        assert grid.n_steps == 1000
        assert grid.step == pytest.approx(0.01, rel=1e-15)
        assert grid.times.shape == (1001,)
        assert grid.times[0] == 0.0 and grid.times[-1] == 10.0

    def test_halving_dt_doubles_steps(self):
        # the rounding guard keeps 40 / 0.005 from ceiling up to 8001
        assert TimeGrid(-20.0, 20.0, 0.005).n_steps == 8000
        assert TimeGrid(-20.0, 20.0, 0.0025).n_steps == 16000

    def test_dt_is_upper_bound(self):
        grid = TimeGrid(0.0, 1.0, 0.0003)
        assert grid.n_steps == 3334
        assert grid.step <= 0.0003

    def test_rejects_bad_windows(self):
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 1.0, 0.01)
        with pytest.raises(ParameterError):
            TimeGrid(2.0, 1.0, 0.01)
        with pytest.raises(ParameterError):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(NonFinite):
            TimeGrid(0.0, math.nan, 0.01)

    # every grid these tests and the acceptance criteria integrate on
    GRIDS = [TimeGrid(-100.0, 100.0, 0.02), TimeGrid(-0.45, 0.45, 0.001),
             TimeGrid(-40.0, 40.0, 0.004), TimeGrid(-40.0, 45.0, 0.004),
             TimeGrid(-10.0, 10.0, 0.004), TimeGrid(-1200.0, 1211.0, 0.005),
             TimeGrid(-20.0, 20.0, 0.005), TimeGrid(-20.0, 20.0, 0.0025),
             TimeGrid(-20.0, 20.0, 0.000625), TimeGrid(-40.0, 51.0, 0.004),
             TimeGrid(-24.0, 35.0, 0.003), TimeGrid(-15.0, 25.0, 0.002),
             TimeGrid(-500.0, 511.0, 0.01), TimeGrid(-1.0, 30.0, 0.004),
             TimeGrid(-40.0, 45.0, 0.05),
             default_grid(RouterParams(gamma_c=0.1), [WavePacket(Channel.R1, 1.0, Omega=0.3)]),
             default_grid(RouterParams(omega_c=0.25), [WavePacket(Channel.R1, 1.0, Omega=0.01)])]

    @pytest.mark.parametrize("grid", GRIDS, ids=range(len(GRIDS)))
    def test_half_nodes_hold_times(self, grid):
        # the stream evaluates the envelope on the half nodes, and every
        # other one is the input on grid.times
        half = _half_nodes(grid)
        assert half.shape == (2 * grid.n_steps + 1,)
        assert np.array_equal(half[::2].view(np.int64), grid.times.view(np.int64))

    def test_default_grid_covers_pulse_and_ringdown(self):
        params = RouterParams()
        grid = default_grid(params, [WavePacket(Channel.R1, 1.0, Omega=0.3)])
        assert grid.t_start == pytest.approx(-40.0)
        assert grid.t_end == pytest.approx(40.0 + 11.0)
        assert grid.dt <= 0.01 / params.total_decay


class TestGridGuards:
    def test_step_above_decay_limit(self):
        grid = TimeGrid(-100.0, 100.0, 0.02)
        with pytest.raises(GridTooCoarse):
            integrate_cavity(RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=0.05)], grid)

    def test_too_few_steps(self):
        grid = TimeGrid(-0.45, 0.45, 0.001)
        assert grid.n_steps < 1000
        with pytest.raises(GridTooCoarse, match="need >= 1000 steps"):
            integrate_cavity(RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=20.0)], grid)

    @pytest.mark.parametrize("omega_c, gain", [(1000.0, "7.58888"), (1e200, "nan")])
    def test_rk4_unstable_step(self, omega_c, gain):
        # the step passes 0.01 / total_decay, but h * omega_c = 4 puts RK4
        # outside its stability region, which ended in NaN; at 1e200 R itself
        # overflows to NaN
        grid = TimeGrid(-40.0, 40.0, 0.004)
        want = f"|R| = {gain} >= 1 at step 4.000e-03 with omega_c = {omega_c}"
        with pytest.raises(GridTooCoarse, match=re.escape(want)):
            integrate_cavity(RouterParams(omega_c=omega_c),
                             [WavePacket(Channel.R1, 1.0, Omega=0.3)], grid)

    def test_rk4_unstable_user_grid_in_report(self):
        with pytest.raises(GridTooCoarse, match=r"\|R\| = .*omega_c = 1000"):
            time_domain_report(RouterParams(omega_c=1000.0),
                               [WavePacket(Channel.R1, 1.0, Omega=0.3)],
                               grid=TimeGrid(-40.0, 45.0, 0.004))

    def test_step_ceiling(self):
        # a far-detuned cavity forces dt <= 0.02 / 50 across a 2400-long window
        with pytest.raises(GridTooLarge, match="6027500 RK4 steps"):
            default_grid(RouterParams(omega_c=50.0), _pair(0.0, Omega=0.01))


class TestTimePulse:
    def test_flux_normalisation(self):
        packet = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
        grid = TimeGrid(-40.0, 40.0, 0.004)
        vals = time_pulse(packet, grid.times)
        w = np.full(grid.times.shape, grid.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        assert float(np.dot(w, np.abs(vals) ** 2)) == pytest.approx(1.0, abs=1e-8)

    def test_envelope_width(self):
        packet = WavePacket(Channel.R1, mean_n=1.0, Omega=0.4)
        ratio = abs(complex(time_pulse(packet, 1.0 / 0.4))) / \
            abs(complex(time_pulse(packet, 0.0)))
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_packet(self):
        packet = WavePacket(Channel.R1, mean_n=0.0, Omega=0.3)
        assert complex(time_pulse(packet, 0.3)) == 0j

    @pytest.mark.parametrize("packet", [
        WavePacket(Channel.R1, mean_n=1.3, Omega=0.3, phase=0.7),
        WavePacket(Channel.L2, mean_n=0.4, Omega=2.0, phase=-2.1),
    ])
    def test_zero_carrier_matches_formula(self, packet):
        # the omega0 = 0 shortcut drops a factor exp(-1j * 0 * tau) = 1
        t = np.linspace(-50.0, 50.0, 100_001) - 0.4
        alpha = math.sqrt(packet.mean_n) * np.exp(1j * packet.phase)
        envelope = (2.0 * packet.Omega ** 2 / np.pi) ** 0.25 * np.exp(-(packet.Omega * t) ** 2)
        want = alpha * envelope * np.exp(-1j * packet.omega0 * t)
        got = time_pulse(packet, t)
        assert np.array_equal(got, want)
        # bit for bit, up to the sign of zero parts where the envelope underflows
        got_parts, want_parts = got.view(np.float64), want.view(np.float64)
        nonzero = want_parts != 0.0
        assert np.array_equal(got_parts[nonzero].view(np.int64),
                              want_parts[nonzero].view(np.int64))

    @pytest.mark.filterwarnings("error")
    def test_envelope_overflow_is_silent(self):
        # Omega t overflows to inf, and exp(-inf) = 0 is the envelope's value
        got = time_pulse(WavePacket(Channel.R1, 1.0, Omega=1e150), np.array([1e200, -1e200]))
        assert np.array_equal(got, np.zeros(2))

    def test_carrier(self):
        base = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
        mod = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3, omega0=2.0)
        t = 0.7
        want = complex(time_pulse(base, t)) * np.exp(-2.0j * t)
        assert complex(time_pulse(mod, t)) == pytest.approx(want, rel=1e-12)


class TestIntegrateCavity:
    def test_no_drive_stays_empty(self):
        traj = integrate_cavity(RouterParams(), [WavePacket(Channel.R1, 0.0, Omega=0.3)],
                                TimeGrid(-40.0, 40.0, 0.004))
        assert np.all(traj == 0j)

    def test_destructive_pair_never_excites(self):
        # the pair's kicks cancel to rounding, and c is kick times the unit
        # response
        grid = TimeGrid(-40.0, 40.0, 0.004)
        packets = [WavePacket(Channel.R1, mean_n=1.0, Omega=0.3),
                   WavePacket(Channel.L1, mean_n=1.0, Omega=0.3, phase=PI)]
        traj = integrate_cavity(RouterParams(gamma2=0.6, gamma_c=0.2), packets, grid)
        assert float(np.max(np.abs(traj))) <= 1e-12

    def test_unconfined_drive_rejected(self):
        with pytest.raises(PulseNotContained):
            integrate_cavity(RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=0.3)],
                             TimeGrid(-10.0, 10.0, 0.004))

    @pytest.mark.parametrize("scale", [1e280, 1e305, 1e307])
    @pytest.mark.parametrize("params, packet, grid", [
        (RouterParams(gamma2=0.5, gamma_c=0.5, omega_c=3.0),
         WavePacket(Channel.R1, 1.0, Omega=0.5), TimeGrid(-25.0, 25.0, 0.005)),
        (RouterParams(gamma1=1.0, gamma2=0.0, omega_c=245.0),
         WavePacket(Channel.R1, 1.0, Omega=0.5), TimeGrid(-25.0, 25.0, 0.01)),
    ], ids=["decay-limit", "rotation-2.45"])
    def test_huge_drive_scales(self, scale, params, packet, grid):
        # the prefix sums scale the forcing up by as much as e^24: e^20.5 for
        # the detuned cavity at h Gamma = 0.01, e^23.5 in rows of 32 steps at
        # 2.45 rad per step, where |R| is smallest. They solve the unit
        # response, so the packets' amplitude, up to sqrt(1e307), enters only
        # as the kick it is multiplied by
        unit = integrate_cavity(params, [packet], grid)
        big = integrate_cavity(params, [replace(packet, mean_n=scale)], grid)
        assert np.all(np.isfinite(big))
        assert np.max(np.abs(big / math.sqrt(scale) - unit)) <= 1e-14 * np.max(np.abs(unit))

    def test_plateau_matches_stationary_response(self):
        # a pulse much longer than the cavity lifetime tracks the
        # monochromatic solution at its instantaneous amplitude
        params = RouterParams(omega_c=0.3)
        slow = WavePacket(Channel.R1, mean_n=1.0, Omega=0.01)
        grid = TimeGrid(-1200.0, 1211.0, 0.005)
        traj = integrate_cavity(params, [slow], grid)
        peak_idx = int(np.argmin(np.abs(grid.times)))
        c_ss = cavity_amplitude(params, [complex(time_pulse(slow, 0.0)), 0, 0, 0], 0.3)
        assert abs(traj[peak_idx]) ** 2 == pytest.approx(abs(c_ss) ** 2, rel=1e-4)

    def test_rk4_order(self):
        params = RouterParams()
        wide = [WavePacket(Channel.R1, mean_n=1.0, Omega=0.5)]
        grids = [TimeGrid(-20.0, 20.0, dt) for dt in (0.005, 0.0025, 0.000625)]
        c_h, c_h2, c_ref = [integrate_cavity(params, wide, g) for g in grids]
        e1 = float(np.max(np.abs(c_h - c_ref[::8])))
        e2 = float(np.max(np.abs(c_h2[::2] - c_ref[::8])))
        assert math.log2(e1 / e2) >= 3.8

    def test_default_grid(self):
        params = RouterParams(gamma_c=0.1)
        packets = _pair(1.1)
        grid = default_grid(params, packets)
        got = integrate_cavity(params, packets)
        assert np.array_equal(got, integrate_cavity(params, packets, grid))
        assert got.shape == (grid.n_steps + 1,)

    def test_array_call_equals_scalar_calls(self):
        # c = kick c1: an array of phases and photon numbers shares one solve,
        # and each row is its scalar call's trajectory, carrier included
        params = RouterParams(gamma2=0.4, gamma_c=0.1, omega_c=-0.2)
        mean_n, phis = np.array([[0.0], [2.5]]), np.linspace(-3.0, 7.0, 5)
        got = integrate_cavity(params, [WavePacket(Channel.R1, mean_n, 0.5, 0.3),
                                        WavePacket(Channel.L2, 1.0, 0.5, 0.3, phis)])
        assert got.shape[:2] == (2, 5)
        for i, j in itertools.product(range(2), range(5)):
            want = integrate_cavity(params, [WavePacket(Channel.R1, mean_n[i, 0], 0.5, 0.3),
                                             WavePacket(Channel.L2, 1.0, 0.5, 0.3, phis[j])])
            assert np.max(np.abs(got[i, j] - want)) <= 1e-15 * np.max(np.abs(want))


class TestLogGain:
    def test_exp_matches_rk4_polynomial(self):
        # exp(log R) against T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 in 50
        # digits: over the left half-plane, and along the imaginary axis with
        # tiny real parts, where the solver's z = h lam lives. Draws with
        # |T4| < 0.1 are skipped: near T4's roots at -1.73 +- 0.89i, far from
        # any stable grid, a double's relative error grows as 1 / |T4|.
        import mpmath

        rng = np.random.default_rng(17)
        mod = 10.0 ** rng.uniform(-8.0, math.log10(2.5), 500)
        half_plane = mod * np.exp(1j * rng.uniform(0.5 * PI, 1.5 * PI, 500))
        axis = mod * (-(10.0 ** -rng.uniform(2.0, 12.0, 500)) + 1j * rng.choice([-1.0, 1.0], 500))
        worst = 0.0
        with mpmath.workdps(50):
            for z in np.concatenate([half_plane, axis]).tolist():
                zm = mpmath.mpc(z)
                t4 = 1 + zm * (1 + zm * (mpmath.mpf(1) / 2 + zm * (mpmath.mpf(1) / 6 + zm / 24)))
                if abs(t4) >= 0.1:
                    got = mpmath.mpc(cmath.exp(oracle._log_gain(z)))
                    worst = max(worst, float(abs(got - t4) / abs(t4)))
        assert worst <= 4e-15


class TestRecurrenceMatchesLoop:
    """integrate_cavity solves the RK4 recurrence in numpy; the reference
    steps the same RK4 algebra in a Python loop, fed the packets' pulses."""

    @pytest.mark.parametrize("params, packets, grid", [
        (RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=0.3)],
         TimeGrid(-40.0, 51.0, 0.004)),
        (RouterParams(gamma2=0.6, gamma_c=0.2),
         [WavePacket(Channel.R1, 1.0, Omega=0.3),
          WavePacket(Channel.L1, 2.0, Omega=0.3, phase=1.0)],
         TimeGrid(-40.0, 51.0, 0.004)),
        (RouterParams(gamma1=0.7, gamma2=1.4, omega_c=2.5),
         [WavePacket(Channel.R1, 1.0, Omega=0.5, phase=0.3),
          WavePacket(Channel.R2, 0.5, Omega=0.5, phase=2.0),
          WavePacket(Channel.L2, 1.5, Omega=0.5, phase=-1.0)],
         TimeGrid(-24.0, 35.0, 0.003)),
        (RouterParams(gamma1=1.2, gamma2=0.3, gamma_c=0.4, omega_c=-1.7),
         [WavePacket(ch, 0.5 + i, Omega=0.8, phase=1.1 * i)
          for i, ch in enumerate(CHANNELS)],
         TimeGrid(-15.0, 25.0, 0.002)),
        # a slow cavity still ringing at t_end: R^(n/2) is far from 0, so
        # the amplitude carried across every row and block end counts
        (RouterParams(gamma1=0.05, gamma2=0.0, omega_c=0.4),
         [WavePacket(Channel.R1, 1.0, Omega=0.5)],
         TimeGrid(-20.0, 20.0, 0.005)),
        # more than 100 000 steps, the cavity detuned from a slow pulse
        (RouterParams(gamma2=0.0, omega_c=0.3),
         [WavePacket(Channel.L1, 1.0, Omega=0.025)],
         TimeGrid(-500.0, 511.0, 0.01)),
        # 400 000 steps with |R| = 1 - 1e-6: in 2^16-step blocks, repeated
        # squaring left R^(2^15) about 2^15 eps off, which grew to 1.7e-11 of
        # the peak by t_end
        (RouterParams(gamma1=1e-3, gamma2=0.0, omega_c=0.7),
         [WavePacket(Channel.R1, 1.0, Omega=0.5)],
         TimeGrid(-10.0, 390.0, 1e-3)),
        # a detuned cavity at the decay limit h Gamma = 0.01, where the
        # prefix sums scale by the largest |R|^-_ROW, e^20.5
        (RouterParams(gamma2=0.5, gamma_c=0.5, omega_c=3.0),
         [WavePacket(Channel.R1, 1.0, Omega=0.5), WavePacket(Channel.L2, 0.5, Omega=0.5)],
         TimeGrid(-25.0, 25.0, 0.005)),
        # |h Im lam| = 0.5 and 1 per step on user grids, the cavity far from
        # the packets' center: the powers R^k reach k |Im log R| ~ 1000 rad
        # in a row
        (RouterParams(gamma2=0.0, omega_c=50.0), [WavePacket(Channel.R1, 1.0, Omega=0.5)],
         TimeGrid(-25.0, 25.0, 0.01)),
        (RouterParams(gamma2=0.0, omega_c=100.0), [WavePacket(Channel.R1, 1.0, Omega=0.5)],
         TimeGrid(-25.0, 25.0, 0.01)),
        # RK4 damps these rotations, |R| = 0.54 at 2.3 rad per step and 0.91
        # at 2.8, near the stability edge: rows of 2^11 steps scaled by
        # e^1280 and e^190, and the first overflowed to an all-NaN trajectory
        (RouterParams(gamma1=1.0, gamma2=0.0, omega_c=230.0),
         [WavePacket(Channel.R1, 1.0, Omega=0.5)], TimeGrid(-25.0, 25.0, 0.01)),
        (RouterParams(gamma1=1.0, gamma2=0.0, omega_c=280.0),
         [WavePacket(Channel.R1, 1.0, Omega=0.5)], TimeGrid(-25.0, 25.0, 0.01)),
        # packets off omega0 = 0: the stream solves their rotating frame, and
        # the trajectory carries the carrier
        (RouterParams(gamma1=0.7, gamma2=1.4, gamma_c=0.1, omega_c=4.0),
         [WavePacket(Channel.R1, 1.0, omega0=1.5, Omega=0.5, phase=0.3),
          WavePacket(Channel.L2, 1.5, omega0=1.5, Omega=0.5, phase=-1.0)],
         TimeGrid(-24.0, 35.0, 0.003)),
    ], ids=["lossless", "lossy-pair", "detuned-three", "lossy-detuned-four",
            "ringing-at-end", "101100-steps", "slow-400000-steps", "decay-limit",
            "rotation-0.5", "rotation-1", "rotation-2.3", "rotation-2.8", "carrier"])
    def test_matches_python_loop(self, params, packets, grid):
        self._check(params, packets, grid)

    # a slow cavity detuned from a pulse pair across a block end: 2^16 steps
    # are 8 whole blocks, one more step ends in a block of 1, and
    # 3 * 2^16 + 5 steps end in a block of 5, the pulses at its block end
    # t = 0. On the 2^13 + 1-step grid the one block end is a step before
    # t_end: the pulses cross it at 2e-5 of their peak, and the cavity
    # amplitude carried across it is still 0.66 of its peak. The pulses
    # peak at t = 0, so each grid starts where the pulses sit on it
    @pytest.mark.parametrize("grid", [
        TimeGrid(-44.0, 84.0, 2.0 ** -9),
        TimeGrid(-44.0, 84.0 + 2.0 ** -9, 2.0 ** -9),
        TimeGrid(-256.0, 128.0 + 5 * 2.0 ** -9, 2.0 ** -9),
        TimeGrid(-21.0, 11.0 + 2.0 ** -8, 2.0 ** -8),
    ], ids=["2^16", "2^16+1", "3*2^16+5", "2^13+1"])
    def test_block_boundaries(self, grid):
        assert oracle._BLOCK == 1 << 13
        assert grid.n_steps in (1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5, (1 << 13) + 1)
        packets = [WavePacket(Channel.R1, 1.0, Omega=0.3),
                   WavePacket(Channel.L2, 2.0, Omega=0.3, phase=1.0)]
        self._check(RouterParams(gamma1=0.05, gamma2=0.0, omega_c=0.4), packets, grid)

    # inside one block, a slow cavity carries its amplitude across row ends:
    # 3 rows exactly, and 3 rows and 700 steps
    @pytest.mark.parametrize("n", [3 * 2048, 3 * 2048 + 700], ids=["3-rows", "3-rows+700"])
    def test_row_ends_inside_a_block(self, n):
        assert oracle._ROW == 1 << 11 and n < oracle._BLOCK
        grid = TimeGrid(-11.0, -11.0 + n * 2.0 ** -8, 2.0 ** -8)
        assert grid.n_steps == n
        packets = [WavePacket(Channel.R1, 1.0, Omega=0.5),
                   WavePacket(Channel.L2, 2.0, Omega=0.5, phase=1.0)]
        self._check(RouterParams(gamma1=0.05, gamma2=0.0, omega_c=0.4), packets, grid)

    @staticmethod
    def _check(params, packets, grid):
        # RK4 in the lab frame is another discretization than in the frame
        # rotating at omega0, so the loop steps that frame: the cavity
        # detuned by omega0, the pulses without carrier; the trajectory then
        # takes the carrier exp(-i omega0 t)
        omega0 = packets[0].omega0
        rotated = replace(params, omega_c=params.omega_c - omega0)
        want = integrate_cavity_loop(
            rotated, _drives([replace(p, omega0=0.0) for p in packets], grid), grid)
        want *= np.exp(-1j * omega0 * grid.times)
        got = integrate_cavity(params, packets, grid)
        assert got.shape == (grid.n_steps + 1,)
        assert got[0] == 0j
        peak = float(np.max(np.abs(want)))
        assert peak > 0.0
        assert float(np.max(np.abs(got - want))) <= 1e-13 * peak


class TestTimeDomainReport:
    def test_one_pulse_evaluation_per_packet(self, monkeypatch):
        # the packets share one real envelope: each block of the 62 evaluates
        # it once, on its half nodes, and no packet's pulse is evaluated
        calls = []
        envelope = oracle._envelope

        # the stream reuses its node array from block to block, so each
        # call's nodes are copied
        def counting(Omega, tau, out=None):
            calls.append((Omega, tau.copy()))
            return envelope(Omega, tau, out=out)

        def no_pulse(*args, **kwargs):
            raise AssertionError("time_pulse called by time_domain_report")

        monkeypatch.setattr(oracle, "_envelope", counting)
        monkeypatch.setattr(oracle, "time_pulse", no_pulse)
        params = RouterParams(gamma_c=0.1, omega_c=0.4)
        packets = [WavePacket(Channel.R1, 1.0, omega0=0.5, Omega=0.01),
                   WavePacket(Channel.L2, 2.0, omega0=0.5, Omega=0.01, phase=1.0)]
        time_domain_report(params, packets)
        grid = default_grid(params, packets)
        blocks = -(-grid.n_steps // oracle._BLOCK)
        assert blocks == 62
        assert len(calls) == blocks
        assert all(Omega == 0.01 for Omega, _ in calls)
        # the pulses peak at t = 0, so tau holds the nodes; the node between
        # two blocks is evaluated twice, as the end of one and the start of
        # the next, and the blocks rebuild the linspace bits
        nodes = [tau for _, tau in calls]
        for before, after in zip(nodes, nodes[1:]):
            assert before[-1] == after[0]
        rebuilt = np.concatenate([nodes[0]] + [t[1:] for t in nodes[1:]])
        assert np.array_equal(rebuilt.view(np.int64), _half_nodes(grid).view(np.int64))

    LOSSY = RouterParams(gamma2=0.4, gamma_c=0.1, omega_c=-0.2)
    # the ids date from 2^16-step blocks; in 2^13-step blocks TWO_BLOCKS
    # takes 12 and the default grid of the Omega = 0.01 case 45
    TWO_BLOCKS = TimeGrid(-40.0, 51.0, 0.001)

    @pytest.mark.parametrize("params, packets, grid", [
        (LOSSY, _pair(1.1), TWO_BLOCKS),
        (LOSSY, [WavePacket(Channel.R1, 1.0, Omega=0.01),
                 WavePacket(Channel.L2, 0.5, Omega=0.01, phase=2.0)], None),
        (LOSSY, [WavePacket(Channel.R1, 1.0, Omega=0.3, phase=0.3),
                 WavePacket(Channel.R2, 0.5, Omega=0.3, phase=2.0),
                 WavePacket(Channel.L2, 1.5, Omega=0.3, phase=-1.0)], TWO_BLOCKS),
        (LOSSY, [WavePacket(ch, 0.5 + i, Omega=0.3, phase=1.1 * i)
                 for i, ch in enumerate(CHANNELS)], TWO_BLOCKS),
        (RouterParams(gamma2=0.4, omega_c=-0.2), _pair(1.1), TWO_BLOCKS),
        (LOSSY, [WavePacket(Channel.R1, 0.0, Omega=0.3),
                 WavePacket(Channel.L2, 1.0, Omega=0.3, phase=0.7)], TWO_BLOCKS),
        # the kicks of the pair cancel, so the cavity is barely driven
        (LOSSY, _pair(PI), TWO_BLOCKS),
        # on resonance with gamma2 = 0 the transmitted R1 output nearly
        # vanishes: its three moment terms cancel
        (RouterParams(gamma2=0.0), [WavePacket(Channel.R1, 1.0, Omega=0.03)], None),
        # 2.3 rad per step on a user grid, rows of 32 steps: in rows of 2^11
        # the moments came out NaN with no error
        (RouterParams(gamma1=1.0, gamma2=0.0, omega_c=230.0),
         [WavePacket(Channel.R1, 1.0, Omega=0.5)], TimeGrid(-25.0, 75.0, 0.01)),
    ], ids=["2-blocks", "8-blocks", "3-packets", "4-packets", "lossless",
            "zero-packet", "opposite-phase", "cancelling-moments", "rotation-2.3"])
    def test_streamed_sums_match_whole_arrays(self, params, packets, grid):
        # the report's per-block moments of the unit response against the
        # trapezoid fluxes of the whole trajectory kick c1 and the pulses
        grid = grid or default_grid(params, packets)
        assert grid.n_steps > oracle._BLOCK
        traj = integrate_cavity(params, packets, grid)
        w = np.full(grid.n_steps + 1, grid.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        inputs = {p.channel: time_pulse(p, grid.times) for p in packets}
        n_in = sum(float(np.dot(w, np.abs(d) ** 2)) for d in inputs.values())
        got = time_domain_report(params, packets, grid)
        assert abs(got.n_in - n_in) <= 1e-14 * n_in
        for ch in CHANNELS:
            out = inputs.get(ch, 0.0) - 1j * math.sqrt(params.coupling(ch)) * traj
            assert abs(got.n_out[ch] - float(np.dot(w, np.abs(out) ** 2))) <= 1e-14 * n_in

    @pytest.mark.filterwarnings("error")
    def test_huge_mean_n(self):
        # 1e300 photons per packet stay finite and scale the mean_n = 1
        # report; at 1e308 n_in overflows, which is NonFinite, not a warning
        params = RouterParams(gamma_c=0.1)
        base = time_domain_report(params, _pair(1.1))
        rep = time_domain_report(params, _pair(1.1, mean_n=1e300))
        assert math.isfinite(rep.n_in) and math.isfinite(rep.loss)
        for ch in Channel:
            assert rep.n_out[ch] == pytest.approx(1e300 * base.n_out[ch], rel=1e-12)
        with pytest.raises(NonFinite, match="n_in is not finite"):
            time_domain_report(params, _pair(1.1, mean_n=1e308))

    def test_verify_plateau_reads_node_nearest_zero(self):
        # verify's plateau check reads kick c1 at one node as the report's
        # blocks stream past: the node argmin |t| picks on the whole grid,
        # and its bits are integrate_cavity's there
        [got] = [r.max_dev for r in verify.run_suites(["oracle"])
                 if r.check == "plateau-vs-steady-state"]
        params = RouterParams(gamma1=1.0, gamma2=1.0, omega_c=0.3)
        slow = WavePacket(Channel.R1, mean_n=1.0, Omega=0.01)
        grid = TimeGrid(-1200.0, 1211.0, 0.005)
        traj = integrate_cavity(params, [slow], grid)
        c_ss = abs(cavity_amplitude(params, [complex(time_pulse(slow, 0.0)), 0, 0, 0], 0.3)) ** 2
        idx = int(np.argmin(np.abs(grid.times)))
        before, at, after = (abs(abs(c) ** 2 - c_ss) / c_ss for c in traj[idx - 1:idx + 2])
        assert got == at
        assert got not in (before, after)

    def test_streams_keep_their_own_buffers(self):
        # two streams of different block counts and block sizes, read in
        # turn, give the bits each gives alone: each call owns its arrays
        runs = [(self.LOSSY, 0.3, self.TWO_BLOCKS),
                (RouterParams(gamma2=0.4, omega_c=0.3), 0.3, TimeGrid(-40.0, 60.0, 0.004))]

        def blocks(stream):
            return [(i0, env.copy(), c.copy()) for i0, env, c in stream]

        alone = [blocks(oracle._envelope_blocks(p, 0.0, Omega, g)) for p, Omega, g in runs]
        streams = [oracle._envelope_blocks(p, 0.0, Omega, g) for p, Omega, g in runs]
        interleaved = [[], []]
        for pair in itertools.zip_longest(*streams):
            for got, block in zip(interleaved, pair):
                if block is not None:
                    i0, env, c = block
                    got.append((i0, env.copy(), c.copy()))
        assert [len(b) for b in alone] == [12, 4]
        for want, got in zip(alone, interleaved):
            assert len(got) == len(want)
            for (i0, env, c), (j0, env2, c2) in zip(want, got):
                assert i0 == j0
                assert np.array_equal(env.view(np.int64), env2.view(np.int64))
                assert np.array_equal(c.view(np.int64), c2.view(np.int64))

    def test_verify_plateau_stops_after_its_block(self, monkeypatch):
        # the plateau node, t = 0 on a 482 200-step grid from t = -1200, lies
        # in the 30th of 59 blocks; the stream is not read past that block
        served = []
        stream = verify._envelope_blocks

        def counting(*args):
            for block in stream(*args):
                served.append(block[0])
                yield block

        monkeypatch.setattr(verify, "_envelope_blocks", counting)
        verify.run_suites(["oracle"])
        grid = TimeGrid(-1200.0, 1211.0, 0.005)
        node = round(1200.0 / grid.step)
        assert served == list(range(0, node + 1, oracle._BLOCK))
        assert len(served) < -(-grid.n_steps // oracle._BLOCK)

    def test_zero_input(self):
        rep = time_domain_report(
            RouterParams(), [WavePacket(Channel.R1, mean_n=0.0, Omega=0.3)])
        assert rep.n_total == 0.0
        assert rep.n_in == pytest.approx(0.0, abs=1e-15)

    def test_zero_kick_reports_zeros(self):
        # packets with no photons leave the cavity at 0, and the checks on
        # the unit response pass on a default grid
        packets = [WavePacket(Channel.R1, 0.0, Omega=0.3),
                   WavePacket(Channel.L2, np.zeros(3), Omega=0.3, phase=1.0)]
        rep = time_domain_report(RouterParams(gamma1=0.05, gamma2=0.0), packets)
        for value in [rep.n_in, rep.n_total, rep.loss, *rep.n_out.values()]:
            assert np.array_equal(value, np.zeros(3))

    @pytest.mark.parametrize("grid", [TimeGrid(-40.0, 45.0, 0.05), TimeGrid(-1.0, 300.0, 0.05)],
                             ids=["ringdown", "tail"])
    def test_zero_kick_checks_the_unit_response(self, grid):
        # the ring-down and tail checks read the unit response, so packets
        # with no photons fail them as any other packets do, same message
        params = RouterParams(gamma1=0.05, gamma2=0.0)
        with pytest.raises(PulseNotContained) as zero:
            time_domain_report(params, [WavePacket(Channel.R1, 0.0, Omega=0.3)], grid)
        with pytest.raises(PulseNotContained) as one:
            time_domain_report(params, _pair(1.1), grid)
        assert str(zero.value) == str(one.value)

    @pytest.mark.parametrize("route, grid", [
        (integrate_cavity, None), (time_domain_report, None),
        (integrate_cavity, TimeGrid(-40.0, 51.0, 0.004)),
        (time_domain_report, TimeGrid(-40.0, 51.0, 0.004))],
        ids=["integrate_cavity", "time_domain_report", "integrate_cavity-grid",
             "time_domain_report-grid"])
    def test_array_packets_must_broadcast(self, monkeypatch, route, grid):
        # before any solve: the report on a given grid solved the whole
        # stream before its fluxes found that the packets do not broadcast
        def no_solve(*args):
            raise AssertionError("solved before the packet set was checked")

        monkeypatch.setattr(oracle, "_recurrence", no_solve)
        packets = [WavePacket(Channel.R1, np.ones(2), Omega=0.3),
                   WavePacket(Channel.L1, 1.0, Omega=0.3, phase=np.zeros(3))]
        with pytest.raises(ParameterError, match="^packet mean_n and phase values"):
            route(RouterParams(), packets, grid)

    def test_lossless_conservation(self):
        rep = time_domain_report(RouterParams(gamma2=0.8), _pair(1.1))
        assert abs(rep.loss) <= 1e-6 * rep.n_in

    def test_narrow_band_matches_closed_form(self):
        params = RouterParams()
        rep = time_domain_report(params, _pair(PI / 2, Omega=0.01))
        mono = mean_output_two(params, 1.0, 0.0, PI / 2)
        for ch in Channel:
            assert abs(rep.n_out[ch] - mono.n_out[ch]) <= 1e-3 * rep.n_in

    def test_matches_frequency_domain_broadband(self):
        params = RouterParams(gamma_c=0.1)
        packets = _pair(PI / 2)
        td = time_domain_report(params, packets)
        fd = packet_output_numbers(params, packets)
        for ch in Channel:
            assert abs(td.n_out[ch] - fd.n_out[ch]) <= 1e-4 * td.n_in
        assert abs(td.n_total - fd.n_total) <= 1e-4 * td.n_in

    def test_amplitude_linearity(self):
        params = RouterParams(gamma_c=0.1)
        base = time_domain_report(params, _pair(1.1))
        s = 1.7
        scaled = time_domain_report(params, _pair(1.1, mean_n=s * s))
        for ch in Channel:
            want = s * s * base.n_out[ch]
            assert abs(scaled.n_out[ch] - want) <= 1e-12 * max(want, 1.0)

    def test_rotating_frame_detunes_consistently(self):
        # a carrier at omega0 with the cavity offset by the same amount is
        # the baseband problem; 64.25 - 64 is exact in binary so the two
        # parameter sets are bitwise identical after rotation
        packets = [WavePacket(Channel.R1, mean_n=1.0, Omega=0.3, omega0=64.0),
                   WavePacket(Channel.L1, mean_n=1.0, Omega=0.3, omega0=64.0,
                              phase=0.8)]
        lab = time_domain_report(RouterParams(omega_c=64.25), packets)
        base = time_domain_report(RouterParams(omega_c=0.25), _pair(0.8))
        for ch in Channel:
            assert lab.n_out[ch] == base.n_out[ch]

    def test_envelope_outside_window_rejected(self):
        with pytest.raises(PulseNotContained):
            time_domain_report(RouterParams(), _pair(0.0),
                               grid=TimeGrid(-1.0, 30.0, 0.004))

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "gamma_c", "omega_c"])
    def test_array_rates_rejected(self, field):
        # the oracle integrates one rate set per call
        params = RouterParams(**{field: np.array([0.5, 1.0])})
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar"):
            time_domain_report(params, _pair(0.0))

    # mean_n and phase may be arrays that broadcast; time_pulse evaluates one
    # packet's pulse and refuses them
    ARRAY_PACKETS = [
        ("mean_n", [WavePacket(Channel.L2, mean_n=1.0, Omega=0.3, phase=0.4),
                    WavePacket(Channel.R1, mean_n=np.array([0.0, 1.0, 2.5]), Omega=0.3)]),
        ("phase", [WavePacket(Channel.R1, mean_n=np.array([[0.5], [2.0]]), Omega=0.3),
                   WavePacket(Channel.L1, mean_n=1.0, Omega=0.3,
                              phase=np.linspace(-10.0, 10.0, 7))]),
    ]

    @staticmethod
    def _check_elements(params, packets, grid):
        """Each element of the array call within 1e-15 n_in of its scalar call."""
        rep = time_domain_report(params, packets, grid)
        shape = np.shape(rep.n_total)
        assert shape
        for index in np.ndindex(shape):
            one = time_domain_report(params, [replace(
                p, mean_n=float(np.broadcast_to(p.mean_n, shape)[index]),
                phase=float(np.broadcast_to(p.phase, shape)[index])) for p in packets], grid)
            for got, want in [(rep.n_in, one.n_in)] + [(rep.n_out[ch], one.n_out[ch])
                                                       for ch in CHANNELS]:
                assert abs(np.broadcast_to(got, shape)[index] - want) <= 1e-15 * one.n_in

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_time_domain_report_array_call_equals_scalar_calls(self, field, packets):
        self._check_elements(RouterParams(gamma2=0.4, gamma_c=0.1, omega_c=-0.2), packets,
                             TimeGrid(-40.0, 60.0, 0.005))

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_default_grid_array_call_equals_scalar_calls(self, field, packets):
        # the grid depends on omega0, Omega and the rates alone
        params = RouterParams(gamma2=0.4, gamma_c=0.1, omega_c=-0.2)
        scalar = [WavePacket(p.channel, 1.0, Omega=p.Omega) for p in packets]
        assert default_grid(params, packets) == default_grid(params, scalar)
        self._check_elements(params, packets, None)

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_time_pulse_refuses_array_packets(self, field, packets):
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar"):
            time_pulse(packets[-1], np.linspace(-5.0, 5.0, 11))

    @pytest.mark.filterwarnings("error")
    def test_envelope_overflow_is_silent(self):
        # Omega t overflows on most of the grid's half nodes, where the
        # envelope is 0; the report ends in its own error, not in a warning
        with pytest.raises(PulseNotContained, match="cavity not rung down"):
            time_domain_report(RouterParams(gamma1=5e-7, gamma2=5e-7),
                               [WavePacket(Channel.R1, 1.0, Omega=3e153)],
                               TimeGrid(-1e3, 1e3, 1.0))

    def test_unfinished_ringdown_rejected(self):
        params = RouterParams(gamma1=0.05, gamma2=0.0)
        with pytest.raises(PulseNotContained, match=re.escape(
                "cavity not rung down: |c(t_end)| = 1.37e-01 of max")):
            time_domain_report(
                params, [WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)],
                grid=TimeGrid(-40.0, 45.0, 0.05))


class TestStreamingMemory:
    def test_narrow_band_report_peak_rss(self, package_env):
        # the Omega = 0.01 pair takes 482 200 steps; holding every half-node
        # sample, the forcing, the trajectory and the doubling's temporaries
        # at once grew the peak RSS by about 78 MB; streaming 2^16-step
        # blocks, by 12.4 MB, and 2^13-step blocks, by 1.6 MB. The peak is
        # VmHWM, this process image's own: ru_maxrss starts an exec'd child
        # at the high-water mark of the process that spawned it
        code = """
from photon_router import Channel, RouterParams, WavePacket, time_domain_report
def kib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))
after_import = kib("VmRSS")
time_domain_report(RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=0.01),
                                    WavePacket(Channel.L1, 1.0, Omega=0.01, phase=1.5)])
print(kib("VmHWM") - after_import)
"""
        out = subprocess.run([sys.executable, "-c", code], env=package_env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) / 1024 <= 8.0

    def test_verify_oracle_peak_rss(self, package_env):
        # the plateau check held 482 200 steps of half nodes, samples and
        # trajectory, which grew the suite's peak RSS by about 41 MB; it now
        # streams the report's blocks: 15.2 MB in 2^16-step blocks, 9.7 MB in
        # 2^13-step blocks
        code = """
from photon_router.verify import run_suites
def kib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))
after_import = kib("VmRSS")
assert all(r.passed for r in run_suites(["oracle"]))
print(kib("VmHWM") - after_import)
"""
        out = subprocess.run([sys.executable, "-c", code], env=package_env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) / 1024 <= 20.0


class TestPacketSetCheck:
    """The packet quadrature and the oracle share one check of a packet set,
    core.check_packets, which each public packet call runs once, first."""

    ROUTES = [packet_output_numbers, default_grid, integrate_cavity, time_domain_report]
    IDS = ["packet_output_numbers", "default_grid", "integrate_cavity", "time_domain_report"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", ROUTES, ids=IDS)
    def test_overflowing_detuning(self, route):
        # omega_c - omega0 overflows: the oracle raised ParameterError for
        # the grid's dt = 0.02 / inf = 0, the quadrature NonFinite after
        # numpy's overflow warnings
        with pytest.raises(NonFinite, match=re.escape(
                "omega_c - omega0 overflows double precision, got inf")):
            route(RouterParams(omega_c=1e308), [WavePacket(Channel.R1, 1.0, omega0=-1e308)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", ROUTES, ids=IDS)
    def test_overflowing_total_decay(self, route):
        # gamma1 + gamma2 overflows: the quadrature reported full
        # transmission, where a line that wide sends a quarter to each
        # channel, and the oracle raised ParameterError for dt = 0.01 / inf
        with pytest.raises(NonFinite, match=re.escape(
                "the total decay rate overflows double precision, got inf")):
            route(RouterParams(gamma1=1e308, gamma2=1e308), [WavePacket(Channel.R1, 1.0)])

    @pytest.mark.parametrize("route", ROUTES, ids=IDS)
    def test_one_check_per_call(self, monkeypatch, route):
        from photon_router import core, wavepacket

        calls = []

        def counting(*args):
            calls.append(args)
            return core.check_packets(*args)

        monkeypatch.setattr(oracle, "check_packets", counting)
        monkeypatch.setattr(wavepacket, "check_packets", counting)
        route(RouterParams(gamma_c=0.1), _pair(1.1))
        assert len(calls) == 1

    def test_oracle_imports_nothing_from_the_quadrature(self):
        # the oracle cross-checks the quadrature, so it must not share its code
        import ast

        tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
        modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        assert "core" in modules
        assert not [m for m in modules if m and "wavepacket" in m.split(".")]


class TestTimeDomainProperty:
    """Time-domain oracle against packet quadrature across the domain of
    library packet calls: 1-4 packets on distinct channels."""

    @given(gamma1=st.floats(0.5, 2.0), gamma2=st.floats(0.0, 2.0),
           gamma_c=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           omega0=st.floats(-2.0, 2.0), detuning=st.floats(-3.0, 3.0),
           log_Omega=st.floats(math.log(0.05), math.log(1.0)),
           channels=st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=4,
                             unique=True),
           data=st.data())
    @settings(deadline=None, derandomize=True, max_examples=40)
    def test_matches_packet_quadrature(self, gamma1, gamma2, gamma_c, omega0,
                                       detuning, log_Omega, channels, data):
        params = RouterParams(gamma1=gamma1, gamma2=gamma2, gamma_c=gamma_c,
                              omega_c=omega0 + detuning)
        Omega = math.exp(log_Omega)
        packets = [WavePacket(ch, mean_n=data.draw(st.floats(0.1, 3.0)),
                              omega0=omega0, Omega=Omega,
                              phase=data.draw(st.floats(0.0, 2.0 * PI)))
                   for ch in channels]
        td = time_domain_report(params, packets)
        fd = packet_output_numbers(params, packets)
        for ch in Channel:
            assert abs(td.n_out[ch] - fd.n_out[ch]) <= 1e-4 * td.n_in
        if gamma_c == 0.0:
            assert abs(td.loss) <= 1e-6 * td.n_in
