"""Time-domain integrator: grid rules, RK4 convergence, cross-checks."""

import cmath
import math
import re
import subprocess
import sys

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
    output_flux,
    packet_output_numbers,
    time_domain_report,
    time_pulse,
)

PI = math.pi


def _drives(packets: list[WavePacket], grid: TimeGrid) -> dict:
    nodes = grid.half_nodes
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
    GRIDS = [TimeGrid(-100.0, 100.0, 0.02), TimeGrid(0.0, 0.9, 0.001),
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
        # output_flux reads the drive samples at every other half node as
        # the input on grid.times
        half = grid.half_nodes
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
        drives = _drives([WavePacket(Channel.R1, 1.0, Omega=0.05)], grid)
        with pytest.raises(GridTooCoarse):
            integrate_cavity(RouterParams(), drives, grid)

    def test_too_few_steps(self):
        grid = TimeGrid(0.0, 0.9, 0.001)
        drives = {Channel.R1: time_pulse(WavePacket(Channel.R1, 1.0, Omega=20.0),
                                         grid.half_nodes, t0=0.45)}
        with pytest.raises(GridTooCoarse):
            integrate_cavity(RouterParams(), drives, grid)

    @pytest.mark.parametrize("omega_c, gain", [(1000.0, "7.58888"), (1e200, "nan")])
    def test_rk4_unstable_step(self, omega_c, gain):
        # the step passes 0.01 / total_decay, but h * omega_c = 4 puts RK4
        # outside its stability region, which ended in NaN; at 1e200 R itself
        # overflows to NaN
        grid = TimeGrid(-40.0, 40.0, 0.004)
        drives = _drives([WavePacket(Channel.R1, 1.0, Omega=0.3)], grid)
        want = f"|R| = {gain} >= 1 at step 4.000e-03 with omega_c = {omega_c}"
        with pytest.raises(GridTooCoarse, match=re.escape(want)):
            integrate_cavity(RouterParams(omega_c=omega_c), drives, grid)

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
        t = np.linspace(-50.0, 50.0, 100_001)
        tau = t - 0.4
        alpha = math.sqrt(packet.mean_n) * np.exp(1j * packet.phase)
        envelope = (2.0 * packet.Omega ** 2 / np.pi) ** 0.25 * np.exp(-(packet.Omega * tau) ** 2)
        want = alpha * envelope * np.exp(-1j * packet.omega0 * tau)
        got = time_pulse(packet, t, t0=0.4)
        assert np.array_equal(got, want)
        # bit for bit, up to the sign of zero parts where the envelope underflows
        got_parts, want_parts = got.view(np.float64), want.view(np.float64)
        nonzero = want_parts != 0.0
        assert np.array_equal(got_parts[nonzero].view(np.int64),
                              want_parts[nonzero].view(np.int64))

    def test_carrier(self):
        base = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
        mod = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3, omega0=2.0)
        t = 0.7
        want = complex(time_pulse(base, t)) * np.exp(-2.0j * t)
        assert complex(time_pulse(mod, t)) == pytest.approx(want, rel=1e-12)


class TestIntegrateCavity:
    def test_no_drive_stays_empty(self):
        traj = integrate_cavity(RouterParams(), {}, TimeGrid(-10.0, 10.0, 0.004))
        assert np.all(traj == 0j)

    def test_destructive_pair_never_excites(self):
        grid = TimeGrid(-40.0, 40.0, 0.004)
        drives = _drives([WavePacket(Channel.R1, mean_n=1.0, Omega=0.3),
                          WavePacket(Channel.L1, mean_n=1.0, Omega=0.3, phase=PI)], grid)
        traj = integrate_cavity(RouterParams(gamma2=0.6, gamma_c=0.2), drives, grid)
        assert float(np.max(np.abs(traj))) <= 1e-12

    def test_unconfined_drive_rejected(self):
        grid = TimeGrid(-10.0, 10.0, 0.004)
        drives = {Channel.R1: np.ones_like(grid.half_nodes)}
        with pytest.raises(PulseNotContained):
            integrate_cavity(RouterParams(), drives, grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN sample left a NaN trajectory with no error
        grid = TimeGrid(-40.0, 40.0, 0.004)
        drives = _drives([WavePacket(Channel.R1, 1.0, Omega=0.3),
                          WavePacket(Channel.L2, 1.0, Omega=0.3)], grid)
        drives[Channel.L2][1000] = bad
        with pytest.raises(NonFinite, match="drive on Channel.L2 must be finite"):
            integrate_cavity(RouterParams(), drives, grid)

    @pytest.mark.parametrize("shape", [0, 1, 10001, 20002, (1, 20001)])
    def test_wrong_sample_count_rejected(self, shape):
        # the grid has 10 000 steps, so 20 001 half nodes
        grid = TimeGrid(-20.0, 20.0, 0.004)
        drives = _drives([WavePacket(Channel.R1, 1.0, Omega=0.3)], grid)
        drives[Channel.L1] = np.zeros(shape, dtype=complex)
        with pytest.raises(ParameterError, match="one sample per node of grid.half_nodes"):
            integrate_cavity(RouterParams(), drives, grid)
        with pytest.raises(ParameterError, match="one sample per node of grid.half_nodes"):
            output_flux(RouterParams(), drives, np.zeros(10001, dtype=complex), grid)

    def test_plateau_matches_stationary_response(self):
        # a pulse much longer than the cavity lifetime tracks the
        # monochromatic solution at its instantaneous amplitude
        params = RouterParams(omega_c=0.3)
        slow = WavePacket(Channel.R1, mean_n=1.0, Omega=0.01)
        grid = TimeGrid(-1200.0, 1211.0, 0.005)
        traj = integrate_cavity(params, _drives([slow], grid), grid)
        peak_idx = int(np.argmin(np.abs(grid.times)))
        c_ss = cavity_amplitude(params, [complex(time_pulse(slow, 0.0)), 0, 0, 0], 0.3)
        assert abs(traj[peak_idx]) ** 2 == pytest.approx(abs(c_ss) ** 2, rel=1e-4)

    def test_rk4_order(self):
        params = RouterParams()
        wide = [WavePacket(Channel.R1, mean_n=1.0, Omega=0.5)]
        grids = [TimeGrid(-20.0, 20.0, dt) for dt in (0.005, 0.0025, 0.000625)]
        c_h, c_h2, c_ref = [integrate_cavity(params, _drives(wide, g), g) for g in grids]
        e1 = float(np.max(np.abs(c_h - c_ref[::8])))
        e2 = float(np.max(np.abs(c_h2[::2] - c_ref[::8])))
        assert math.log2(e1 / e2) >= 3.8


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
    steps the same RK4 algebra in a Python loop."""

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
        # every doubling pass counts
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
    ], ids=["lossless", "lossy-pair", "detuned-three", "lossy-detuned-four",
            "ringing-at-end", "101100-steps", "slow-400000-steps"])
    def test_matches_python_loop(self, params, packets, grid):
        self._check(params, _drives(packets, grid), grid)

    # a slow cavity detuned from two pulses, one of them across the block
    # end at t = 64 on the longest grid: 2^16 steps are 8 whole blocks, one
    # more step ends in a block of 1, and 3 * 2^16 + 5 steps end in a block
    # of 5. On the 2^13 + 1-step grid the one block end is a step before
    # t_end: the second pulse crosses it at 5e-5 of its peak, and the cavity
    # amplitude carried across it is still 0.4 of its peak
    @pytest.mark.parametrize("grid, t0s", [
        (TimeGrid(-64.0, 64.0, 2.0 ** -9), (-20.0, 40.0)),
        (TimeGrid(-64.0, 64.0 + 2.0 ** -9, 2.0 ** -9), (-20.0, 40.0)),
        (TimeGrid(-192.0, 192.0 + 5 * 2.0 ** -9, 2.0 ** -9), (-140.0, 64.0)),
        (TimeGrid(-16.0, 16.0 + 2.0 ** -8, 2.0 ** -8), (-4.0, 5.5)),
    ], ids=["2^16", "2^16+1", "3*2^16+5", "2^13+1"])
    def test_block_boundaries(self, grid, t0s):
        assert oracle._BLOCK == 1 << 13
        nodes = grid.half_nodes
        drives = {Channel.R1: time_pulse(WavePacket(Channel.R1, 1.0, Omega=0.3), nodes, t0s[0]),
                  Channel.L2: time_pulse(WavePacket(Channel.L2, 2.0, Omega=0.3, phase=1.0),
                                         nodes, t0s[1])}
        self._check(RouterParams(gamma1=0.05, gamma2=0.0, omega_c=0.4), drives, grid)

    @staticmethod
    def _check(params, drives, grid):
        want = integrate_cavity_loop(params, drives, grid)
        got = integrate_cavity(params, drives, grid)
        assert got.shape == (grid.n_steps + 1,)
        assert got[0] == 0j
        peak = float(np.max(np.abs(want)))
        assert peak > 0.0
        assert float(np.max(np.abs(got - want))) <= 1e-13 * peak


class TestOutputFlux:
    def test_shape_mismatch_rejected(self):
        grid = TimeGrid(-10.0, 10.0, 0.004)
        with pytest.raises(ParameterError):
            output_flux(RouterParams(), {}, np.zeros(17, dtype=complex), grid)
        # a 0-d trajectory raised IndexError while building the message
        with pytest.raises(ParameterError, match=r"shape \(\), need \(5001,\)"):
            output_flux(RouterParams(), {}, np.zeros((), dtype=complex), grid)


class TestTimeDomainReport:
    def test_one_pulse_evaluation_per_packet(self, monkeypatch):
        # the packets share one real envelope: each block of the 62 evaluates
        # it once, on its half nodes, and no packet's pulse is evaluated
        calls = []
        envelope = oracle._envelope

        def counting(Omega, tau):
            calls.append((Omega, tau))
            return envelope(Omega, tau)

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
        # t0 = 0, so tau holds the nodes; the node between two blocks is
        # evaluated twice, as the end of one and the start of the next, and
        # the blocks rebuild the linspace bits
        nodes = [tau for _, tau in calls]
        for before, after in zip(nodes, nodes[1:]):
            assert before[-1] == after[0]
        rebuilt = np.concatenate([nodes[0]] + [t[1:] for t in nodes[1:]])
        assert np.array_equal(rebuilt.view(np.int64), grid.half_nodes.view(np.int64))

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
    ], ids=["2-blocks", "8-blocks", "3-packets", "4-packets", "lossless",
            "zero-packet", "opposite-phase", "cancelling-moments"])
    def test_streamed_sums_match_whole_arrays(self, params, packets, grid):
        # the report's per-block moments against output_flux on the whole
        # trajectory, which integrate_cavity solves from the same recurrence
        grid = grid or default_grid(params, packets)
        assert grid.n_steps > oracle._BLOCK
        drives = _drives(packets, grid)
        want = output_flux(params, drives, integrate_cavity(params, drives, grid), grid)
        got = time_domain_report(params, packets, grid)
        assert abs(got.n_in - want.n_in) <= 1e-14 * want.n_in
        for ch in Channel:
            assert abs(got.n_out[ch] - want.n_out[ch]) <= 1e-14 * want.n_in

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
        # verify's plateau check reads c at one node as the report's blocks
        # stream past: the node argmin |t| picks on the whole grid, and its
        # bits are integrate_cavity's there
        [got] = [r.max_dev for r in verify.run_suites(["oracle"])
                 if r.check == "plateau-vs-steady-state"]
        params = RouterParams(gamma1=1.0, gamma2=1.0, omega_c=0.3)
        slow = WavePacket(Channel.R1, mean_n=1.0, Omega=0.01)
        grid = TimeGrid(-1200.0, 1211.0, 0.005)
        traj = integrate_cavity(params, _drives([slow], grid), grid)
        c_ss = abs(cavity_amplitude(params, [complex(time_pulse(slow, 0.0)), 0, 0, 0], 0.3)) ** 2
        idx = int(np.argmin(np.abs(grid.times)))
        before, at, after = (abs(abs(c) ** 2 - c_ss) / c_ss for c in traj[idx - 1:idx + 2])
        assert got == at
        assert got not in (before, after)

    def test_zero_input(self):
        rep = time_domain_report(
            RouterParams(), [WavePacket(Channel.R1, mean_n=0.0, Omega=0.3)])
        assert rep.n_total == 0.0
        assert rep.n_in == pytest.approx(0.0, abs=1e-15)

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

    # the oracle integrates one set of packets per call; an array mean_n or
    # phase is refused with one line naming the field
    ARRAY_PACKETS = [
        ("mean_n", [WavePacket(Channel.R1, mean_n=np.array([1.0, 2.0]), Omega=0.3)]),
        ("phase", [WavePacket(Channel.R1, mean_n=1.0, Omega=0.3),
                   WavePacket(Channel.L1, mean_n=1.0, Omega=0.3, phase=np.zeros(2))]),
    ]

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_time_domain_report_refuses_array_packets(self, field, packets):
        for grid in (None, TimeGrid(-40.0, 60.0, 0.005)):
            with pytest.raises(ParameterError, match=f"^{field} must be a scalar") as info:
                time_domain_report(RouterParams(), packets, grid=grid)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_default_grid_refuses_array_packets(self, field, packets):
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar"):
            default_grid(RouterParams(), packets)

    @pytest.mark.parametrize("field, packets", ARRAY_PACKETS, ids=["mean_n", "phase"])
    def test_time_pulse_refuses_array_packets(self, field, packets):
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar"):
            time_pulse(packets[-1], np.linspace(-5.0, 5.0, 11))

    def test_unfinished_ringdown_rejected(self):
        params = RouterParams(gamma1=0.05, gamma2=0.0)
        with pytest.raises(PulseNotContained):
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
