"""Frequency-domain packet routing: spectra, quadrature, convergence."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    packet_numbers_mpmath,
    packet_output_numbers_full_grid,
    packet_output_numbers_scatter,
)
from photon_router import (
    Channel,
    NonFinite,
    ParameterError,
    QuadratureUnderResolved,
    RouterParams,
    WavePacket,
    gaussian_spectrum,
    mean_output_two,
    packet_output_numbers,
    shared_packet_frame,
    wavepacket,
)

PI = math.pi


def _pair(phi: float, mean_n: float = 1.0, Omega: float = 0.3,
          omega0: float = 0.0) -> list[WavePacket]:
    """Packets on input ports 1 and 2 with relative phase phi."""
    return [
        WavePacket(Channel.R1, mean_n=mean_n, omega0=omega0, Omega=Omega),
        WavePacket(Channel.L1, mean_n=mean_n, omega0=omega0, Omega=Omega,
                   phase=phi),
    ]


class TestGaussianSpectrum:
    def test_peak_height(self):
        p = WavePacket(Channel.R1, mean_n=1.7, omega0=0.4, Omega=0.25)
        peak = abs(gaussian_spectrum(p, 0.4)) ** 2
        assert peak == pytest.approx(1.7 / math.sqrt(2 * PI * 0.25**2), rel=1e-12)

    def test_two_sigma_rolloff(self):
        p = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
        peak = abs(gaussian_spectrum(p, 0.0)) ** 2
        side = abs(gaussian_spectrum(p, 2 * 0.3)) ** 2
        assert side / peak == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_phase_factor(self):
        base = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3)
        rot = WavePacket(Channel.R1, mean_n=1.0, Omega=0.3, phase=0.8)
        ratio = gaussian_spectrum(rot, 0.1) / gaussian_spectrum(base, 0.1)
        assert ratio == pytest.approx(np.exp(0.8j), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_far_scalar_is_zero(self):
        # (omega - omega0)^2 overflows a float; the envelope's value is 0
        assert gaussian_spectrum(WavePacket(Channel.R1, 1.0), 1e200) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_far_array_elements_are_zero(self):
        p = WavePacket(Channel.R1, 1.0, Omega=0.3)
        values = gaussian_spectrum(p, np.array([-1e200, 0.0, 1e200]))
        assert values[0] == 0.0 and values[2] == 0.0
        assert values[1] == gaussian_spectrum(p, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_widest_packet_tail(self):
        # at Omega = 2^510, (omega - omega0)^2 alone would overflow past 4 Omega
        p = WavePacket(Channel.R1, 1.0, Omega=2.0 ** 510)
        ratio = abs(gaussian_spectrum(p, 8 * p.Omega) / gaussian_spectrum(p, 0.0)) ** 2
        assert ratio == pytest.approx(math.exp(-32.0), rel=1e-12)

    def test_norm(self):
        p = WavePacket(Channel.R1, mean_n=2.3, Omega=0.17)
        omegas = np.linspace(-8 * 0.17, 8 * 0.17, 4001)
        norm = np.trapezoid(np.abs(gaussian_spectrum(p, omegas)) ** 2, omegas)
        assert norm == pytest.approx(2.3, abs=1e-9)


class TestSharedFrame:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            shared_packet_frame([])

    def test_mismatched_bandwidth_rejected(self):
        with pytest.raises(ParameterError):
            shared_packet_frame([
                WavePacket(Channel.R1, mean_n=1.0, Omega=0.3),
                WavePacket(Channel.L1, mean_n=1.0, Omega=0.2),
            ])

    def test_mismatched_center_rejected(self):
        with pytest.raises(ParameterError):
            shared_packet_frame([
                WavePacket(Channel.R1, mean_n=1.0, omega0=0.0),
                WavePacket(Channel.L1, mean_n=1.0, omega0=0.1),
            ])

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ParameterError):
            shared_packet_frame([
                WavePacket(Channel.R1, mean_n=1.0),
                WavePacket(Channel.R1, mean_n=0.5),
            ])


class TestPacketRouting:
    def test_lossless_conservation(self):
        params = RouterParams(gamma2=0.7, omega_c=0.4)
        rep = packet_output_numbers(
            params, [WavePacket(Channel.R1, mean_n=1.3, Omega=0.3)])
        assert rep.n_total == pytest.approx(1.3, abs=1e-14)
        assert abs(rep.loss) <= 1e-14

    def test_antisymmetric_pair_reflects_fully(self):
        # the odd combination decouples from the cavity even for broadband
        # packets, so internal loss cannot touch it
        params = RouterParams(gamma_c=0.1)
        rep = packet_output_numbers(params, _pair(PI))
        assert rep.n_total == pytest.approx(2.0, abs=2e-14)
        assert rep.n_r2 < 1e-20
        assert rep.n_l2 < 1e-20

    def test_symmetric_pair_is_lossy(self):
        params = RouterParams(gamma_c=0.1)
        rep = packet_output_numbers(params, _pair(2.0 * PI))
        assert rep.loss > 0.02

    def test_symmetric_pair_loss_value(self):
        # frozen after cross-checking against the time-domain integrator
        params = RouterParams(gamma_c=0.1)
        rep = packet_output_numbers(params, _pair(0.0))
        assert rep.loss == pytest.approx(0.1779100742260984, rel=1e-6)

    def test_narrow_band_limit(self):
        params = RouterParams(gamma2=0.7)
        rep = packet_output_numbers(params, _pair(PI / 3, Omega=1e-3))
        mono = mean_output_two(params, 1.0, 0.0, PI / 3)
        for ch in Channel:
            assert abs(rep.n_out[ch] - mono.n_out[ch]) <= 1e-4

    def test_narrow_band_convergence_is_monotone(self):
        params = RouterParams(gamma2=0.7)
        mono = mean_output_two(params, 1.0, 0.0, PI / 3)
        devs = []
        for Omega in (0.3, 0.1, 0.03, 0.01):
            rep = packet_output_numbers(params, _pair(PI / 3, Omega=Omega))
            devs.append(max(abs(rep.n_out[ch] - mono.n_out[ch])
                            for ch in Channel))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_loss_monotone_in_cavity_decay(self):
        # absorption grows with gamma_c up to critical coupling at
        # gamma1 + gamma2; the grid stays on the rising side
        totals = []
        for gamma_c in np.linspace(0.0, 2.0, 10):
            params = RouterParams(gamma_c=float(gamma_c))
            rep = packet_output_numbers(params, _pair(0.5))
            assert 0.0 <= rep.n_total <= rep.n_in + 1e-9
            totals.append(rep.n_total)
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_simpson_and_trapezoid_agree(self):
        params = RouterParams(gamma2=0.6, gamma_c=0.1, omega_c=0.2)
        packets = _pair(1.3)
        a = packet_output_numbers(params, packets)
        b = packet_output_numbers_full_grid(params, packets, rule="trapezoid")
        for ch in Channel:
            assert abs(a.n_out[ch] - b.n_out[ch]) <= 1e-6 * max(a.n_out[ch], 1.0)

    def test_point_doubling_is_converged(self):
        params = RouterParams(gamma_c=0.1)
        packets = _pair(0.7)
        a = packet_output_numbers(params, packets)
        b = packet_output_numbers_full_grid(params, packets, points=8001)
        for ch in Channel:
            scale = max(abs(a.n_out[ch]), 1e-9 * a.n_in)
            assert abs(a.n_out[ch] - b.n_out[ch]) <= 1e-6 * scale

    def test_widened_window_still_conserves(self):
        # cavity far outside the packet band: the window grows to cover it
        params = RouterParams(gamma2=0.5, omega_c=2.0)
        rep = packet_output_numbers(
            params, [WavePacket(Channel.R1, mean_n=1.0, Omega=0.1)])
        assert rep.n_total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_widest_packet_conserves(self):
        # the whole Gaussian counts even where (omega - omega0)^2 overflows
        params = RouterParams(gamma1=1e153, gamma2=1e153)
        rep = packet_output_numbers(
            params, [WavePacket(Channel.R1, mean_n=1.0, Omega=2.0 ** 510)])
        assert rep.n_total == pytest.approx(1.0, abs=1e-14)

    def test_under_resolved_raises(self):
        # far-detuned narrow-band packet: the widened window cannot be
        # resolved within the refinement budget, and that must be reported
        params = RouterParams(omega_c=5.0)
        with pytest.raises(QuadratureUnderResolved) as info:
            packet_output_numbers(
                params, [WavePacket(Channel.R1, mean_n=1.0, omega0=0.0,
                                    Omega=1e-3)])
        # the message carries the numbers: the window, widened to reach
        # 8 Gamma past the cavity line, the point counts and the worst channel
        message = str(info.value)
        assert "window [-11.0, 21.0]" in message
        assert "4001 -> 64001 points" in message
        worst = re.search(r"N_(r1|l1|r2|l2) changed by (\S+) relative", message)
        assert worst is not None
        assert float(worst.group(2)) > 1e-6
        assert message.endswith("target 1e-06")

    def test_under_resolved_error_holds_no_grid(self):
        # a caller that keeps the error must not keep the 64 001-node rows
        # (1.5 MB) alive through its traceback
        params = RouterParams(omega_c=5.0)
        packets = [WavePacket(Channel.R1, mean_n=1.0, Omega=1e-3)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(QuadratureUnderResolved) as info:
                packet_output_numbers(params, packets)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert info.value.__traceback__ is not None
        assert held < 100_000

    @pytest.mark.filterwarnings("error")
    def test_overflowing_density_is_non_finite(self):
        # the density peaks near 4e310; the integral must not count that as
        # a quadrature that keeps moving
        with pytest.raises(NonFinite, match="flux density overflows"):
            packet_output_numbers(
                RouterParams(), [WavePacket(Channel.R1, mean_n=1e308, Omega=1e-3)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("Omega, omega_c", [(2.0 ** -510, 1.0), (0.3, 1e155),
                                                (0.3, -1e300), (2.0 ** 510, 0.0)])
    def test_envelope_overflow_is_silent(self, Omega, omega_c):
        # far out in the window (omega - omega0)^2 / (4 Omega^2) overflows to
        # inf, where the envelope is exp(-inf) = 0; the quadrature cannot
        # resolve such a narrow packet or cavity line in its window
        with pytest.raises(QuadratureUnderResolved):
            packet_output_numbers(RouterParams(omega_c=omega_c),
                                  [WavePacket(Channel.R1, mean_n=1.0, Omega=Omega)])

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "gamma_c", "omega_c"])
    def test_array_rates_rejected(self, field):
        # the quadrature takes one rate set per call
        params = RouterParams(**{field: np.array([0.5, 1.0])})
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar"):
            packet_output_numbers(params, _pair(0.0))

    def test_zero_flux_packet(self):
        rep = packet_output_numbers(
            RouterParams(), [WavePacket(Channel.R1, mean_n=0.0, Omega=0.3)])
        assert rep.n_total == 0.0
        assert rep.loss == 0.0

    @given(Omega=st.floats(min_value=0.2, max_value=0.5),
           omega_c=st.floats(min_value=-1.0, max_value=1.0),
           gamma2=st.floats(min_value=0.2, max_value=3.0),
           phi=st.floats(min_value=-7.0, max_value=7.0))
    @settings(deadline=None, derandomize=True, max_examples=25)
    def test_conservation_property(self, Omega, omega_c, gamma2, phi):
        params = RouterParams(gamma2=gamma2, omega_c=omega_c)
        rep = packet_output_numbers(params, _pair(phi, Omega=Omega))
        assert abs(rep.n_total - rep.n_in) <= 1e-14 * rep.n_in


class TestBandwidthEffect:
    def test_broadband_routing_degrades(self):
        # finite bandwidth caps the routed fraction below the stationary value
        params = RouterParams(gamma_c=0.1)
        phis = np.linspace(0.0, 2.0 * PI, 41)
        n_r2 = [packet_output_numbers(params, _pair(float(p))).n_r2
                for p in phis]
        assert max(n_r2) < 1.0
        rep = packet_output_numbers(params, _pair(PI))
        assert rep.n_r1 >= 0.98


class TestNestedHalving:
    """Each halving evaluates only the new midpoints; the reports must carry
    the bits of full-grid evaluations of every resolution."""

    @staticmethod
    def _assert_same_bits(params, packets, points=4001):
        rep = packet_output_numbers(params, packets)
        ref = packet_output_numbers_full_grid(params, packets, points)
        assert [rep.n_out[ch] for ch in Channel] == [ref.n_out[ch] for ch in Channel]
        assert (rep.n_in, rep.n_total, rep.loss) == (ref.n_in, ref.n_total, ref.loss)

    # the halving is exact from any odd Simpson base grid, not only from the
    # library's 4001 points
    @pytest.mark.parametrize("points", [2001, 4001, 8001], ids=lambda p: f"{p}-simpson")
    @pytest.mark.parametrize("gamma_c", [0.0, 0.15])
    # narrower packets need more halvings: up to 32001 points at base 4001
    @pytest.mark.parametrize("count, Omega", [(1, 0.3), (2, 0.02), (3, 0.005), (4, 0.05)])
    def test_matches_full_grid(self, monkeypatch, points, gamma_c, count, Omega):
        monkeypatch.setattr(wavepacket, "_POINTS", points)
        rng = np.random.default_rng([points, count, int(gamma_c > 0)])
        params = RouterParams(gamma2=0.7, gamma_c=gamma_c, omega_c=0.2)
        packets = [WavePacket(ch, mean_n=float(rng.uniform(0.1, 3.0)), omega0=0.1,
                              Omega=Omega, phase=float(rng.uniform(0.0, 2 * PI)))
                   for ch in list(Channel)[:count]]
        self._assert_same_bits(params, packets, points)

    def test_widened_window_matches_full_grid(self):
        params = RouterParams(gamma2=0.5, gamma_c=0.1, omega_c=2.0)
        self._assert_same_bits(params, _pair(0.9, Omega=0.1))

    def test_under_resolved_like_full_grid(self):
        params = RouterParams(omega_c=5.0)
        packets = [WavePacket(Channel.R1, mean_n=1.0, Omega=1e-3)]
        with pytest.raises(QuadratureUnderResolved):
            packet_output_numbers_full_grid(params, packets)
        with pytest.raises(QuadratureUnderResolved):
            packet_output_numbers(params, packets)


class TestMomentQuadrature:
    """The three line moments against the per-channel scatter quadrature they
    replaced and against the exact moments from a 40-digit Faddeeva w(z)."""

    # (packets, gamma2, gamma_c, omega_c, Omega); omega_c = 2.0 at Omega = 0.1
    # puts the cavity line outside +-8 Omega, so the window widens
    CASES = [(1, 0.7, 0.0, 0.2, 0.3), (2, 0.7, 0.15, 0.2, 0.3), (3, 1.4, 0.0, -0.5, 0.05),
             (4, 0.3, 0.6, 0.9, 0.5), (2, 0.5, 0.1, 2.0, 0.1), (4, 0.0, 0.0, 2.0, 0.1)]

    @staticmethod
    def _scenario(count, gamma2, gamma_c, omega_c, Omega):
        rng = np.random.default_rng([count, int(10 * gamma2)])
        params = RouterParams(gamma2=gamma2, gamma_c=gamma_c, omega_c=omega_c)
        packets = [WavePacket(ch, mean_n=float(rng.uniform(0.1, 3.0)), omega0=0.1,
                              Omega=Omega, phase=float(rng.uniform(0.0, 2 * PI)))
                   for ch in list(Channel)[:count]]
        return params, packets

    @pytest.mark.parametrize("case", CASES)
    def test_matches_scatter_route(self, case):
        params, packets = self._scenario(*case)
        rep = packet_output_numbers(params, packets)
        ref = packet_output_numbers_scatter(params, packets)
        for ch in Channel:
            assert abs(rep.n_out[ch] - ref.n_out[ch]) <= 1e-14 * rep.n_in

    @pytest.mark.parametrize("case", CASES)
    def test_matches_faddeeva(self, case):
        # the window leaves out about 1e-15 of the Gaussian
        params, packets = self._scenario(*case)
        rep = packet_output_numbers(params, packets)
        exact = packet_numbers_mpmath(params, packets)
        for ch, value in zip(Channel, exact):
            assert abs(rep.n_out[ch] - float(value)) <= 1e-14 * rep.n_in


class TestPacketArrays:
    """Packets whose mean_n and phase are arrays: one quadrature for all
    elements, each element with the bits of its own scalar call."""

    @staticmethod
    def _bits(rep, size):
        values = [rep.n_out[ch] for ch in Channel] + [rep.n_in, rep.n_total, rep.loss]
        return np.array([np.broadcast_to(np.asarray(v, dtype=float), (size,))
                         for v in values]).view(np.int64)

    @given(data=st.data(), count=st.integers(1, 4), size=st.integers(1, 5),
           kind=st.sampled_from(["lossless", "lossy", "gamma2=0"]))
    @settings(deadline=None, derandomize=True, max_examples=40)
    def test_array_call_equals_scalar_calls(self, data, count, size, kind):
        params = RouterParams(
            gamma1=data.draw(st.floats(0.5, 2.0)),
            gamma2=0.0 if kind == "gamma2=0" else data.draw(st.floats(0.1, 2.0)),
            gamma_c=data.draw(st.floats(0.05, 0.5)) if kind == "lossy" else 0.0,
            omega_c=data.draw(st.floats(-2.0, 2.0)))
        omega0 = data.draw(st.floats(-1.0, 1.0))
        Omega = data.draw(st.floats(0.05, 1.0))
        channels = data.draw(st.permutations(list(Channel)))[:count]
        mean_n = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
        phase = st.floats(-10.0, 10.0)
        # each field an array of `size` elements or one float that broadcasts
        fields = [[data.draw(st.one_of(st.lists(values, min_size=size, max_size=size),
                                       values))
                   for values in (mean_n, phase)] for _ in channels]
        def packets(pick):
            return [WavePacket(ch, pick(n), omega0, Omega, pick(ph))
                    for ch, (n, ph) in zip(channels, fields)]

        bits = self._bits(packet_output_numbers(params, packets(
            lambda v: np.array(v) if isinstance(v, list) else v)), size)
        for i in range(size):
            ref = packet_output_numbers(params, packets(
                lambda v: v[i] if isinstance(v, list) else v))
            assert (bits[:, i] == self._bits(ref, 1)[:, 0]).all()

    def test_elements_settle_at_their_own_resolution(self):
        # phases near +-pi agree at the first halving, the others one halving
        # later; a decision shared by all elements moves the first group's bits
        params = RouterParams(gamma2=1.2, gamma_c=0.43, omega_c=0.5)
        phis = np.linspace(-PI, PI, 13)
        rep = packet_output_numbers(params, _pair(phis, Omega=0.016))
        bits = self._bits(rep, phis.size)
        for i, phi in enumerate(phis):
            ref = packet_output_numbers(params, _pair(float(phi), Omega=0.016))
            assert (bits[:, i] == self._bits(ref, 1)[:, 0]).all()

    def test_scalar_call_keeps_float_types(self):
        rep = packet_output_numbers(RouterParams(gamma_c=0.1), _pair(0.7))
        assert type(rep.n_in) is float
        assert all(type(rep.n_out[ch]) is np.float64 for ch in Channel)

    def test_under_resolved_names_first_failing_index(self):
        # the mean_n = 0 elements carry no flux and converge at once
        params = RouterParams(omega_c=5.0)
        packets = [WavePacket(Channel.R1, mean_n=np.array([0.0, 0.0, 1.0, 1.0]),
                              Omega=1e-3)]
        with pytest.raises(QuadratureUnderResolved) as info:
            packet_output_numbers(params, packets)
        with pytest.raises(QuadratureUnderResolved) as scalar:
            packet_output_numbers(params, [WavePacket(Channel.R1, mean_n=1.0, Omega=1e-3)])
        # the element's own message, its flat index named
        assert str(info.value) == str(scalar.value).replace(
            "doublings:", "doublings at index 2:")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_element_is_non_finite(self):
        packets = [WavePacket(Channel.R1, mean_n=np.array([[1.0, 1.0], [1.0, 1e308]]),
                              Omega=1e-3)]
        with pytest.raises(NonFinite, match="flux density overflows .* at index 3$"):
            packet_output_numbers(RouterParams(), packets)

    def test_mismatched_shapes_rejected(self):
        packets = [WavePacket(Channel.R1, mean_n=np.ones(2)),
                   WavePacket(Channel.L1, mean_n=1.0, phase=np.zeros(3))]
        with pytest.raises(ParameterError, match="do not broadcast together"):
            packet_output_numbers(RouterParams(), packets)
