"""Frequency-domain packet routing: spectra, quadrature, convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_router import (
    Channel,
    ParameterError,
    QuadratureSpec,
    QuadratureUnderResolved,
    RouterParams,
    WavePacket,
    gaussian_spectrum,
    mean_output_two,
    packet_output_numbers,
    shared_packet_frame,
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

    def test_norm(self):
        p = WavePacket(Channel.R1, mean_n=2.3, Omega=0.17)
        omegas = np.linspace(-8 * 0.17, 8 * 0.17, 4001)
        norm = np.trapezoid(np.abs(gaussian_spectrum(p, omegas)) ** 2, omegas)
        assert norm == pytest.approx(2.3, abs=1e-9)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.points == 4001
        assert spec.window_halfwidth == 8.0
        assert spec.rule == "simpson"

    @pytest.mark.parametrize("kwargs", [
        {"points": 4000},
        {"points": 1999},
        {"window_halfwidth": 5.0},
        {"rule": "midpoint"},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureSpec(**kwargs)


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
        assert rep.n_total == pytest.approx(1.3, abs=1e-6)
        assert abs(rep.loss) <= 1e-6

    def test_antisymmetric_pair_reflects_fully(self):
        # the odd combination decouples from the cavity even for broadband
        # packets, so internal loss cannot touch it
        params = RouterParams(gamma_c=0.1)
        rep = packet_output_numbers(params, _pair(PI))
        assert rep.n_total == pytest.approx(2.0, abs=1e-6)
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
        a = packet_output_numbers(params, packets, QuadratureSpec(rule="simpson"))
        b = packet_output_numbers(params, packets, QuadratureSpec(rule="trapezoid"))
        for ch in Channel:
            assert abs(a.n_out[ch] - b.n_out[ch]) <= 1e-6 * max(a.n_out[ch], 1.0)

    def test_point_doubling_is_converged(self):
        params = RouterParams(gamma_c=0.1)
        packets = _pair(0.7)
        a = packet_output_numbers(params, packets, QuadratureSpec(points=4001))
        b = packet_output_numbers(params, packets, QuadratureSpec(points=8001))
        for ch in Channel:
            scale = max(abs(a.n_out[ch]), 1e-9 * a.n_in)
            assert abs(a.n_out[ch] - b.n_out[ch]) <= 1e-6 * scale

    def test_widened_window_still_conserves(self):
        # cavity far outside the packet band: the window grows to cover it
        params = RouterParams(gamma2=0.5, omega_c=2.0)
        rep = packet_output_numbers(
            params, [WavePacket(Channel.R1, mean_n=1.0, Omega=0.1)])
        assert rep.n_total == pytest.approx(1.0, abs=1e-6)

    def test_under_resolved_raises(self):
        # far-detuned narrow-band packet: the widened window cannot be
        # resolved within the refinement budget, and that must be reported
        params = RouterParams(omega_c=5.0)
        with pytest.raises(QuadratureUnderResolved):
            packet_output_numbers(
                params, [WavePacket(Channel.R1, mean_n=1.0, omega0=0.0,
                                    Omega=1e-3)])

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
        assert abs(rep.n_total - rep.n_in) <= 1e-6 * rep.n_in


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
