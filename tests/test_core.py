"""Port labels, parameter validation, and report bookkeeping."""

import math

import pytest

from photon_router import (
    CHANNELS,
    Channel,
    CoherentDrive,
    NegativeRate,
    NonFinite,
    NonPositiveGamma1,
    OutputReport,
    ParameterError,
    RouterParams,
    WavePacket,
    channel_of_input_port,
    port_of_output_channel,
    validate,
)


class TestPortMap:
    def test_input_ports(self):
        assert channel_of_input_port(1) is Channel.R1
        assert channel_of_input_port(2) is Channel.L1
        assert channel_of_input_port(3) is Channel.R2
        assert channel_of_input_port(4) is Channel.L2

    def test_output_ports(self):
        assert port_of_output_channel(Channel.R1) == 2
        assert port_of_output_channel(Channel.L1) == 1
        assert port_of_output_channel(Channel.R2) == 4
        assert port_of_output_channel(Channel.L2) == 3

    def test_pass_through_permutation(self):
        # a photon that never talks to the cavity keeps direction, so the
        # input->output port map is the fixed permutation below
        got = {p: port_of_output_channel(channel_of_input_port(p))
               for p in (1, 2, 3, 4)}
        assert got == {1: 2, 2: 1, 3: 4, 4: 3}

    def test_waveguide_and_direction(self):
        assert Channel.R1.waveguide == 1
        assert Channel.L1.waveguide == 1
        assert Channel.R2.waveguide == 2
        assert Channel.L2.waveguide == 2
        assert Channel.R2.direction == "right"
        assert Channel.L2.direction == "left"

    @pytest.mark.parametrize("port", [0, 5, -1, "1"])
    def test_bad_input_port(self, port):
        with pytest.raises(ParameterError):
            channel_of_input_port(port)

    def test_channel_order(self):
        assert CHANNELS == (Channel.R1, Channel.L1, Channel.R2, Channel.L2)


class TestRouterParams:
    def test_defaults_validate(self):
        params = RouterParams()
        assert validate(params) is params
        assert params.gamma1 == params.gamma2 == 1.0
        assert params.gamma_c == 0.0

    def test_total_decay(self):
        assert RouterParams(gamma1=2.0, gamma2=3.0, gamma_c=0.5).total_decay == 5.5

    def test_coupling_per_channel(self):
        params = RouterParams(gamma1=2.0, gamma2=3.0)
        assert params.coupling(Channel.R1) == 2.0
        assert params.coupling(Channel.L1) == 2.0
        assert params.coupling(Channel.R2) == 3.0
        assert params.coupling(Channel.L2) == 3.0

    @pytest.mark.parametrize("gamma1", [0.0, -1.0])
    def test_gamma1_must_be_positive(self, gamma1):
        with pytest.raises(NonPositiveGamma1):
            validate(RouterParams(gamma1=gamma1))

    def test_negative_rates_rejected(self):
        with pytest.raises(NegativeRate):
            validate(RouterParams(gamma2=-0.1))
        with pytest.raises(NegativeRate):
            validate(RouterParams(gamma_c=-1e-9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFinite):
            validate(RouterParams(gamma2=bad))
        with pytest.raises(NonFinite):
            validate(RouterParams(omega_c=bad))

    def test_gamma2_zero_is_legal(self):
        validate(RouterParams(gamma2=0.0))


class TestWavePacket:
    def test_negative_mean_n(self):
        with pytest.raises(NegativeRate):
            WavePacket(Channel.R1, mean_n=-0.5)

    @pytest.mark.parametrize("Omega", [0.0, -0.3])
    def test_bad_bandwidth(self, Omega):
        with pytest.raises(ParameterError):
            WavePacket(Channel.R1, mean_n=1.0, Omega=Omega)

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            WavePacket(Channel.R1, mean_n=math.nan)


class TestCoherentDrive:
    @pytest.mark.parametrize("amplitude, delta", [
        (math.nan, 0.0), (complex(1.0, math.inf), 0.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_non_finite(self, amplitude, delta):
        with pytest.raises(NonFinite):
            CoherentDrive(Channel.R1, amplitude, delta=delta)

    def test_finite_kept(self):
        drive = CoherentDrive(Channel.L2, 0.5 - 2j, delta=-1.5)
        assert drive.amplitude == 0.5 - 2j and drive.delta == -1.5


class TestOutputReport:
    def test_totals(self):
        rep = OutputReport.from_channel_numbers(
            {Channel.R1: 0.1, Channel.L1: 0.2, Channel.R2: 0.3, Channel.L2: 0.4},
            n_in=1.2)
        assert rep.n_total == pytest.approx(1.0, rel=1e-15)
        assert rep.loss == pytest.approx(0.2, rel=1e-12)
        assert rep.n_r1 == 0.1 and rep.n_l2 == 0.4

    def test_rounding_noise_clamped(self):
        rep = OutputReport.from_channel_numbers(
            {Channel.R1: -1e-14, Channel.L1: 1.0}, n_in=1.0)
        assert rep.n_r1 == 0.0
        assert rep.n_r2 == 0.0  # missing channels default to zero

    def test_real_negative_not_masked(self):
        rep = OutputReport.from_channel_numbers({Channel.R1: -1e-6}, n_in=1.0)
        assert rep.n_r1 == -1e-6

    def test_by_output_port(self):
        rep = OutputReport.from_channel_numbers(
            {Channel.R1: 0.1, Channel.L1: 0.2, Channel.R2: 0.3, Channel.L2: 0.4},
            n_in=1.0)
        assert rep.by_output_port() == {2: 0.1, 1: 0.2, 4: 0.3, 3: 0.4}
