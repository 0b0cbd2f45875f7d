"""Port labels, parameter validation, and report bookkeeping."""

import math

import numpy as np
import pytest

from photon_router import (
    CHANNELS,
    Channel,
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

    @staticmethod
    def _rejects_element(error, field, bad):
        """validate() on an array field names its first bad element, in one line."""
        with pytest.raises(error) as info:
            validate(RouterParams(**{field: np.array([1.0, 0.5, bad, 2.0, bad])}))
        message = str(info.value)
        assert message.startswith(f"{field} must be ")
        assert message.endswith(f", got {bad!r} at index 2")
        assert "\n" not in message and "array" not in message

    @pytest.mark.parametrize("gamma1", [0.0, -1.0])
    def test_gamma1_must_be_positive(self, gamma1):
        with pytest.raises(NonPositiveGamma1):
            validate(RouterParams(gamma1=gamma1))
        self._rejects_element(NonPositiveGamma1, "gamma1", gamma1)

    def test_negative_rates_rejected(self):
        with pytest.raises(NegativeRate):
            validate(RouterParams(gamma2=-0.1))
        with pytest.raises(NegativeRate):
            validate(RouterParams(gamma_c=-1e-9))
        self._rejects_element(NegativeRate, "gamma2", -0.1)
        self._rejects_element(NegativeRate, "gamma_c", -1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFinite):
            validate(RouterParams(gamma2=bad))
        with pytest.raises(NonFinite):
            validate(RouterParams(omega_c=bad))
        self._rejects_element(NonFinite, "gamma2", bad)
        self._rejects_element(NonFinite, "omega_c", bad)

    @pytest.mark.parametrize("bad, kind", [([0.5, 1.0], "list"), ("0.5", "str")],
                             ids=["list", "str"])
    def test_non_numeric_rejected(self, bad, kind):
        # abs() of a list or str raised an untyped TypeError
        with pytest.raises(ParameterError) as info:
            validate(RouterParams(gamma2=bad))
        assert str(info.value) == f"gamma2 must be a number or a numeric numpy array, got {kind}"

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "gamma_c", "omega_c"])
    def test_complex_rejected(self, field):
        # abs() takes complex numbers, so omega_c = 1j validated, and the
        # other rates failed later with untyped TypeErrors
        with pytest.raises(ParameterError) as info:
            validate(RouterParams(**{field: 1j}))
        assert str(info.value) == f"{field} must be real, got complex"

    @pytest.mark.parametrize("bad, kind", [
        (np.complex64(0.5), "complex64"), (np.complex128(0.5), "complex128"),
        (np.array([0.5, 1.0 + 0j]), "an array of dtype complex128")],
        ids=["complex64", "complex128", "complex-array"])
    def test_numpy_complex_rejected(self, bad, kind):
        # numpy orders complex numbers, so these pass a finiteness comparison
        with pytest.raises(ParameterError) as info:
            validate(RouterParams(omega_c=bad))
        assert str(info.value) == f"omega_c must be real, got {kind}"

    def test_array_rates_validate(self):
        params = RouterParams(gamma1=np.array([0.5, 2.0]), gamma2=np.array([0.0, 1.0]),
                              gamma_c=0.1)
        assert validate(params) is params
        assert params.total_decay == pytest.approx([0.6, 3.1])

    def test_gamma2_zero_is_legal(self):
        validate(RouterParams(gamma2=0.0))


class TestWavePacket:
    def test_negative_mean_n(self):
        with pytest.raises(NegativeRate):
            WavePacket(Channel.R1, mean_n=-0.5)

    @pytest.mark.parametrize("Omega", [0.0, -0.3, 5e-324, 1e-158, 2.0 ** -511, 2.0 ** 511,
                                       1e200])
    def test_bad_bandwidth(self, Omega):
        with pytest.raises(ParameterError):
            WavePacket(Channel.R1, mean_n=1.0, Omega=Omega)

    @pytest.mark.parametrize("Omega", [2.0 ** -510, 2.0 ** 510])
    def test_bandwidth_limits_kept(self, Omega):
        assert WavePacket(Channel.R1, mean_n=1.0, Omega=Omega).Omega == Omega

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            WavePacket(Channel.R1, mean_n=math.nan)

    @pytest.mark.parametrize("field, bad, kind", [("mean_n", [1.0, 2.0], "list"),
                                                  ("phase", "0.5", "str")],
                             ids=["mean_n-list", "phase-str"])
    def test_non_numeric_rejected(self, field, bad, kind):
        with pytest.raises(ParameterError) as info:
            WavePacket(Channel.R1, **{"mean_n": 1.0, field: bad})
        assert str(info.value) == f"{field} must be a number or a numeric numpy array, got {kind}"

    @pytest.mark.parametrize("field", ["mean_n", "phase", "Omega"])
    def test_complex_rejected(self, field):
        # phase = 1j was accepted, and the packet route returned
        # n_total = 0.1353 for n_in = 1 on a lossless router
        with pytest.raises(ParameterError) as info:
            WavePacket(Channel.R1, **{"mean_n": 1.0, field: 1j})
        assert str(info.value) == f"{field} must be real, got complex"

    def test_complex_array_rejected(self):
        with pytest.raises(ParameterError) as info:
            WavePacket(Channel.R1, mean_n=1.0, phase=np.array([0.0, 1.0], dtype=complex))
        assert str(info.value) == "phase must be real, got an array of dtype complex128"

    def test_array_fields_broadcast(self):
        p = WavePacket(Channel.R1, mean_n=np.array([[1.0], [2.0]]), phase=np.zeros(3))
        assert p.mean_n.shape == (2, 1) and p.phase.shape == (3,)

    @pytest.mark.parametrize("error, field, bad", [(NegativeRate, "mean_n", -0.5),
                                                   (NonFinite, "mean_n", math.inf),
                                                   (NonFinite, "phase", math.nan)])
    def test_array_names_first_bad_element(self, error, field, bad):
        with pytest.raises(error) as info:
            WavePacket(Channel.R1, **{"mean_n": 1.0, field: np.array([0.5, bad, 1.0, bad])})
        message = str(info.value)
        assert message.startswith(f"{field} must be ")
        assert message.endswith(f", got {bad!r} at index 1")
        assert "\n" not in message

    @pytest.mark.parametrize("field", ["omega0", "Omega"])
    def test_window_fields_stay_scalar(self, field):
        with pytest.raises(ParameterError, match=f"^{field} must be a scalar, got an array"):
            WavePacket(Channel.R1, mean_n=1.0, **{field: np.array([0.3, 0.4])})

    def test_mismatched_array_shapes_rejected(self):
        with pytest.raises(ParameterError, match="^mean_n and phase do not broadcast"):
            WavePacket(Channel.R1, mean_n=np.ones(2), phase=np.zeros(3))


class TestOutputReport:
    def test_totals(self):
        rep = OutputReport.from_channel_numbers([0.1, 0.2, 0.3, 0.4], n_in=1.2)
        assert rep.n_total == pytest.approx(1.0, rel=1e-15)
        assert rep.loss == pytest.approx(0.2, rel=1e-12)
        assert rep.n_r1 == 0.1 and rep.n_l2 == 0.4

    def test_rounding_noise_clamped(self):
        rep = OutputReport.from_channel_numbers([-1e-14, 1.0, 0.0, 0.0], n_in=1.0)
        assert rep.n_r1 == 0.0
        assert rep.n_r2 == 0.0

    def test_real_negative_not_masked(self):
        rep = OutputReport.from_channel_numbers([-1e-6, 0.0, 0.0, 0.0], n_in=1.0)
        assert rep.n_r1 == -1e-6

    def test_partial_array_channels_broadcast(self):
        rep = OutputReport.from_channel_numbers(
            [np.array([0.1, 0.2]), 0.5, 0.0, 0.0], n_in=np.array([1.0, 1.0]))
        np.testing.assert_array_equal(rep.n_r1, [0.1, 0.2])
        np.testing.assert_array_equal(rep.n_l1, [0.5, 0.5])
        np.testing.assert_array_equal(rep.n_r2, [0.0, 0.0])
        np.testing.assert_array_equal(rep.n_total, [0.1 + 0.5, 0.2 + 0.5])

    def test_scalar_channels_clamp_per_n_in_element(self):
        # the clamp floor of each n_in element applies to every channel there
        rep = OutputReport.from_channel_numbers(
            [-1e-9, 1.0, 0.0, 0.0], n_in=np.array([1.0, 1e4, 1.0, 1e4]))
        np.testing.assert_array_equal(rep.n_r1, [-1e-9, 0.0, -1e-9, 0.0])
        np.testing.assert_array_equal(rep.n_l1, [1.0, 1.0, 1.0, 1.0])

    def test_channel_axis_first(self):
        # one (4, ...) array, as the scattering map's fluxes arrive, gives the
        # same report as its four rows
        numbers = np.array([[0.1, 0.2], [0.3, 0.4], [0.0, 0.1], [0.5, 0.25]])
        rep = OutputReport.from_channel_numbers(numbers, n_in=1.0)
        rows = OutputReport.from_channel_numbers(list(numbers), n_in=1.0)
        for ch, row in zip(CHANNELS, numbers):
            np.testing.assert_array_equal(rep.n_out[ch], row)
            np.testing.assert_array_equal(rows.n_out[ch], row)
        np.testing.assert_array_equal(rep.n_total, rows.n_total)

    @pytest.mark.parametrize("numbers", [[0.1, 0.2, 0.3], [0.1] * 5, np.zeros((3, 2))],
                             ids=["three", "five", "array-of-three"])
    def test_wrong_channel_count_rejected(self, numbers):
        with pytest.raises(ParameterError, match="need 4 channel numbers in CHANNELS order"):
            OutputReport.from_channel_numbers(numbers, n_in=1.0)

    @pytest.mark.parametrize("n_out, n_in, message", [
        ([0.1, 0.2, 0.3, 0.4], math.inf,
         "n_in is not finite; the inputs overflow double precision, got inf"),
        ([0.1, math.nan, 0.3, 0.4], 1.0,
         "N_l1 is not finite; the inputs overflow double precision, got nan"),
        ([1e308, 1e308, 0.0, 0.0], 1.0,
         "N_total is not finite; the inputs overflow double precision, got inf"),
        ([np.array([0.1, 0.2, 0.3])] * 4, np.array([1.0, 2.0, -math.inf]),
         "n_in is not finite; the inputs overflow double precision, got -inf at index 2"),
    ], ids=["n_in", "channel", "total", "array"])
    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning on the way
    def test_non_finite_rejected(self, n_out, n_in, message):
        with pytest.raises(NonFinite) as info:
            OutputReport.from_channel_numbers(n_out, n_in=n_in)
        assert str(info.value) == message

    def test_by_output_port(self):
        rep = OutputReport.from_channel_numbers([0.1, 0.2, 0.3, 0.4], n_in=1.0)
        assert rep.by_output_port() == {2: 0.1, 1: 0.2, 4: 0.3, 3: 0.4}
