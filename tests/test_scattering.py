"""Stationary scattering: frozen values and algebraic invariants.

Frozen numbers were produced by the 4x4 matrix reference in _reference.py,
which builds the scattering matrix directly instead of going through the
closed-form expressions under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import output_fluxes
from photon_router import (
    Channel,
    ChannelAmplitudes,
    CoherentDrive,
    NonFinite,
    ParameterError,
    RouterParams,
    amplitudes_of_drives,
    cavity_amplitude,
    mean_output_single,
    mean_output_three,
    mean_output_two,
    report_from_scatter,
    scatter,
    two_port_reduction,
)

PI = math.pi
LOSSLESS = RouterParams()

relaxed = settings(deadline=None, derandomize=True, max_examples=100)

gammas = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
gamma1s = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
deltas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
phases = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
mean_ns = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
amps = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _amps_vector(ca: ChannelAmplitudes) -> np.ndarray:
    return np.array([ca.r1, ca.l1, ca.r2, ca.l2])


class TestCavityAmplitude:
    def test_resonant_single_drive(self):
        c = cavity_amplitude(LOSSLESS, ChannelAmplitudes(r1=1.0 + 0j), 0.0)
        assert c == pytest.approx(-0.5j, abs=1e-15)

    def test_destructive_pair_exact(self):
        c = cavity_amplitude(LOSSLESS, ChannelAmplitudes(r1=1.0, l1=-1.0), 0.0)
        assert c == 0j

    def test_destructive_pair_numeric_phase(self):
        c = cavity_amplitude(
            LOSSLESS, ChannelAmplitudes(r1=1.0, l1=np.exp(1j * PI)), 0.0)
        assert abs(c) < 1e-15


class TestDriveCollection:
    def test_empty(self):
        ca, delta = amplitudes_of_drives([])
        assert _amps_vector(ca).tolist() == [0j, 0j, 0j, 0j]
        assert delta == 0.0

    def test_same_channel_adds(self):
        ca, _ = amplitudes_of_drives([
            CoherentDrive(Channel.R1, 1.0),
            CoherentDrive(Channel.R1, 0.5j),
        ])
        assert ca.r1 == 1.0 + 0.5j

    def test_mismatched_delta_rejected(self):
        with pytest.raises(ParameterError):
            amplitudes_of_drives([
                CoherentDrive(Channel.R1, 1.0, delta=0.0),
                CoherentDrive(Channel.L1, 1.0, delta=0.1),
            ])


class TestFrozenSingleInput:
    def test_equal_four_way_split(self):
        rep = mean_output_single(LOSSLESS, 1.0, 0.0)
        for ch in (rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2):
            assert ch == pytest.approx(0.25, abs=1e-12)

    def test_total_reflection_one_sided(self):
        rep = mean_output_single(RouterParams(gamma2=0.0), 1.0, 0.0)
        assert rep.n_l1 == pytest.approx(1.0, abs=1e-12)
        assert rep.n_r1 == pytest.approx(0.0, abs=1e-12)
        assert rep.n_r2 == 0.0 and rep.n_l2 == 0.0

    def test_far_detuned_pass_through(self):
        rep = mean_output_single(LOSSLESS, 1.0, 1e6)
        assert rep.n_r1 == pytest.approx(1.0, abs=1e-5)

    def test_lossy_frozen_value(self):
        # gamma2 = 0.6, gamma_c = 0.2, delta = 0.5 (matrix reference)
        rep = mean_output_single(RouterParams(gamma2=0.6, gamma_c=0.2), 1.0, 0.5)
        expected = (0.2550143266475644, 0.28653295128939826,
                    0.17191977077363899, 0.17191977077363899)
        for got, want in zip((rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2), expected):
            assert got == pytest.approx(want, rel=1e-12)
        assert rep.loss == pytest.approx(0.4 / 3.49, rel=1e-12)  # 2 g1 gamma_c / D
        assert rep.loss > 0.0
        assert rep.n_total + rep.loss == pytest.approx(rep.n_in, rel=1e-12)


class TestFrozenTwoInput:
    def test_antisymmetric_drive_reflects(self):
        rep = mean_output_two(LOSSLESS, 1.0, 0.0, PI)
        assert rep.n_r1 == pytest.approx(1.0, abs=1e-12)
        assert rep.n_l1 == pytest.approx(1.0, abs=1e-12)
        assert rep.n_r2 == 0.0 and rep.n_l2 == 0.0

    def test_symmetric_drive_transmits(self):
        rep = mean_output_two(LOSSLESS, 1.0, 0.0, 0.0)
        assert rep.n_r1 == pytest.approx(0.0, abs=1e-12)
        assert rep.n_l1 == pytest.approx(0.0, abs=1e-12)
        assert rep.n_r2 == pytest.approx(1.0, abs=1e-12)
        assert rep.n_l2 == pytest.approx(1.0, abs=1e-12)

    def test_full_turn_equals_symmetric(self):
        rep = mean_output_two(LOSSLESS, 1.0, 0.0, 2.0 * PI)
        assert rep.n_r1 == pytest.approx(0.0, abs=1e-12)
        assert rep.n_r2 == pytest.approx(1.0, abs=1e-12)

    # asymmetric detuned scan: gamma2 = 0.6, delta = 0.5 (matrix reference)
    @pytest.mark.parametrize("phi,expected", [
        (PI / 2, (0.21708185053380782, 0.9288256227758005,
                  0.42704626334519563, 0.42704626334519563)),
        (1.0, (0.0427637893773437, 0.6416755223367004,
               0.6577803441429778, 0.6577803441429778)),
        (4.0, (1.1214145339303427, 0.5827650710777246,
               0.14791019749596646, 0.14791019749596646)),
    ])
    def test_detuned_scan_values(self, phi, expected):
        rep = mean_output_two(RouterParams(gamma2=0.6), 1.0, 0.5, phi)
        got = (rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-12)


class TestTwoPortReduction:
    def test_extremes_at_matched_detuning(self):
        n_r1, n_l1 = two_port_reduction(1.0, 1.0, 1.0, PI / 2)
        assert n_r1 == pytest.approx(0.0, abs=1e-12)
        assert n_l1 == pytest.approx(2.0, abs=1e-12)
        n_r1, n_l1 = two_port_reduction(1.0, 1.0, 1.0, 3.0 * PI / 2)
        assert n_r1 == pytest.approx(2.0, abs=1e-12)
        assert n_l1 == pytest.approx(0.0, abs=1e-12)

    def test_resonant_is_phase_blind(self):
        for phi in (0.0, 0.7, PI / 2, 3.0):
            n_r1, n_l1 = two_port_reduction(1.0, 1.5, 0.0, phi)
            assert n_r1 == 1.5 and n_l1 == 1.5

    @given(gamma1=gamma1s, delta=deltas, phi=phases, mean_n=mean_ns)
    @relaxed
    def test_matches_full_form(self, gamma1, delta, phi, mean_n):
        params = RouterParams(gamma1=gamma1, gamma2=0.0)
        rep = mean_output_two(params, mean_n, delta, phi)
        n_r1, n_l1 = two_port_reduction(gamma1, mean_n, delta, phi)
        scale = max(mean_n, 1.0)
        assert abs(rep.n_r1 - n_r1) <= 1e-12 * scale
        assert abs(rep.n_l1 - n_l1) <= 1e-12 * scale


class TestFrozenThreeInput:
    # gamma1 = gamma2 = 1, delta = 0, unit flux per drive
    @pytest.mark.parametrize("theta,theta_prime,expected", [
        (0.0, 0.0, (0.25, 2.25, 0.25, 0.25)),
        (PI / 2, 0.0, (0.25, 1.25, 1.25, 0.25)),
        (PI, PI / 2, (1.25, 0.25, 1.25, 0.25)),
        (3 * PI / 2, 3 * PI / 2, (1.25, 1.25, 0.25, 0.25)),
        (PI / 2, PI, (1.25, 0.25, 0.25, 1.25)),
    ])
    def test_phase_grid(self, theta, theta_prime, expected):
        rep = mean_output_three(LOSSLESS, 1.0, 0.0, theta, theta_prime)
        got = (rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-12, abs=1e-12)

    def test_equal_phases_balance_second_guide(self):
        rep = mean_output_three(RouterParams(gamma2=0.7), 1.0, 0.4, 1.1, 1.1)
        assert rep.n_r2 == pytest.approx(rep.n_l2, abs=1e-15)


class TestScatterVectorised:
    def test_array_delta_matches_scalars(self):
        inputs = ChannelAmplitudes(r1=0.8, l1=0.3j, r2=-0.2, l2=0.1 + 0.1j)
        params = RouterParams(gamma2=0.4, gamma_c=0.05)
        delta = np.array([-2.0, 0.0, 0.7, 5.0])
        vec = scatter(params, inputs, delta)
        for i, d in enumerate(delta):
            one = scatter(params, inputs, float(d))
            for ch in Channel:
                assert vec[ch][i] == one[ch]

    # The CLI evaluates sweeps and point commands through these calls, on
    # arrays and on scalars; each element must carry the same bits as the
    # scalar call at that point, rates included.
    rng = np.random.default_rng(7)
    DELTA = rng.uniform(-6.0, 6.0, 300)
    PHASE = rng.uniform(-7.0, 7.0, 300)
    PHASE2 = rng.uniform(-7.0, 7.0, 300)
    GAMMA1 = rng.uniform(0.2, 3.0, 300)
    GAMMA2_SCALE = rng.uniform(0.0, 2.0, 300)
    GAMMA_C = rng.uniform(0.0, 1.0, 300)

    @staticmethod
    def _same_bits(vec, one, i):
        for ch in Channel:
            assert vec.n_out[ch][i] == one.n_out[ch]
        assert vec.n_total[i] == one.n_total
        assert vec.loss[i] == one.loss

    @staticmethod
    def _point_params(rates, i):
        """RouterParams of element i, as floats, of possibly-array `rates`."""
        return RouterParams(*(float(np.broadcast_to(r, (300,))[i]) for r in rates))

    @pytest.mark.parametrize("gamma2", [0.0, 0.6, 1.7])
    def test_closed_forms_on_arrays_match_scalars(self, gamma2):
        d, ph, ph2 = self.DELTA, self.PHASE, self.PHASE2
        # fixed rates, then rates drawn per element as an array RouterParams
        for rates in ((1.3, gamma2, 0.0), (1.3, gamma2, 0.35),
                      (self.GAMMA1, gamma2 * self.GAMMA2_SCALE, self.GAMMA_C)):
            params = RouterParams(*rates)
            single = mean_output_single(params, 1.9, d)
            two = mean_output_two(params, 1.9, d, ph)
            three = mean_output_three(params, 1.9, d, ph, ph2)
            for i in range(d.size):
                point = self._point_params(rates, i)
                self._same_bits(single, mean_output_single(point, 1.9, float(d[i])), i)
                self._same_bits(two, mean_output_two(point, 1.9, float(d[i]),
                                                     float(ph[i])), i)
                self._same_bits(three, mean_output_three(point, 1.9, float(d[i]),
                                                         float(ph[i]), float(ph2[i])), i)

    def test_phase_reports_on_arrays_match_scalars(self):
        a = math.sqrt(1.9)
        d, ph, ph2 = self.DELTA, self.PHASE, self.PHASE2
        for rates in ((1.0, 0.8, 0.3), (self.GAMMA1, self.GAMMA2_SCALE, self.GAMMA_C)):
            params = RouterParams(*rates)
            two = report_from_scatter(
                params, ChannelAmplitudes(r1=a, l1=a * np.exp(1j * ph)), d)
            three = report_from_scatter(
                params, ChannelAmplitudes(r1=a, r2=a * np.exp(1j * ph),
                                          l2=a * np.exp(1j * ph2)), d)
            for i in range(d.size):
                point = self._point_params(rates, i)
                # plain Python complex amplitudes take the same numpy path
                one = report_from_scatter(
                    point,
                    ChannelAmplitudes(r1=a, l1=complex(a * np.exp(1j * float(ph[i])))),
                    float(d[i]))
                self._same_bits(two, one, i)
                assert two.n_in[i] == one.n_in
                one = report_from_scatter(
                    point,
                    ChannelAmplitudes(r1=a, r2=complex(a * np.exp(1j * float(ph[i]))),
                                      l2=complex(a * np.exp(1j * float(ph2[i])))),
                    float(d[i]))
                self._same_bits(three, one, i)
                assert three.n_in[i] == one.n_in


class TestInvariants:
    @given(gamma1=gamma1s, gamma2=gammas, delta=deltas,
           a=amps, b=amps, c=amps, d=amps)
    @relaxed
    def test_lossless_flux_conservation(self, gamma1, gamma2, delta, a, b, c, d):
        params = RouterParams(gamma1=gamma1, gamma2=gamma2)
        inputs = ChannelAmplitudes(r1=a, l1=b, r2=c, l2=d)
        outputs = scatter(params, inputs, delta)
        n_in = inputs.total_flux()
        n_out = outputs.total_flux()
        assert abs(n_out - n_in) <= 1e-12 * max(n_in, 1.0)

    @given(gamma1=gamma1s, gamma2=gammas, gamma_c=gammas, delta=deltas, mean_n=mean_ns)
    @relaxed
    def test_single_form_matches_matrix(self, gamma1, gamma2, gamma_c, delta, mean_n):
        params = RouterParams(gamma1=gamma1, gamma2=gamma2, gamma_c=gamma_c)
        rep = mean_output_single(params, mean_n, delta)
        ref = output_fluxes(gamma1, gamma2, gamma_c, delta,
                            np.array([math.sqrt(mean_n), 0.0, 0.0, 0.0]))
        scale = max(mean_n, 1.0)
        for got, want in zip((rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2), ref):
            assert abs(got - want) <= 1e-10 * scale

    @given(gamma1=gamma1s, gamma2=gammas, gamma_c=gammas, delta=deltas,
           phi=phases, mean_n=mean_ns)
    @relaxed
    def test_two_form_matches_matrix(self, gamma1, gamma2, gamma_c, delta, phi, mean_n):
        params = RouterParams(gamma1=gamma1, gamma2=gamma2, gamma_c=gamma_c)
        rep = mean_output_two(params, mean_n, delta, phi)
        r = math.sqrt(mean_n)
        ref = output_fluxes(gamma1, gamma2, gamma_c, delta,
                            np.array([r, r * np.exp(1j * phi), 0.0, 0.0]))
        scale = max(mean_n, 1.0)
        for got, want in zip((rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2), ref):
            assert abs(got - want) <= 1e-10 * scale

    @given(gamma1=gamma1s, gamma2=gammas, gamma_c=gammas, delta=deltas,
           theta=phases, theta_prime=phases, mean_n=mean_ns)
    @relaxed
    def test_three_form_matches_matrix(self, gamma1, gamma2, gamma_c, delta,
                                       theta, theta_prime, mean_n):
        params = RouterParams(gamma1=gamma1, gamma2=gamma2, gamma_c=gamma_c)
        rep = mean_output_three(params, mean_n, delta, theta, theta_prime)
        r = math.sqrt(mean_n)
        ref = output_fluxes(
            gamma1, gamma2, gamma_c, delta,
            np.array([r, 0.0, r * np.exp(1j * theta),
                      r * np.exp(1j * theta_prime)]))
        scale = max(mean_n, 1.0)
        for got, want in zip((rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2), ref):
            assert abs(got - want) <= 1e-10 * scale

    @given(gamma2=gammas, delta=deltas, phi=phases, mean_n=mean_ns)
    @relaxed
    def test_phase_periodicity(self, gamma2, delta, phi, mean_n):
        params = RouterParams(gamma2=gamma2)
        base = mean_output_two(params, mean_n, delta, phi)
        scale = max(mean_n, 1.0)
        for shifted_phi in (phi + 2.0 * PI, phi - 2.0 * PI):
            shifted = mean_output_two(params, mean_n, delta, shifted_phi)
            for ch in Channel:
                assert abs(base.n_out[ch] - shifted.n_out[ch]) <= 1e-12 * scale

    @given(gamma2=gammas, delta=deltas, phi=phases, mean_n=mean_ns)
    @relaxed
    def test_second_guide_symmetry(self, gamma2, delta, phi, mean_n):
        # both second-guide outputs are fed only by the cavity, so they agree
        # identically, not just to rounding
        rep = mean_output_two(RouterParams(gamma2=gamma2), mean_n, delta, phi)
        assert rep.n_r2 == rep.n_l2

    @given(gamma2=gammas, gamma_c=gammas, delta=deltas, mean_n=mean_ns)
    @relaxed
    def test_antisymmetric_null_is_exact(self, gamma2, gamma_c, delta, mean_n):
        # the antisymmetric pair never excites the cavity, loss or not
        rep = mean_output_two(RouterParams(gamma2=gamma2, gamma_c=gamma_c),
                              mean_n, delta, PI)
        assert rep.n_r2 == 0.0
        assert rep.n_l2 == 0.0

    @given(gamma2=gammas, delta=deltas, phi=phases, mean_n=mean_ns,
           s=st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    @relaxed
    def test_linearity_in_input_flux(self, gamma2, delta, phi, mean_n, s):
        params = RouterParams(gamma2=gamma2)
        base = mean_output_two(params, mean_n, delta, phi)
        scaled = mean_output_two(params, s * mean_n, delta, phi)
        for ch in Channel:
            want = s * base.n_out[ch]
            assert abs(scaled.n_out[ch] - want) <= 1e-12 * max(abs(want), 1.0)

    @given(delta=deltas, a=amps, b=amps, gamma=gamma1s)
    @relaxed
    def test_guide_exchange_symmetry(self, delta, a, b, gamma):
        # with equal couplings, driving ports 1 and 3 is the port 1 and 2
        # problem with the guides relabelled
        params = RouterParams(gamma1=gamma, gamma2=gamma)
        split = scatter(params, ChannelAmplitudes(r1=a, r2=b), delta)
        merged = scatter(params, ChannelAmplitudes(r1=a, l1=b), delta)
        scale = max(abs(a), abs(b), 1.0)
        assert abs(merged.r1 - split.r1) <= 1e-12 * scale
        assert abs(merged.l1 - split.r2) <= 1e-12 * scale
        assert abs(merged.r2 - split.l1) <= 1e-12 * scale
        assert abs(merged.l2 - split.l2) <= 1e-12 * scale

    @given(gamma2=gammas, delta=deltas, psi=phases, a=amps)
    @relaxed
    def test_global_phase_invariance(self, gamma2, delta, psi, a):
        params = RouterParams(gamma2=gamma2)
        base = report_from_scatter(params, ChannelAmplitudes(r1=a), delta)
        rot = report_from_scatter(
            params, ChannelAmplitudes(r1=a * np.exp(1j * psi)), delta)
        scale = max(base.n_in, 1.0)
        for ch in Channel:
            assert abs(base.n_out[ch] - rot.n_out[ch]) <= 1e-12 * scale


NAN_ROW = np.array([0.0, math.nan, 1.0])
INF_ROW = np.array([0.0, 1.0, -math.inf])
ZEROS = np.zeros(3)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call", [
        lambda: mean_output_single(LOSSLESS, math.nan, 0.0),
        lambda: mean_output_two(LOSSLESS, 1.0, math.nan, 0.0),
        lambda: mean_output_three(LOSSLESS, 1.0, 0.0, math.inf, 0.0),
        lambda: two_port_reduction(1.0, 1.0, 0.0, math.inf),
        lambda: mean_output_single(LOSSLESS, 1.0, NAN_ROW),
        lambda: mean_output_two(LOSSLESS, 1.0, ZEROS, NAN_ROW),
        lambda: mean_output_three(LOSSLESS, 1.0, ZEROS, ZEROS, INF_ROW),
        lambda: two_port_reduction(1.0, 1.0, INF_ROW, ZEROS),
        lambda: mean_output_two(LOSSLESS, 1e308, 0, 0),
        lambda: scatter(LOSSLESS, ChannelAmplitudes(r1=1.0), math.inf),
        lambda: report_from_scatter(LOSSLESS, ChannelAmplitudes(r1=math.nan), 0.0),
    ], ids=["single-mean_n", "two-delta", "three-theta", "reduction-phi",
            "single-delta-array", "two-phi-array", "three-theta_prime-array",
            "reduction-delta-array", "two-overflow", "scatter-delta-inf",
            "report-amplitude-nan"])
    def test_rejected(self, call):
        with pytest.raises(NonFinite):
            call()


class TestReportFromScatter:
    def test_lossy_totals(self):
        params = RouterParams(gamma_c=0.5)
        rep = report_from_scatter(params, ChannelAmplitudes(r1=1.0), 0.0)
        assert rep.loss > 0.0
        assert rep.n_total + rep.loss == pytest.approx(rep.n_in, rel=1e-12)

    def test_matches_closed_form_when_lossless(self):
        rep_a = report_from_scatter(LOSSLESS, ChannelAmplitudes(r1=1.0), 0.3)
        rep_b = mean_output_single(LOSSLESS, 1.0, 0.3)
        for ch in Channel:
            assert rep_a.n_out[ch] == pytest.approx(rep_b.n_out[ch], rel=1e-12)
