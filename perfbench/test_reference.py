"""Hand-derived cases for the benchmark's references.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import math

import mpmath
import numpy as np
import pytest

from reference import lorentz_average, mono_fluxes, packet_fluxes


def test_resonant_single_input_splits_four_ways():
    # g1 = g2 at resonance: every output port carries a quarter of the input
    out = mono_fluxes(1.0, 1.0, 0.0, 0.0, [1.0, 0, 0, 0])
    assert np.allclose(out, 0.25, rtol=0, atol=1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.7, -3.0])
def test_one_guide_cavity_reflects_on_resonance_only(delta):
    # g2 = 0: N_l1 = g1^2 / (delta^2 + g1^2), and nothing enters waveguide 2
    out = mono_fluxes(1.0, 0.0, 0.0, delta, [1.0, 0, 0, 0])
    assert out[1] == pytest.approx(1.0 / (delta * delta + 1.0), abs=1e-15)
    assert out[2] == out[3] == 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("g2,delta", [(1.0, 0.0), (0.6, 0.5), (2.3, -4.0)])
def test_opposite_phase_pair_leaves_waveguide_2_dark(g2, delta):
    a = math.sqrt(1.7)
    out = mono_fluxes(1.0, g2, 0.0, delta, [a, a * np.exp(1j * math.pi), 0, 0])
    assert out[2] < 1e-30 and out[3] < 1e-30
    assert out[0] + out[1] == pytest.approx(2 * 1.7, rel=1e-14)


def test_matrix_broadcasts_over_rows():
    deltas = np.array([-1.0, 0.0, 2.0])
    amps = np.array([[1.0, 0, 0, 0]] * 3)
    rows = mono_fluxes(1.0, 1.0, 0.0, deltas, amps)
    for d, row in zip(deltas, rows):
        assert np.array_equal(row, mono_fluxes(1.0, 1.0, 0.0, d, amps[0]))


def _mp_lorentz_average(gamma, detuning, Omega):
    """I2 by adaptive mpmath quadrature of the Gaussian-weighted Lorentzian."""
    mpmath.mp.dps = 30
    om = mpmath.mpf(Omega)
    det = mpmath.mpf(detuning)
    gam = mpmath.mpf(gamma)

    def f(x):  # x = w - omega0
        rho = mpmath.exp(-x * x / (2 * om * om)) / (om * mpmath.sqrt(2 * mpmath.pi))
        return rho / (gam + 1j * (det - x))

    nodes = [-40 * om, -8 * om, -2 * om, 0, 2 * om, 8 * om, 40 * om]
    return complex(mpmath.quad(f, nodes))


@pytest.mark.parametrize("gamma,detuning,Omega", [
    (2.0, 0.0, 0.3),
    (2.1, -1.5, 0.05),
    (0.5, 3.0, 1.0),
    (2.0, 5.0, 0.001),    # narrow packet far from the cavity line
    (2.0, -1.0, 0.001),
])
def test_faddeeva_average_matches_mpmath(gamma, detuning, Omega):
    want = _mp_lorentz_average(gamma, detuning, Omega)
    got = lorentz_average(gamma, detuning, Omega)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("detuning,Omega", [(0.4, 0.3), (5.0, 0.001)])
def test_packet_fluxes_match_mpmath_spectral_integral(detuning, Omega):
    g1, g2, gc = 1.0, 0.7, 0.2
    amps = np.array([1.0, 0.8 * np.exp(0.9j), 0, 0.5 * np.exp(-2.0j)])
    k = np.sqrt([g1, g1, g2, g2])
    big_k = complex(np.dot(k, amps))
    mpmath.mp.dps = 30
    om = mpmath.mpf(Omega)

    def flux(ch):
        def f(x):  # x = w - omega0; the cavity sits at x = detuning
            rho = mpmath.exp(-x * x / (2 * om * om)) / (om * mpmath.sqrt(2 * mpmath.pi))
            b = amps[ch] - k[ch] * big_k / (g1 + g2 + gc + 1j * (detuning - x))
            return rho * abs(b) ** 2
        return float(mpmath.quad(f, [-40 * om, -8 * om, 0, 8 * om, 40 * om]))

    want = np.array([flux(ch) for ch in range(4)])
    got = packet_fluxes(g1, g2, gc, detuning, Omega, amps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(amps) ** 2)


def test_packet_fluxes_tend_to_monochromatic_limit():
    amps = np.array([1.0, np.exp(1.1j), 0, 0])
    mono = mono_fluxes(1.0, 1.0, 0.0, 0.5, amps)
    narrow = packet_fluxes(1.0, 1.0, 0.0, 0.5, 1e-6, amps)
    assert np.max(np.abs(narrow - mono)) < 1e-9


def test_lossless_packets_conserve_flux():
    amps = np.array([0.3, 1.2j, -0.4, 0.9])
    out = packet_fluxes(0.8, 1.3, 0.0, -2.0, 0.2, amps)
    assert out.sum() == pytest.approx(np.sum(np.abs(amps) ** 2), rel=1e-14)
