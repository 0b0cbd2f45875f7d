"""Independent references the benchmark checks the simulator's outputs against.

Nothing here imports photon_router. Both references follow from the rank-1
scattering matrix of the router,

    S(delta) = I - k k^T / (i delta + Gamma),
    k = (sqrt g1, sqrt g1, sqrt g2, sqrt g2),  Gamma = g1 + g2 + gc,

in channel order (r1, l1, r2, l2), with delta = omega_c - omega.

Monochromatic rows use the explicit 4x4 matrix. Gaussian packets that
share one envelope (centre omega0, bandwidth Omega) leave channel ch with

    N_ch = |a_ch|^2 - 2 Re(conj(a_ch) k_ch K I2) + k_ch^2 |K|^2 I1,
    K = sum_j k_j a_j,
    I2 = int rho(w) / (Gamma + i (omega_c - w)) dw
       = sqrt(pi / 2) / Omega * conj(wofz(z)),
    z = (omega_c - omega0 + i Gamma) / (sqrt(2) Omega),
    I1 = Re(I2) / Gamma,

where rho is the normalised Gaussian flux spectrum of standard deviation
Omega and wofz is the Faddeeva function w(z) = exp(-z^2) erfc(-i z).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wofz

ORDER = ("r1", "l1", "r2", "l2")


def coupling_vector(g1, g2) -> np.ndarray:
    """k = (sqrt g1, sqrt g1, sqrt g2, sqrt g2) along the last axis."""
    s1, s2 = np.sqrt(np.asarray(g1, float)), np.sqrt(np.asarray(g2, float))
    return np.stack([s1, s1, s2, s2], axis=-1)


def smatrix(g1, g2, gc, delta) -> np.ndarray:
    """The 4x4 scattering matrix; broadcasts over leading axes."""
    k = coupling_vector(g1, g2)
    denom = 1j * np.asarray(delta, float) + np.asarray(g1, float) + g2 + gc
    return np.eye(4) - k[..., :, None] * k[..., None, :] / np.asarray(denom)[..., None, None]


def mono_fluxes(g1, g2, gc, delta, amps) -> np.ndarray:
    """Output fluxes |S a|^2 for input amplitudes a of shape (..., 4)."""
    out = np.einsum("...ij,...j->...i", smatrix(g1, g2, gc, delta),
                    np.asarray(amps, complex))
    return np.abs(out) ** 2


def lorentz_average(gamma: float, detuning: float, Omega: float) -> complex:
    """I2 = average of 1 / (Gamma + i (omega_c - w)) over the packet spectrum.

    detuning = omega_c - omega0.
    """
    z = complex(detuning, gamma) / (math.sqrt(2.0) * Omega)
    return math.sqrt(math.pi / 2.0) / Omega * complex(np.conj(wofz(z)))


def packet_fluxes(g1: float, g2: float, gc: float, detuning: float, Omega: float,
                  amps) -> np.ndarray:
    """Output fluxes of packets sharing one Gaussian envelope (Faddeeva form).

    amps holds sqrt(mean_n) * exp(i phase) per channel in ORDER; the input
    flux of channel ch is |amps[ch]|^2.
    """
    a = np.asarray(amps, complex)
    k = coupling_vector(g1, g2)
    gamma = g1 + g2 + gc
    i2 = lorentz_average(gamma, detuning, Omega)
    i1 = i2.real / gamma
    big_k = np.dot(k, a)
    return (np.abs(a) ** 2 - 2.0 * np.real(np.conj(a) * k * big_k * i2)
            + k ** 2 * abs(big_k) ** 2 * i1)
