"""Independent brute-force references for the library's fast routes.

For the monochromatic scattering map, assembles the explicit 4x4 scattering
matrix

    S(delta) = I - s s^T / (i delta + gamma1 + gamma2 + gamma_c),
    s = (sqrt(gamma1), sqrt(gamma1), sqrt(gamma2), sqrt(gamma2))

in channel order (r1, l1, r2, l2) and evaluates output fluxes by plain
matrix algebra. Kept deliberately separate from the library implementation
so a transcription error there cannot cancel against the same error here.

For the time-domain oracle, `integrate_cavity_loop` steps the cavity
equation with classical RK4 one Python step at a time, the form the library
replaced with a linear recurrence solved in numpy.
"""

import numpy as np

ORDER = ("r1", "l1", "r2", "l2")


def smatrix(gamma1: float, gamma2: float, gamma_c: float, delta: float) -> np.ndarray:
    s = np.sqrt(np.array([gamma1, gamma1, gamma2, gamma2], dtype=complex))
    denom = 1j * delta + gamma1 + gamma2 + gamma_c
    return np.eye(4, dtype=complex) - np.outer(s, s) / denom


def output_fluxes(gamma1: float, gamma2: float, gamma_c: float, delta: float,
                  amps) -> np.ndarray:
    """Output fluxes for input amplitudes in (r1, l1, r2, l2) order."""
    out = smatrix(gamma1, gamma2, gamma_c, delta) @ np.asarray(amps, dtype=complex)
    return np.abs(out) ** 2


def integrate_cavity_loop(params, drives, grid) -> np.ndarray:
    """The cavity trajectory by classical RK4, one Python step at a time.

    Same contract as `photon_router.integrate_cavity` (c(t_start) = 0, c at
    the grid nodes), without its window checks. The forcing
    -i sqrt(gamma_j) <o_ch_in(t)> is sampled at the half-step nodes.
    """
    n = grid.n_steps
    h = grid.step
    half_nodes = np.linspace(grid.t_start, grid.t_end, 2 * n + 1)
    forcing = np.zeros(2 * n + 1, dtype=complex)
    for ch, fn in drives:
        forcing += -1j * np.sqrt(params.coupling(ch)) * fn(half_nodes)

    lam = complex(-1j * params.omega_c - params.total_decay)
    f = forcing.tolist()
    out = [0j] * (n + 1)
    cur = 0j
    h2 = 0.5 * h
    h6 = h / 6.0
    j = 0
    for i in range(n):
        d0 = f[j]
        dh = f[j + 1]
        d1 = f[j + 2]
        j += 2
        k1 = lam * cur + d0
        k2 = lam * (cur + h2 * k1) + dh
        k3 = lam * (cur + h2 * k2) + dh
        k4 = lam * (cur + h * k3) + d1
        cur = cur + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        out[i + 1] = cur
    return np.asarray(out, dtype=complex)
