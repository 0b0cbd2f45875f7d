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

For the packet quadrature, `packet_output_numbers_full_grid` evaluates
the three moment rows of every resolution of the step-halving on its full
grid, the form the nested halving, which evaluates only the new midpoints,
replaced. `packet_output_numbers_scatter` is the route the moments
replaced: the same step-halving on full grids with each packet's own
spectrum, pushed through `scatter` and squared channel by channel. Both take
the base point count and the composite rule (Simpson or trapezoid), which
the library fixes at 4001 and Simpson. `packet_numbers_mpmath`
needs no quadrature: it takes the moments over the whole line from the
Faddeeva function w(z) = exp(-z^2) erfc(-iz) in 40-digit mpmath.

For the CLI's CSV bytes, `csv_text_loop`, `cli_rows_loop` and
`trajectory_csv_loop` write rows with `csv.writer`, one row and one `repr`
per value at a time, the form the CLI's one-pass emitter replaced.
"""

import csv
import io
import math

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
    the grid nodes; `drives` maps each channel to <o_ch_in(t)> sampled at the
    2n + 1 half-step nodes), without its window checks. The forcing is
    -i sqrt(gamma_j) <o_ch_in(t)>.
    """
    n = grid.n_steps
    h = grid.step
    forcing = np.zeros(2 * n + 1, dtype=complex)
    for ch, samples in drives.items():
        forcing += -1j * np.sqrt(params.coupling(ch)) * samples

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


def csv_text_loop(header, columns) -> str:
    """CSV text by csv.writer, one row at a time.

    Each of `columns` is a string, written on every row, or a sequence of
    floats with one value per row, written as its repr.
    """
    size = max(len(col) for col in columns if not isinstance(col, str))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i in range(size):
        writer.writerow([col if isinstance(col, str) else repr(float(col[i]))
                         for col in columns])
    return out.getvalue()


_SCENARIO_COLUMNS = ("gamma1", "gamma2", "gamma_c", "delta", "phi", "theta",
                     "theta_prime", "bandwidth", "mean_n")
_CASE_COLUMNS = {"single": (), "two": ("phi",), "three": ("theta", "theta_prime"),
                 "packet": ("phi", "bandwidth")}


def cli_rows_loop(header, case: str, scn: dict, grid: dict, numbers) -> str:
    """The CSV of an evaluated CLI grid: scenario columns from `grid` where
    swept and from `scn` otherwise, empty where they do not apply to `case`,
    then the first six rows of `numbers` (N_r1 .. loss)."""
    def column(key):
        if key in ("phi", "theta", "theta_prime", "bandwidth") and key not in _CASE_COLUMNS[case]:
            return ""
        return grid[key] if key in grid else repr(float(scn[key]))

    return csv_text_loop(header, [case] + [column(key) for key in _SCENARIO_COLUMNS]
                         + list(numbers[:6]))


def trajectory_csv_loop(times, trajectory) -> str:
    """The --dump-trajectory CSV, with abs2_c as abs(c) ** 2 per element."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("t", "re_c", "im_c", "abs2_c"))
    for t, c in zip(times, trajectory):
        writer.writerow((repr(float(t)), repr(float(c.real)), repr(float(c.imag)),
                         repr(float(abs(c) ** 2))))
    return out.getvalue()


def _weights(points, step, rule):
    """Composite Simpson or trapezoid weights, as the library's Simpson ones."""
    w = np.ones(points)
    if rule == "simpson":
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return np.multiply(w, step / 3.0, out=w)
    w[0] = w[-1] = 0.5
    return np.multiply(w, step, out=w)


def _step_halving(packets, points, fluxes):
    """The convergence loop of `photon_router.packet_output_numbers` around
    `fluxes(points)`, the four channel numbers in ORDER on the window's grid of
    `points`: the step halved up to four times until every channel agrees to
    1e-6 relative, the coarser resolution reported."""
    from photon_router import OutputReport, QuadratureUnderResolved

    n_in = sum(p.mean_n for p in packets)
    floor = 1e-9 * max(n_in, 1e-300)
    current = fluxes(points)
    for _ in range(4):
        points = 2 * (points - 1) + 1
        finer = fluxes(points)
        if all(abs(f - c) <= 1e-6 * max(abs(c), floor) for f, c in zip(finer, current)):
            return OutputReport.from_channel_numbers(current, n_in=n_in)
        current = finer
    raise QuadratureUnderResolved("channel fluxes still moving after 4 grid doublings")


def packet_output_numbers_full_grid(params, packets, points=4001, rule="simpson"):
    """The packet quadrature with the moment rows of every resolution
    evaluated on its full grid in one pass.

    Same contract as `photon_router.packet_output_numbers`: the rows
    e = exp(-(omega - omega0)^2 / (2 Omega^2)), e / (1 + u^2) and
    e u / (1 + u^2), u = (omega_c - omega) / Gamma, on np.linspace(lo, hi,
    points), integrated by the composite rule into the moments I0, A and B
    and combined into channel numbers in the library's order of operations,
    so that at 4001 points and Simpson the bits match.
    """
    from photon_router.core import CHANNELS, packet_amplitude, shared_packet_frame
    from photon_router.wavepacket import _frequency_window

    omega0, Omega = shared_packet_frame(packets)
    window = _frequency_window(params, omega0, Omega)
    gamma = params.total_decay
    peak = (2.0 * np.pi * Omega ** 2) ** (-0.25)
    driven = {p.channel: complex(packet_amplitude(p) * peak) for p in packets}
    peaks = [driven.get(ch, 0j) for ch in CHANNELS]
    couplings = [math.sqrt(params.coupling(ch) / gamma) for ch in CHANNELS]

    def fluxes(points):
        omegas = np.linspace(window[0], window[1], points)
        with np.errstate(over="ignore"):
            e = np.exp(np.square((omegas - omega0) * (1.0 / Omega)) * -0.5)
        u = np.clip((params.omega_c - omegas) / gamma, -2.0 ** 500, 2.0 ** 500)
        a = e / (np.square(u) + 1.0)
        w = _weights(points, (window[1] - window[0]) / (points - 1), rule)
        i0, a, b = (float(np.dot(w, row)) for row in (e, a, a * u))
        drive = sum(g * p for g, p in zip(couplings, peaks))
        m = drive * complex(a, -b)
        line = (drive.real * drive.real + drive.imag * drive.imag) * a
        return [(p.real * p.real + p.imag * p.imag) * i0
                - 2.0 * g * (p.real * m.real + p.imag * m.imag) + g * g * line
                for g, p in zip(couplings, peaks)]

    return _step_halving(packets, points, fluxes)


def packet_output_numbers_scatter(params, packets, points=4001, rule="simpson"):
    """The packet quadrature by `scatter`, channel by channel.

    The same windows and step-halving as
    `photon_router.packet_output_numbers`, each resolution evaluating
    `scatter` on all of its nodes in one call, on (nodes, 4) amplitudes with
    each packet's spectrum built from its own Gaussian envelope, and squaring
    the four output amplitudes.
    """
    from photon_router import scatter
    from photon_router.core import CHANNELS, shared_packet_frame
    from photon_router.wavepacket import _frequency_window

    def spectrum(p, omega):
        alpha = np.sqrt(p.mean_n) * np.exp(1j * p.phase)
        envelope = np.exp(-((omega - p.omega0) ** 2) / (4.0 * p.Omega ** 2))
        return alpha * (2.0 * np.pi * p.Omega ** 2) ** (-0.25) * envelope

    def fluxes(points):
        omegas = np.linspace(window[0], window[1], points)
        step = (window[1] - window[0]) / (points - 1)
        inputs = np.zeros((points, 4), dtype=complex)
        for p in packets:
            inputs[:, CHANNELS.index(p.channel)] = spectrum(p, omegas)
        out = scatter(params, inputs, params.omega_c - omegas)
        w = _weights(points, step, rule)
        return [float(np.dot(w, np.abs(out[:, i]) ** 2)) for i in range(4)]

    omega0, Omega = shared_packet_frame(packets)
    window = _frequency_window(params, omega0, Omega)
    return _step_halving(packets, points, fluxes)


def packet_numbers_mpmath(params, packets, dps: int = 40) -> list:
    """Exact mean output numbers of Gaussian packets, in ORDER, as mpf.

    Over the whole frequency line, int e = sqrt(2 pi) Omega and
    int e / (1 + i u) = pi Gamma conj(w(z)), z = (omega_c - omega0 + i Gamma)
    / (sqrt(2) Omega), with e the squared envelope and u = (omega_c - omega)
    / Gamma. The output field of channel ch is env (a_ch - s_ch S / (1 + i u))
    with a_ch the packet's peak amplitude, s_ch = sqrt(gamma_ch / Gamma) and
    S = sum s_ch a_ch.
    """
    import mpmath

    with mpmath.workdps(dps):
        g1, g2, gc = (mpmath.mpf(float(x)) for x in (params.gamma1, params.gamma2,
                                                      params.gamma_c))
        gamma = g1 + g2 + gc
        omega0 = mpmath.mpf(packets[0].omega0)
        Omega = mpmath.mpf(packets[0].Omega)
        amps = dict.fromkeys(ORDER, mpmath.mpc(0))
        for p in packets:
            amps[p.channel.name.lower()] = (mpmath.sqrt(p.mean_n) * mpmath.expj(p.phase)
                                            * (2 * mpmath.pi * Omega ** 2) ** mpmath.mpf(-0.25))
        s = {"r1": mpmath.sqrt(g1 / gamma), "l1": mpmath.sqrt(g1 / gamma),
             "r2": mpmath.sqrt(g2 / gamma), "l2": mpmath.sqrt(g2 / gamma)}
        z = (mpmath.mpf(float(params.omega_c)) - omega0 + 1j * gamma) / (mpmath.sqrt(2) * Omega)
        w = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
        i0 = mpmath.sqrt(2 * mpmath.pi) * Omega
        line = mpmath.pi * gamma * mpmath.conj(w)
        drive = sum(s[ch] * amps[ch] for ch in ORDER)
        return [abs(amps[ch]) ** 2 * i0
                - 2 * s[ch] * mpmath.re(mpmath.conj(amps[ch]) * drive * line)
                + s[ch] ** 2 * abs(drive) ** 2 * mpmath.re(line)
                for ch in ORDER]
