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
every resolution of the step-halving on its full grid, the form the nested
halving, which evaluates only the new midpoints, replaced.

For the CLI's CSV bytes, `csv_text_loop`, `cli_rows_loop` and
`trajectory_csv_loop` write rows with `csv.writer`, one row and one `repr`
per value at a time, the form the CLI's one-pass emitter replaced.
"""

import csv
import io

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


def packet_output_numbers_full_grid(params, packets, quad):
    """The packet quadrature with every resolution evaluated on its full grid.

    Same contract as `photon_router.packet_output_numbers`: the composite
    rule on np.linspace(lo, hi, points), the step halved up to four times
    until every channel agrees to 1e-6 relative, each halving evaluating
    `scatter` on all of its nodes in one call and each packet's spectrum
    with its own Gaussian envelope.
    """
    from photon_router import OutputReport, QuadratureUnderResolved, scatter
    from photon_router.core import CHANNELS
    from photon_router.scattering import ChannelAmplitudes
    from photon_router.wavepacket import _frequency_window, _weights, shared_packet_frame

    def spectrum(p, omega):
        alpha = np.sqrt(p.mean_n) * np.exp(1j * p.phase)
        envelope = np.exp(-((omega - p.omega0) ** 2) / (4.0 * p.Omega ** 2))
        return alpha * (2.0 * np.pi * p.Omega ** 2) ** (-0.25) * envelope

    def fluxes(points):
        omegas = np.linspace(window[0], window[1], points)
        step = (window[1] - window[0]) / (points - 1)
        fields = {ch: 0j for ch in CHANNELS}
        for p in packets:
            fields[p.channel] = spectrum(p, omegas)
        inputs = ChannelAmplitudes(**{ch.name.lower(): fields[ch] for ch in CHANNELS})
        out = scatter(params, inputs, params.omega_c - omegas)
        w = _weights(points, step, quad.rule)
        return {ch: float(np.dot(w, np.abs(out[ch]) ** 2)) for ch in CHANNELS}

    omega0, Omega = shared_packet_frame(packets)
    window = _frequency_window(params, omega0, Omega, quad.window_halfwidth)
    n_in = sum(p.mean_n for p in packets)
    floor = 1e-9 * max(n_in, 1e-300)
    points = quad.points
    current = fluxes(points)
    for _ in range(4):
        points = 2 * (points - 1) + 1
        finer = fluxes(points)
        if all(abs(finer[ch] - current[ch]) <= 1e-6 * max(abs(current[ch]), floor)
               for ch in CHANNELS):
            return OutputReport.from_channel_numbers(current, n_in=n_in)
        current = finer
    raise QuadratureUnderResolved("channel fluxes still moving after 4 grid doublings")
