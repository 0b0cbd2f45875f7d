"""Frequency-domain scattering of monochromatic coherent inputs.

For coherent states the field expectation values obey the classical linear
input-output relations: at detuning delta = omega_c - omega the cavity
amplitude reaches the steady state

    c = -i * sum_ch sqrt(gamma_j) a_ch / (i delta + gamma1 + gamma2 + gamma_c)

(every channel of waveguide j drives the cavity with coupling sqrt(gamma_j)),
and each channel leaves as

    b_ch = a_ch - i sqrt(gamma_j) c.

On the amplitudes a = (a_r1, a_l1, a_r2, a_l2), in CHANNELS order, this is
the rank-1 matrix

    S(delta) = I - k k^T / (i delta + gamma1 + gamma2 + gamma_c),
    k = (sqrt(gamma1), sqrt(gamma1), sqrt(gamma2), sqrt(gamma2)),

unitary whenever gamma_c = 0. `cavity_amplitude`, `scatter` and
`report_from_scatter` apply it to complex amplitudes of shape (..., 4) in
that order, through one core; they are the cross-check of the closed forms
in `verify` and the tests. The closed-form mean output numbers cover the
standard drive scenarios: a single driven port, equal-amplitude drives on
ports 1 and 2 with relative phase phi, the two-port reduction gamma2 = 0,
and equal-amplitude drives on ports 1, 3 and 4 with relative phases theta
and theta'. They are |S a|^2 worked out by hand, so they hold for every
gamma_c >= 0, and each is written so that at gamma_c = 0 it reduces,
operation for operation, to the lossless expression. The closed forms
reject non-finite photon numbers, detunings and phases with NonFinite, and
raise it too, with no numpy warning first, when the rates' sum or a photon
number times an output fraction overflows double precision. Beyond
|delta| + rates = 2^500 they first divide delta and the rates by a power of
two, which changes no value, so a far-detuned cavity passes light straight
through at any finite delta.

Every input may be a scalar or a numpy array: the rates in RouterParams,
detunings, phases, photon numbers and the axes of the amplitudes before
their channel axis all broadcast elementwise, so a whole grid, rates
included, is one call. A scalar runs through the same numpy operations as
an array (a 0-d case of them), so each element of an array call carries the
same bits as the scalar call at that point. Squares are written as
products: Python's float `x ** 2` rounds differently from numpy's square on
some inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CHANNELS,
    NegativeRate,
    NonFinite,
    OutputReport,
    ParameterError,
    RouterParams,
    holds,
    overflow_guard,
    require,
    require_finite,
    validate,
)


def _scattered(params: RouterParams, amplitudes, delta):
    """(c, S(delta) a) for complex amplitudes a of shape (..., 4) in CHANNELS order.

    c has the shape of a[..., 0] broadcast with delta and the rates. S(delta) a
    comes channel first, shape (4,) + c.shape: numpy loops fastest over the
    last axis, and a last axis of four elements makes a slow loop. Raises
    ParameterError unless the last axis of a holds the four channels, and
    NonFinite for a non-finite amplitude or detuning and where the result
    overflows double precision.
    """
    validate(params)
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape[-1:] != (len(CHANNELS),):
        raise ParameterError(
            f"amplitudes need a last axis of the {len(CHANNELS)} channels, got shape {a.shape}")
    # apart: the channel axis need not broadcast with delta; the amplitudes
    # are complex, which require_finite refuses
    require(np.isfinite(a), NonFinite, "amplitudes must be finite", a)
    require_finite(delta=delta)
    s1, s2 = np.sqrt(params.gamma1), np.sqrt(params.gamma2)
    # finite inputs still overflow at extreme scales (amplitudes near 1e308,
    # or a detuning and gamma_c both near it); the check below raises then
    with np.errstate(over="ignore", invalid="ignore"):
        c = (-1j * (s1 * (a[..., 0] + a[..., 1]) + s2 * (a[..., 2] + a[..., 3]))
             / (1j * delta + params.total_decay))
        out = np.empty((len(CHANNELS),) + np.shape(c), dtype=complex)
        for i, s in enumerate((s1, s1, s2, s2)):
            np.subtract(a[..., i], 1j * s * c, out=out[i, ...])
    # every channel carries c (s1 > 0), so out is finite only where c is
    require(np.isfinite(out), NonFinite,
            "the cavity or output amplitudes overflow double precision", out)
    return c, out


def cavity_amplitude(params: RouterParams, amplitudes, delta):
    """Steady-state cavity amplitude c under monochromatic driving.

    amplitudes: complex, shape (..., 4) in CHANNELS order. c has one value
    per point: the leading axes of the amplitudes broadcast with delta and
    the rates. Raises ParameterError for another channel axis and NonFinite
    for a non-finite amplitude or detuning.
    """
    return _scattered(params, amplitudes, delta)[0]


def scatter(params: RouterParams, amplitudes, delta) -> np.ndarray:
    """Output amplitudes S(delta) a on all four channels, shape (..., 4) in
    CHANNELS order like the input amplitudes."""
    return np.moveaxis(_scattered(params, amplitudes, delta)[1], 0, -1)


def report_from_scatter(params: RouterParams, amplitudes, delta) -> OutputReport:
    """OutputReport with per-channel fluxes |scatter(...)|^2.

    With array rates, amplitudes or detunings the report holds arrays, one
    element per point; each equals the scalar call at that point.
    """
    a = np.asarray(amplitudes, dtype=complex)
    out = _scattered(params, a, delta)[1]
    # |S a| <= |a| for a passive cavity: below 2^510 per amplitude neither a
    # flux nor the sum of four input fluxes overflows
    with overflow_guard(abs(a) < 2.0 ** 510):
        flux_in, flux_out = (z.real * z.real + z.imag * z.imag for z in (a, out))
        n_in = flux_in[..., 0] + flux_in[..., 1] + flux_in[..., 2] + flux_in[..., 3]
    return OutputReport.from_channel_numbers(flux_out, n_in=n_in)


def _require_mean_n(mean_n) -> None:
    require(mean_n >= 0.0, NegativeRate, "mean photon number must be >= 0", mean_n)


def _mean_n_guard(mean_n):
    """overflow_guard for the products of mean_n with output fractions.

    A passive cavity sends at most the whole input, 3 mean_n, to any
    channel, so below 2^1020 no product and no n_in can overflow.
    """
    return overflow_guard(mean_n < 2.0 ** 1020)


def _unit_scaled(delta, *rates):
    """delta and the rates, scaled by a power of two when they are so large
    that a closed form's squares could overflow, or so small that they could
    underflow.

    The scale puts the larger of |delta| and the rates' sum in [0.5, 1). The
    closed forms are homogeneous of degree 0 in (delta, rates), and a
    power-of-two scale changes no rounding unless something underflows, so
    their values are unchanged, and far off resonance, at any finite delta,
    they give the plain pass-through answer. Raises NonFinite when the rates'
    sum itself overflows.
    """
    # in quarters, so that the test cannot overflow: its sum stays below
    # the largest double
    size = 0.25 * abs(delta) + sum(0.25 * rate for rate in rates)
    if holds((size >= 2.0 ** -500) & (size < 2.0 ** 498)):
        return (delta, *rates)
    with np.errstate(over="ignore"):  # an overflowing sum raises below
        total = sum(rates)
    require(total < math.inf, NonFinite, "the total decay rate overflows double precision",
            total)
    # ldexp, not a product with 2^-exp: scaling up from a subnormal, that
    # power itself overflows (2^1073 for 5e-324)
    exp = -np.frexp(np.maximum(abs(delta), total))[1]
    return (np.ldexp(delta, exp), *(np.ldexp(rate, exp) for rate in rates))


def mean_output_single(params: RouterParams, mean_n: float, delta: float) -> OutputReport:
    """Mean output numbers for photons injected into input port 1 only.

    N_r1 = (delta^2 + (gamma2 + gamma_c)^2) / D, N_l1 = gamma1^2 / D,
    N_r2 = N_l2 = gamma1 gamma2 / D, with D = delta^2 + (gamma1 + gamma2 + gamma_c)^2,
    each times mean_n; the cavity absorbs 2 gamma1 gamma_c / D mean_n.
    Independent of the input phase.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta)
    _require_mean_n(mean_n)
    delta, g1, g2, gc = _unit_scaled(delta, params.gamma1, params.gamma2, params.gamma_c)
    a = g2 + gc
    # D from a, so the numerator and the denominator share the rounding of a
    d = delta * delta + (g1 + a) * (g1 + a)
    with _mean_n_guard(mean_n):
        n_2 = g1 * g2 / d * mean_n
        return OutputReport.from_channel_numbers(
            [(delta * delta + a * a) / d * mean_n, g1 * g1 / d * mean_n, n_2, n_2],
            n_in=mean_n)


def mean_output_two(params: RouterParams, mean_n: float, delta: float, phi: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1 and 2.

    phi is the phase of the port-2 drive relative to port 1, i.e. input
    amplitudes (alpha, alpha e^{i phi}). Writing a = g2 + gamma_c and
    D = delta^2 + (g1 + g2 + gamma_c)^2:

      N_r1 = [1 - 2((1+cos phi) g1 a + g1 delta sin phi)/D] mean_n
      N_l1 = [1 - 2((1+cos phi) g1 a - g1 delta sin phi)/D] mean_n
      N_r2 = N_l2 = 2 (1+cos phi) g1 g2 / D mean_n

    2*pi-periodic in phi; the (1+cos phi) factor kills the waveguide-2
    output identically at phi = pi regardless of the other parameters,
    gamma_c included.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta, phi=phi)
    _require_mean_n(mean_n)
    delta, g1, g2, gc = _unit_scaled(delta, params.gamma1, params.gamma2, params.gamma_c)
    a = g2 + gc
    d = delta * delta + (g1 + a) * (g1 + a)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    # interference of the two drives through the cavity, seen by guides 1 and 2
    cross1 = (1.0 + cos_phi) * g1 * a
    cross2 = (1.0 + cos_phi) * g1 * g2
    tilt = g1 * delta * sin_phi
    with _mean_n_guard(mean_n):
        n_2 = 2.0 * cross2 / d * mean_n
        return OutputReport.from_channel_numbers(
            [(1.0 - 2.0 * (cross1 + tilt) / d) * mean_n,
             (1.0 - 2.0 * (cross1 - tilt) / d) * mean_n, n_2, n_2],
            n_in=2.0 * mean_n)


def two_port_reduction(gamma1: float, mean_n: float, delta: float, phi: float) -> tuple[float, float]:
    """(N_r1, N_l1) for the gamma2 = 0 two-port router with drives on ports 1 and 2.

    N_r1 = (delta^2 + gamma1^2 - 2 gamma1 delta sin phi) / (delta^2 + gamma1^2),
    N_l1 the same with +sin phi; each times mean_n. At |delta| = gamma1 the
    swing covers the full range 0 .. 2 mean_n.
    """
    validate(RouterParams(gamma1=gamma1, gamma2=0.0))
    require_finite(mean_n=mean_n, delta=delta, phi=phi)
    _require_mean_n(mean_n)
    delta, gamma1 = _unit_scaled(delta, gamma1)
    d = delta * delta + gamma1 * gamma1
    swing = 2.0 * gamma1 * delta * np.sin(phi)
    with _mean_n_guard(mean_n):
        n_r1, n_l1 = (d - swing) / d * mean_n, (d + swing) / d * mean_n
    require_finite(N_r1=n_r1, N_l1=n_l1)
    return n_r1, n_l1


def mean_output_three(params: RouterParams, mean_n: float, delta: float,
                      theta: float, theta_prime: float) -> OutputReport:
    """Mean output numbers for equal drives on input ports 1, 3 and 4.

    theta and theta_prime are the phases of the port-3 and port-4 drives
    relative to port 1: input amplitudes (alpha, 0, alpha e^{i theta},
    alpha e^{i theta'}). Writing s = sqrt(g1 g2), a = g2 + gamma_c,
    b = g1 + gamma_c and D = delta^2 + (g1 + g2 + gamma_c)^2:

      N_r1 = [delta^2 + a^2 + 2 g1 g2 - 2 delta s (sin th + sin th')
              - 2 s a (cos th + cos th') + 2 cos(th - th') g1 g2] / D
      N_l1 = [g1^2 + 2 (1 + cos(th - th')) g1 g2
              + 2 (cos th + cos th') g1 s] / D
      N_r2 = [D - g2 (g1 + 2 gamma_c) + 2 sin th s delta
              + 2 sin(th - th') g2 delta - 2 cos th b s
              + 2 cos th' g2 s - 2 cos(th - th') b g2] / D
      N_l2 = N_r2 with th <-> th' swapped,

    each times mean_n.
    """
    validate(params)
    require_finite(mean_n=mean_n, delta=delta, theta=theta, theta_prime=theta_prime)
    _require_mean_n(mean_n)
    delta, g1, g2, gc = _unit_scaled(delta, params.gamma1, params.gamma2, params.gamma_c)
    a, b = g2 + gc, g1 + gc
    s = np.sqrt(g1 * g2)
    d = delta * delta + (g1 + a) * (g1 + a)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(theta_prime), np.sin(theta_prime)
    cd, sd = np.cos(theta - theta_prime), np.sin(theta - theta_prime)

    with _mean_n_guard(mean_n):
        n_r1 = (delta * delta + a * a + 2.0 * g1 * g2
                - 2.0 * delta * s * (st + sp)
                - 2.0 * s * a * (ct + cp)
                + 2.0 * cd * g1 * g2) / d * mean_n
        n_l1 = (g1 * g1 + 2.0 * (1.0 + cd) * g1 * g2
                + 2.0 * (ct + cp) * g1 * s) / d * mean_n
        n_r2 = (d - g2 * (g1 + 2.0 * gc)
                + 2.0 * st * s * delta + 2.0 * sd * g2 * delta
                - 2.0 * ct * b * s + 2.0 * cp * g2 * s
                - 2.0 * cd * b * g2) / d * mean_n
        n_l2 = (d - g2 * (g1 + 2.0 * gc)
                + 2.0 * sp * s * delta - 2.0 * sd * g2 * delta
                - 2.0 * cp * b * s + 2.0 * ct * g2 * s
                - 2.0 * cd * b * g2) / d * mean_n

        return OutputReport.from_channel_numbers([n_r1, n_l1, n_r2, n_l2], n_in=3.0 * mean_n)
