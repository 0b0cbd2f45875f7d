"""Four-port photon router simulator.

A single-mode cavity side-coupled to two waveguides routes coherent light
between four ports. This package computes the mean output-photon numbers on
every port: closed forms for the monochromatic one-, two-, and three-input
configurations, a general monochromatic scattering map, frequency-domain
quadrature for Gaussian wave packets with intrinsic cavity decay, and an
independent time-domain integrator used to cross-validate all of it.
"""

from .core import (
    CHANNELS,
    Channel,
    GridTooCoarse,
    GridTooLarge,
    NegativeRate,
    NonFinite,
    NonPositiveGamma1,
    OutputReport,
    ParameterError,
    PulseNotContained,
    QuadratureUnderResolved,
    RouterError,
    RouterParams,
    WavePacket,
    channel_of_input_port,
    port_of_output_channel,
    shared_packet_frame,
    validate,
)
from .scattering import (
    cavity_amplitude,
    mean_output_single,
    mean_output_three,
    mean_output_two,
    report_from_scatter,
    scatter,
    two_port_reduction,
)
from .wavepacket import gaussian_spectrum, packet_output_numbers
from .oracle import (
    TimeGrid,
    default_grid,
    integrate_cavity,
    time_domain_report,
    time_pulse,
)
from .verify import CheckResult, SUITE_NAMES, format_table, run_suites

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "Channel",
    "CheckResult",
    "GridTooCoarse",
    "GridTooLarge",
    "NegativeRate",
    "NonFinite",
    "NonPositiveGamma1",
    "OutputReport",
    "ParameterError",
    "PulseNotContained",
    "QuadratureUnderResolved",
    "RouterError",
    "RouterParams",
    "SUITE_NAMES",
    "TimeGrid",
    "WavePacket",
    "cavity_amplitude",
    "channel_of_input_port",
    "default_grid",
    "format_table",
    "gaussian_spectrum",
    "integrate_cavity",
    "mean_output_single",
    "mean_output_three",
    "mean_output_two",
    "packet_output_numbers",
    "port_of_output_channel",
    "report_from_scatter",
    "run_suites",
    "scatter",
    "shared_packet_frame",
    "time_domain_report",
    "time_pulse",
    "two_port_reduction",
    "validate",
    "__version__",
]
