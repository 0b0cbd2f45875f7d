"""Command-line front end for the router simulator.

Subcommands: `single`, `two`, `three` evaluate monochromatic coherent
inputs on ports 1, 1+2, or 1+3+4 through the closed forms, which cover
every gamma_c >= 0; `packet` routes two Gaussian packets on ports 1 and 2
with a relative phase; `sweep` grids one or two scenario variables;
`verify` runs the self-validation suites.

A monochromatic sweep is evaluated as one array computation per set of
rates (gamma2, gamma_c), so a grid that sweeps neither is a single call of
the closed form; a point command is a one-point grid on the same path.
Packet sweeps call the quadrature once per point.
ROUTER_SIM_THREADS is still validated (an integer >= 1) but no longer
changes anything: sweeps run on one thread.

All data commands emit CSV (header always present) to --out or stdout.
Floats are written as shortest round-trip decimals so identical
invocations produce identical bytes. A --config file with key=value lines
(# comments allowed) supplies scenario values; command-line flags win over
the file, the file wins over built-in defaults.

Exit codes: 0 success, 2 argument or validation error (one-line message on
stderr; non-finite inputs and results that overflow included), 3 when a
result would be numerically under-resolved; `verify` returns 1 if any
suite fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Channel,
    GridTooCoarse,
    NonFinite,
    OutputReport,
    ParameterError,
    QuadratureUnderResolved,
    RouterError,
    RouterParams,
    WavePacket,
)
from .oracle import default_grid, integrate_cavity, time_pulse
from .scattering import (
    mean_output_single,
    mean_output_three,
    mean_output_two,
    report_from_scatter,  # unused here; perfbench/tracing.py patches it by this name
)
from .verify import SUITE_NAMES, format_table, run_suites
from .wavepacket import QuadratureSpec, packet_output_numbers

CSV_HEADER = ("case", "gamma1", "gamma2", "gamma_c", "delta", "phi", "theta",
              "theta_prime", "Omega", "mean_n", "N_r1", "N_l1", "N_r2", "N_l2",
              "N_total", "loss")

_DEFAULTS: dict = {
    "gamma1": 1.0,
    "gamma2": 1.0,
    "gamma_c": 0.0,
    "delta": 0.0,
    "phi": 0.0,
    "theta": 0.0,
    "theta_prime": 0.0,
    "mean_n": 1.0,
    "omega0_detuning": None,
    "bandwidth": 0.3,
    "points": 4001,
}

_SWEEP_VARS = ("phi", "theta", "theta_prime", "delta", "gamma2", "gamma_c", "Omega")
_CASE_VARS = {
    "single": ("delta", "gamma2", "gamma_c"),
    "two": ("phi", "delta", "gamma2", "gamma_c"),
    "three": ("theta", "theta_prime", "delta", "gamma2", "gamma_c"),
    "packet": ("phi", "delta", "gamma2", "gamma_c", "Omega"),
}
# scenario-dict key a swept variable writes to; identity unless listed
_VAR_KEY = {"Omega": "bandwidth"}
_PHASES = ("phi", "theta", "theta_prime")
# rows of the numbers array an evaluation returns
_RESULTS = ("N_r1", "N_l1", "N_r2", "N_l2", "N_total", "loss", "n_in")
# grid points formatted per batch, which bounds the memory of the row strings
_CHUNK = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep diagnostics to one line and code 2
        raise _UsageError(message)


@dataclass(frozen=True)
class SweepAxis:
    variable: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.variable not in _SWEEP_VARS:
            raise ParameterError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise NonFinite(
                f"sweep bounds must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ParameterError(
                f"sweep start must be < stop, got [{self.start}, {self.stop}]")
        if not 2 <= self.count <= 10 ** 6:
            raise ParameterError(f"sweep count must be in [2, 1e6], got {self.count}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis: SweepAxis
    axis2: SweepAxis | None = None

    def __post_init__(self):
        if self.axis2 is not None and self.axis2.variable == self.axis.variable:
            raise ParameterError(
                f"sweep variables must be distinct, got {self.axis.variable!r} twice")

    @property
    def axes(self) -> tuple[SweepAxis, ...]:
        return (self.axis,) if self.axis2 is None else (self.axis, self.axis2)


def _num(x) -> str:
    return repr(float(x))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"config: {exc}")
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _UsageError(
                f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _DEFAULTS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = int(value) if key == "points" else float(value)
        except ValueError:
            raise _UsageError(
                f"{path}:{lineno}: field {key!r}: cannot parse {value!r}")
    return out


def _merge_scenario(args: argparse.Namespace) -> dict:
    scn = dict(_DEFAULTS)
    if getattr(args, "config", None) is not None:
        scn.update(_load_config(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            scn[key] = value
    for key, value in scn.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFinite(f"{key} must be finite, got {value}")
    return scn


def _grid(axes: Sequence[SweepAxis]) -> dict[str, np.ndarray]:
    """Swept scenario values, one flat array per scenario key, first axis outer."""
    mesh = np.meshgrid(*(ax.values() for ax in axes), indexing="ij")
    return {_VAR_KEY.get(ax.variable, ax.variable): m.ravel()
            for ax, m in zip(axes, mesh)}


def _rate_groups(scn: dict, grid: dict,
                 size: int) -> list[tuple[tuple[float, float], np.ndarray]]:
    """(gamma2, gamma_c) and the indices of the grid points that share them.

    Rates stay scalars, as RouterParams holds them, so each group is one
    array call doing a point command's arithmetic. Groups come in the order
    of their first point, so a rate that fails validation is reported for
    the first such point of the grid.
    """
    if "gamma2" not in grid and "gamma_c" not in grid:
        return [((scn["gamma2"], scn["gamma_c"]), np.arange(size))]
    rates = [np.broadcast_to(grid.get(key, scn[key]), (size,)).tolist()
             for key in ("gamma2", "gamma_c")]
    groups: dict = {}
    for i, key in enumerate(zip(*rates)):
        groups.setdefault(key, []).append(i)
    return [(key, np.array(idx)) for key, idx in groups.items()]


def _report_values(rep: OutputReport) -> tuple:
    return (rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2, rep.n_total, rep.loss, rep.n_in)


def _mono_report(case: str, params: RouterParams, n: float, at: dict) -> OutputReport:
    """One report over the points `at` (delta and phase arrays) of one rate set."""
    if case == "single":
        return mean_output_single(params, n, at["delta"])
    if case == "two":
        return mean_output_two(params, n, at["delta"], at["phi"])
    return mean_output_three(params, n, at["delta"], at["theta"], at["theta_prime"])


def _mono_numbers(case: str, scn: dict, grid: dict, size: int) -> np.ndarray:
    numbers = np.empty((len(_RESULTS), size))
    for (gamma2, gamma_c), idx in _rate_groups(scn, grid, size):
        params = RouterParams(gamma1=scn["gamma1"], gamma2=gamma2, gamma_c=gamma_c)
        at = {key: grid[key][idx] if key in grid else np.full(idx.size, scn[key])
              for key in ("delta",) + _PHASES if key in _CASE_VARS[case]}
        rep = _mono_report(case, params, scn["mean_n"], at)
        for row, value in zip(numbers, _report_values(rep)):
            row[idx] = value
    return numbers


def _packet_scenario(scn: dict) -> tuple[RouterParams, list[WavePacket]]:
    params = RouterParams(gamma1=scn["gamma1"], gamma2=scn["gamma2"],
                          gamma_c=scn["gamma_c"], omega_c=scn["delta"])
    Om = scn["bandwidth"]
    packets = [
        WavePacket(Channel.R1, scn["mean_n"], omega0=0.0, Omega=Om),
        WavePacket(Channel.L1, scn["mean_n"], omega0=0.0, Omega=Om,
                   phase=scn["phi"]),
    ]
    return params, packets


def _packet_numbers(scn: dict, grid: dict, size: int) -> np.ndarray:
    numbers = np.empty((len(_RESULTS), size))
    for i in range(size):
        local = dict(scn)
        local.update((key, float(values[i])) for key, values in grid.items())
        params, packets = _packet_scenario(local)
        rep = packet_output_numbers(params, packets,
                                    QuadratureSpec(points=int(local["points"])))
        numbers[:, i] = _report_values(rep)
    return numbers


def _require_finite(numbers: np.ndarray) -> None:
    bad = ~np.isfinite(numbers)
    if bad.any():
        point = int(bad.any(axis=0).argmax())
        field = int(bad[:, point].argmax())
        raise NonFinite(
            f"{_RESULTS[field]} = {numbers[field, point]} at grid point {point + 1} "
            "is not finite; the inputs overflow double precision")


def _rows(case: str, scn: dict, grid: dict, numbers: np.ndarray) -> Iterator[tuple]:
    """CSV rows of an evaluated grid, formatted one chunk of points at a time."""
    def column(key):
        return grid[key] if key in grid else _num(scn[key])

    columns = [case, column("gamma1"), column("gamma2"), column("gamma_c"),
               column("delta")]
    columns += [column(key) if key in _CASE_VARS[case] else "" for key in _PHASES]
    columns += [column("bandwidth") if case == "packet" else "", column("mean_n")]
    columns += list(numbers[:6])
    size = numbers.shape[1]
    for start in range(0, size, _CHUNK):
        count = min(_CHUNK, size - start)
        yield from zip(*(
            [col] * count if isinstance(col, str)
            else list(map(repr, col[start:start + count].tolist()))
            for col in columns))


def _emit(out_path: str | None, rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)

    if out_path is None or out_path == "-":
        write(sys.stdout)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}")


def _check_thread_setting() -> None:
    """Validate ROUTER_SIM_THREADS, which sweeps accept but no longer use."""
    raw = os.environ.get("ROUTER_SIM_THREADS")
    if raw is None:
        return
    try:
        threads = int(raw)
    except ValueError:
        raise _UsageError(f"ROUTER_SIM_THREADS must be an integer, got {raw!r}")
    if threads < 1:
        raise _UsageError(f"ROUTER_SIM_THREADS must be >= 1, got {threads}")


def _dump_trajectory(path: str, params: RouterParams,
                     packets: Sequence[WavePacket]) -> None:
    grid = default_grid(params, packets)
    drives = [(p.channel, lambda t, _p=p: time_pulse(_p, t)) for p in packets]
    trajectory = integrate_cavity(params, drives, grid)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("t", "re_c", "im_c", "abs2_c"))
            for t, c in zip(grid.times, trajectory):
                writer.writerow((_num(t), _num(c.real), _num(c.imag),
                                 _num(abs(c) ** 2)))
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _run(args: argparse.Namespace, case: str, axes: Sequence[SweepAxis]) -> int:
    """Evaluate `case` over the grid of `axes` (none: one point) and write the CSV."""
    scn = _merge_scenario(args)
    if case == "packet" and scn["omega0_detuning"] is not None:
        # packet rows report the cavity detuning from the packet centre
        scn["delta"] = scn["omega0_detuning"]
    grid = _grid(axes)
    size = math.prod(ax.count for ax in axes)
    # overflow and invalid operations surface as non-finite numbers, which
    # _require_finite turns into one error line instead of numpy warnings
    with np.errstate(all="ignore"):
        if case == "packet":
            numbers = _packet_numbers(scn, grid, size)
        else:
            numbers = _mono_numbers(case, scn, grid, size)
    _require_finite(numbers)
    if getattr(args, "dump_trajectory", None) is not None:
        _dump_trajectory(args.dump_trajectory, *_packet_scenario(scn))
    _emit(args.out, _rows(case, scn, grid, numbers))
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    return _run(args, args.case_name, ())


def _cmd_sweep(args: argparse.Namespace) -> int:
    axis2 = None
    if args.var2 is not None:
        if None in (args.start2, args.stop2, args.count2):
            raise _UsageError("--var2 requires --start2, --stop2 and --count2")
        axis2 = SweepAxis(args.var2, args.start2, args.stop2, args.count2)
    spec = SweepSpec(SweepAxis(args.var, args.start, args.stop, args.count), axis2)
    for ax in spec.axes:
        if ax.variable not in _CASE_VARS[args.case]:
            raise _UsageError(
                f"variable {ax.variable!r} does not apply to case {args.case!r}")
    _check_thread_setting()
    return _run(args, args.case, spec.axes)


def _cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="route",
        description="Mean output-photon numbers of the four-port cavity router "
                    "for coherent inputs (rates in units of gamma1).")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{single,two,three,packet,sweep,verify}")

    def add_scenario(p, phases=(), packet_flags=False):
        p.add_argument("--gamma1", type=float,
                       help="waveguide-1 coupling rate (default 1.0, the unit)")
        p.add_argument("--gamma2", type=float,
                       help="waveguide-2 coupling rate (default 1.0)")
        p.add_argument("--gamma-c", type=float,
                       help="intrinsic cavity decay rate (default 0.0)")
        p.add_argument("--delta", type=float,
                       help="detuning omega_c - omega (default 0.0)")
        p.add_argument("--mean-n", type=float,
                       help="mean photon number per input (default 1.0)")
        for flag in phases:
            p.add_argument(f"--{flag}", type=float,
                           help=f"{flag.replace('-', ' ')} in radians (default 0.0)")
        if packet_flags:
            p.add_argument("--omega0-detuning", type=float,
                           help="packet-center detuning omega_c - omega0 "
                                "(default: --delta)")
            p.add_argument("--bandwidth", type=float,
                           help="packet bandwidth parameter Omega (default 0.3)")
            p.add_argument("--points", type=int,
                           help="quadrature points, odd >= 2001 (default 4001)")
        p.add_argument("--config", help="scenario file with key=value lines")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("single", help="one input on port 1")
    add_scenario(p)
    p.set_defaults(func=_cmd_point, case_name="single")

    p = sub.add_parser("two", help="inputs on ports 1 and 2, phase phi on port 2")
    add_scenario(p, phases=("phi",))
    p.set_defaults(func=_cmd_point, case_name="two")

    p = sub.add_parser("three",
                       help="inputs on ports 1, 3, 4 with phases theta, theta'")
    add_scenario(p, phases=("theta", "theta-prime"))
    p.set_defaults(func=_cmd_point, case_name="three")

    p = sub.add_parser("packet",
                       help="Gaussian packets on ports 1 and 2, phase phi")
    add_scenario(p, phases=("phi",), packet_flags=True)
    p.add_argument("--dump-trajectory", metavar="PATH",
                   help="also write the cavity trajectory CSV (t,re_c,im_c,abs2_c)")
    p.set_defaults(func=_cmd_point, case_name="packet")

    p = sub.add_parser("sweep", help="grid over one or two scenario variables")
    p.add_argument("--case", required=True, choices=("single", "two", "three",
                                                     "packet"))
    p.add_argument("--var", required=True, choices=_SWEEP_VARS)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--var2", choices=_SWEEP_VARS)
    p.add_argument("--start2", type=float)
    p.add_argument("--stop2", type=float)
    p.add_argument("--count2", type=int)
    add_scenario(p, phases=("phi", "theta", "theta-prime"), packet_flags=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the self-validation suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs more than evaluating a point; parse_args
    # returns a fresh Namespace per call, so nothing carries over
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"route: error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureUnderResolved, GridTooCoarse) as exc:
        print(f"route: error: {exc}", file=sys.stderr)
        return 3
    except RouterError as exc:
        print(f"route: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
