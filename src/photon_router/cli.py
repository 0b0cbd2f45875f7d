"""Command-line front end for the router simulator.

Subcommands: `single`, `two`, `three` evaluate monochromatic coherent
inputs on ports 1, 1+2, or 1+3+4 through the closed forms, which cover
every gamma_c >= 0; `packet` routes two Gaussian packets on ports 1 and 2
with a relative phase; `sweep` grids one or two scenario variables;
`verify` runs the self-validation suites.

A monochromatic sweep is one call of the closed form on arrays, rates
included; a point command is the same call on scalars, which gives the same
bits as the matching sweep element. A packet sweep calls the quadrature once
per distinct (gamma2, gamma_c, delta, Omega), with the phi values of those
points as one array (in blocks of 8192), since its line moments do not depend
on phi; each row again has the bits of the matching point command.

All data commands emit CSV (header always present) to --out or stdout
(`--out -` is stdout). Floats are written as shortest round-trip decimals,
the bytes of `repr`, so identical invocations produce identical bytes.
Sweep and point rows and the --dump-trajectory file come from one emitter.
It writes a block of lines at a time: it formats each distinct float of the
block once (a swept axis value repeats on many lines) with numpy integer
arithmetic (`_shortest`), and lays the lines out as the rows of one byte
matrix. A block of fewer than _KERNEL_LINES lines, as a point command
writes, formats its floats by `repr` instead. No field ever needs CSV
quoting: fields are case names, shortest-repr floats and empty strings,
none holding a comma, quote or newline.

A --config file with key=value lines (# comments allowed) supplies
scenario values; command-line flags win over the file, the file wins over
built-in defaults.

Exit codes: 0 success, 2 argument or validation error (one-line message on
stderr; non-finite inputs, results that overflow and sweep grids of more
than 1e6 points included, the last before anything is allocated), 3 when a
result would be numerically under-resolved; `verify` returns 1 if any suite
fails, and every command 1 when the reader closes stdout before the output
ends.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _shortest
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
from .oracle import default_grid, integrate_cavity
from .scattering import (
    mean_output_single,
    mean_output_three,
    mean_output_two,
    report_from_scatter,  # unused here; perfbench/tracing.py patches it by this name
)
from .verify import SUITE_NAMES, format_table, run_suites
from .wavepacket import packet_output_numbers

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
# rows of the numbers array an evaluation returns, the last CSV columns
_RESULTS = ("N_r1", "N_l1", "N_r2", "N_l2", "N_total", "loss")
# phi values per packet call: its arrays, about 135 bytes per value, stay
# below the quadrature's own rows (1.5 MB at most)
_PHI_BLOCK = 8192
# lines formatted per block, which bounds the memory of their byte matrices
# and of _shortest.chars' integer arrays (a peak of about 2 MB for the
# dump's 2048 x 4 values); 1024-line blocks cost the 101 x 101 `three` grid
# about 15% more time, 512-line ones the dump about 15% more
_CHUNK = 2048
# blocks of fewer lines are formatted value by value (see _lines): on lines
# of seven floats, as a one-variable sweep writes, map(repr) took about 4 us
# a line and _shortest.chars about 190 us a block plus 1.7 us a line, and the
# two crossed near 90 lines
_KERNEL_LINES = 96
# _FILLED[n] marks the first n of a value's WIDTH bytes, a text of length n
_FILLED = np.arange(_shortest.WIDTH) < np.arange(_shortest.WIDTH + 1)[:, None]


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
        if self.count < 2:
            raise ParameterError(f"sweep count must be >= 2, got {self.count}")

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
        if (size := math.prod(ax.count for ax in self.axes)) > 10 ** 6:
            raise ParameterError(f"sweep grids may hold at most 1e6 points, got {size}")

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
            out[key] = float(value)
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


def _report_values(rep: OutputReport) -> tuple:
    return (rep.n_r1, rep.n_l1, rep.n_r2, rep.n_l2, rep.n_total, rep.loss)


def _mono_report(case: str, params: RouterParams, n: float, at: dict) -> OutputReport:
    """One report over the points `at` (delta and phase values or arrays)."""
    if case == "single":
        return mean_output_single(params, n, at["delta"])
    if case == "two":
        return mean_output_two(params, n, at["delta"], at["phi"])
    return mean_output_three(params, n, at["delta"], at["theta"], at["theta_prime"])


def _mono_numbers(case: str, scn: dict, grid: dict, size: int) -> np.ndarray:
    at = {key: grid.get(key, scn[key]) for key in _CASE_VARS[case]}
    params = RouterParams(gamma1=scn["gamma1"], gamma2=at["gamma2"], gamma_c=at["gamma_c"])
    rep = _mono_report(case, params, scn["mean_n"], at)
    numbers = np.empty((len(_RESULTS), size))
    for row, value in zip(numbers, _report_values(rep)):
        row[:] = value  # a scalar result (a point command) fills its row
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


def _packet_numbers(scn: dict, grid: dict, axes: Sequence[SweepAxis]) -> np.ndarray:
    """One packet_output_numbers call per distinct (gamma2, gamma_c, delta,
    Omega) of the grid, in grid order, with the phi values of its points as
    one array (up to _PHI_BLOCK of them): the quadrature's line moments do
    not depend on phi."""
    phis = grid.get("phi")
    index = np.arange(math.prod(ax.count for ax in axes)).reshape([ax.count for ax in axes])
    if phis is not None:
        index = np.moveaxis(index, [ax.variable for ax in axes].index("phi"), -1)
    # grid indices per call, their points differing in phi alone
    groups = [row[i:i + _PHI_BLOCK]
              for row in index.reshape(-1, 1 if phis is None else index.shape[-1])
              for i in range(0, row.size, _PHI_BLOCK)]

    def scenario(first: int, phi) -> tuple[RouterParams, list[WavePacket]]:
        local = dict(scn, phi=phi)
        local.update((key, float(values[first])) for key, values in grid.items()
                     if key != "phi")
        return _packet_scenario(local)

    numbers = np.empty((len(_RESULTS), index.size))
    failed = []
    for points in groups:
        try:
            rep = packet_output_numbers(*scenario(
                points[0], scn["phi"] if phis is None else phis[points]))
        except RouterError:
            if phis is None:
                raise  # one point per call, in grid order
            failed.extend(points.tolist())
            continue
        for row, value in zip(numbers, _report_values(rep)):
            row[points] = value
    # an array call's error names an index of its own array; the failed
    # groups' points, run one at a time in grid order, raise the error of the
    # sweep's lowest failing point, as its point command would
    for i in sorted(failed):
        numbers[:, i] = _report_values(packet_output_numbers(*scenario(i, float(phis[i]))))
    return numbers


def _rows(case: str, scn: dict, grid: dict, numbers: np.ndarray) -> list:
    """Columns of the CSV lines of an evaluated grid, for _emit."""
    def column(key):
        return grid[key] if key in grid else _num(scn[key])

    columns = [case, column("gamma1"), column("gamma2"), column("gamma_c"),
               column("delta")]
    columns += [column(key) if key in _CASE_VARS[case] else "" for key in _PHASES]
    columns += [column("bandwidth") if case == "packet" else "", column("mean_n")]
    return columns + list(numbers)


def _pieces(columns: Sequence[str | np.ndarray]) -> list:
    """The parts of every CSV line of `columns`: the text between two float
    columns (string columns and commas), and each float column as the index
    of its row in the block."""
    pieces, text = [], ""
    for i, col in enumerate(columns):
        sep = "," if i else ""
        if isinstance(col, str):
            text += sep + col
        else:
            pieces += [text + sep, len(pieces) // 2]
            text = ""
    return pieces + [text + "\n"]


def _lines(pieces: list, block: np.ndarray) -> str:
    """The CSV lines of the 2-d float `block`, one line per column of it.

    A block of fewer than _KERNEL_LINES lines, or one holding a NaN or inf
    (which _shortest.chars does not format), formats each value by repr.
    Others format each distinct value once (a swept axis value repeats on
    many lines), told apart by its bits, so 0.0 and -0.0 keep their own
    text, into rows of bytes by _shortest.chars. Each line is then one row of
    a byte matrix: the text pieces broadcast down their columns, each float
    column its value's row, and a mask that drops the padding after each
    value's text.
    """
    if block.shape[1] < _KERNEL_LINES or not np.isfinite(block).all():
        values = iter(block.tolist())
        fields = [map(repr, next(values)) if isinstance(piece, int)
                  else itertools.repeat(piece) for piece in pieces]
        return "".join(map("".join, zip(*fields)))
    bits, where = np.unique(block.view(np.int64), return_inverse=True)
    text, length = _shortest.chars(bits.view(np.float64))
    where = where.reshape(block.shape)
    widths = [_shortest.WIDTH if isinstance(piece, int) else len(piece)
              for piece in pieces]
    matrix = np.empty((block.shape[1], sum(widths)), dtype=np.uint8)
    keep = np.ones(matrix.shape, dtype=bool)
    end = 0
    for piece, width in zip(pieces, widths):
        start, end = end, end + width
        if isinstance(piece, int):
            rows = where[piece]
            matrix[:, start:end] = text.take(rows, axis=0)
            keep[:, start:end] = _FILLED.take(length.take(rows), axis=0)
        else:
            matrix[:, start:end] = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
    return matrix.ravel()[keep.ravel()].tobytes().decode("ascii")


def _emit(out_path: str | None, header: Sequence[str],
          columns: Sequence[str | np.ndarray]) -> None:
    """Write `header` and one CSV line per element of the float arrays among
    `columns` to the file `out_path`, or to stdout when it is None.

    A string column is written as it is on every line; the float arrays are
    of equal length. No field ever needs quoting (case names, shortest-repr
    floats and empty strings), so fields are joined plainly. Each _CHUNK of
    lines is formatted as one string from one block copied out of the
    arrays, which bounds the memory.
    """
    arrays = [col for col in columns if not isinstance(col, str)]
    pieces = _pieces(columns)

    def write(fh):
        fh.write(",".join(header) + "\n")
        for start in range(0, len(arrays[0]), _CHUNK):
            fh.write(_lines(pieces, np.array([a[start:start + _CHUNK] for a in arrays])))

    if out_path is None:
        write(sys.stdout)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}")


def _dump_trajectory(path: str, params: RouterParams,
                     packets: Sequence[WavePacket]) -> None:
    grid = default_grid(params, packets)
    trajectory = integrate_cavity(params, packets, grid)
    # abs(c) ** 2 with the bits of each element's scalar `h ** 2` (the C
    # library's pow): np.square and np.power(h, 2.0) multiply instead and
    # differ from it in the last digit of some values
    abs2 = np.float_power(np.hypot(trajectory.real, trajectory.imag), 2.0)
    _emit(path, ("t", "re_c", "im_c", "abs2_c"),
          [grid.times, trajectory.real, trajectory.imag, abs2])


def _run(args: argparse.Namespace, case: str, axes: Sequence[SweepAxis]) -> int:
    """Evaluate `case` over the grid of `axes` (none: one point) and write the CSV."""
    scn = _merge_scenario(args)
    if case == "packet" and scn["omega0_detuning"] is not None:
        # packet rows report the cavity detuning from the packet centre
        scn["delta"] = scn["omega0_detuning"]
    grid = _grid(axes)
    size = math.prod(ax.count for ax in axes)
    # overflow and invalid operations surface as non-finite numbers, which
    # the reports turn into one NonFinite line instead of numpy warnings
    with np.errstate(all="ignore"):
        if case == "packet":
            numbers = _packet_numbers(scn, grid, axes)
        else:
            numbers = _mono_numbers(case, scn, grid, size)
    if getattr(args, "dump_trajectory", None) is not None:
        _dump_trajectory(args.dump_trajectory, *_packet_scenario(scn))
    out = None if args.out == "-" else args.out
    _emit(out, CSV_HEADER, _rows(case, scn, grid, numbers))
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: Python's recipe for
        # SIGPIPE points stdout at devnull, so that the flush at exit cannot
        # fail again, and exits 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
