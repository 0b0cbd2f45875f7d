#!/usr/bin/env python3
"""Time photon_router layer by layer, in-process, and write the numbers as JSON.

    PYTHONPATH=src python scripts/bench_layers.py [--out FILE]
        Time the photon_router found on the import path and print (or
        write) one JSON object: the machine, the median time per layer
        (`layers_ms`) and the minor page faults per call (`minflt_per_call`).

    python scripts/bench_layers.py --base BASE_SRC [--rounds N] [--out FILE]
        Compare the package under BASE_SRC (the `src` directory of another
        checkout, such as a parent commit) with this checkout's `src`. Each
        round times both in fresh interpreters, alternating which goes
        first. Writes, per layer, the median over rounds of each side's time
        and faults per call, the head/base time ratio, and the rounds the
        head was faster in.

The layers: one closed-form point, `scatter` on one point and on 10 001
detunings, one two-packet quadrature, one two-packet quadrature at
Omega = 0.001 and cavity detuning 5 up to its QuadratureUnderResolved,
one `time_domain_report` at Omega = 0.3 (16 600 RK4 steps, which the
oracle solves in 3 blocks of up to 2^13) and one at Omega = 0.01 (434 200
steps, 54 blocks), each `verify` suite, and through the CLI the
101 x 101 `three` grid, the 201-point packet phase sweep (one quadrature
for all phases), the 61-point packet detuning sweep (one quadrature per
point), the --dump-trajectory point and one point command. `scatter` takes its
amplitudes as one complex (..., 4) array in CHANNELS order. Times are
medians of repeated calls after one warm-up call. Beside each time,
`minflt_per_call` records the minor page faults per call, from the
process's `ru_minflt` over the timed calls.

The layers run in one process in the order above, so a layer's time and
faults depend on what earlier layers freed: glibc raises its mmap threshold
to the size of a freed mmapped block, and its trim threshold to twice that,
and below them a call reuses heap pages instead of faulting in fresh ones.
Compare a layer across trees, not across positions. Both modes run with OPENBLAS_NUM_THREADS=1: without
it, a 10 001-point `scatter` sometimes took 8 ms instead of 0.5 ms on a
2-CPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HEAD_SRC = Path(__file__).resolve().parent.parent / "src"
TWO_PI = "6.283185307179586"


def _median_time(fn, seconds: float, max_calls: int) -> tuple[float, float]:
    """(median seconds per call, minor page faults per call) of fn() over up
    to max_calls calls or `seconds`, after one warm-up call."""
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    deadline = time.perf_counter() + seconds
    while len(times) < max_calls and (len(times) < 5 or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return statistics.median(times), faults / len(times)


def _quiet(fn):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            fn()
    return call


def layer_times(tmp: str) -> dict:
    """{"layers_ms": median time of each layer in ms, "minflt_per_call": its
    minor page faults per call} for the photon_router on sys.path.

    The CLI layers write their CSV files into the directory `tmp`.
    """
    import numpy as np

    from photon_router import cli, verify
    from photon_router.core import Channel, QuadratureUnderResolved, RouterParams, WavePacket
    from photon_router.oracle import time_domain_report
    from photon_router.scattering import mean_output_two, scatter
    from photon_router.wavepacket import packet_output_numbers

    params = RouterParams(gamma2=0.7, gamma_c=0.1)
    amps = np.array([1.0, 1j, 0.0, 0.0])
    deltas = np.linspace(-5.0, 5.0, 10001)
    packets = [WavePacket(Channel.R1, 1.0, Omega=0.3),
               WavePacket(Channel.L1, 1.0, Omega=0.3, phase=1.0)]
    narrow = [WavePacket(Channel.R1, 1.0, Omega=0.001),
              WavePacket(Channel.L1, 1.0, Omega=0.001, phase=1.0)]
    slow = [WavePacket(Channel.R1, 1.0, Omega=0.01),
            WavePacket(Channel.L1, 1.0, Omega=0.01, phase=1.0)]

    def under_resolved():
        with contextlib.suppress(QuadratureUnderResolved):
            packet_output_numbers(RouterParams(omega_c=5.0), narrow)

    grid = ["sweep", "--case", "three", "--var", "theta", "--start", "0", "--stop", TWO_PI,
            "--count", "101", "--var2", "theta_prime", "--start2", "0", "--stop2", TWO_PI,
            "--count2", "101", "--out", os.path.join(tmp, "grid.csv")]
    phase_sweep = ["sweep", "--case", "packet", "--gamma-c", "0.1", "--var", "phi",
                   "--start", "0", "--stop", TWO_PI, "--count", "201",
                   "--out", os.path.join(tmp, "phase.csv")]
    # one quadrature per point: each point has its own detuning
    detuning_sweep = ["sweep", "--case", "packet", "--phi", "1.0", "--var", "delta",
                      "--start", "-3", "--stop", "3", "--count", "61",
                      "--out", os.path.join(tmp, "detuning.csv")]
    dump = ["packet", "--gamma-c", "0.1", "--phi", "1.5707963267948966",
            "--dump-trajectory", os.path.join(tmp, "traj.csv"),
            "--out", os.path.join(tmp, "row.csv")]
    point = ["two", "--gamma2", "0.7", "--gamma-c", "0.1", "--delta", "0.3", "--phi", "1.1"]

    # (name, call, seconds, max calls)
    layers = [
        ("closed_form_point", lambda: mean_output_two(params, 1.0, 0.3, 1.1), 0.5, 20000),
        ("scatter_scalar", lambda: scatter(params, amps, 0.3), 0.5, 20000),
        ("scatter_10001_points", lambda: scatter(params, amps, deltas), 0.5, 2000),
        ("packet_output_numbers", lambda: packet_output_numbers(params, packets), 1.0, 500),
        ("packet_under_resolved", under_resolved, 1.0, 200),
        ("time_domain_report", lambda: time_domain_report(params, packets), 1.0, 200),
        ("time_domain_report_omega_0.01", lambda: time_domain_report(params, slow), 2.0, 30),
    ]
    layers += [(f"verify_{name}", _quiet(lambda name=name: verify.run_suites((name,))), 2.0, 50)
               for name in verify.SUITE_NAMES]
    layers += [
        ("cli_three_101x101", lambda: cli.main(grid), 2.0, 50),
        ("packet_sweep_phase_201", lambda: cli.main(phase_sweep), 2.0, 50),
        ("packet_sweep_detuning_61", lambda: cli.main(detuning_sweep), 2.0, 50),
        ("cli_trajectory_dump", lambda: cli.main(dump), 2.0, 50),
        ("cli_point_command", _quiet(lambda: cli.main(point)), 1.0, 5000),
    ]
    result = {"layers_ms": {}, "minflt_per_call": {}}
    for name, fn, seconds, calls in layers:
        median, faults = _median_time(fn, seconds, calls)
        result["layers_ms"][name] = 1e3 * median
        result["minflt_per_call"][name] = faults
    return result


def machine() -> dict:
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def compare(base: Path, rounds: int) -> dict:
    runs = {"base": [], "head": []}
    for i in range(rounds):
        order = [("base", base), ("head", HEAD_SRC)]
        for side, src in (order if i % 2 == 0 else order[::-1]):
            runs[side].append(_child(src))
    layers = {}
    for name in runs["head"][0]["layers_ms"]:
        base_ms = [r["layers_ms"][name] for r in runs["base"]]
        head_ms = [r["layers_ms"][name] for r in runs["head"]]
        layers[name] = {
            "base_ms": statistics.median(base_ms), "head_ms": statistics.median(head_ms),
            "head_over_base": statistics.median(head_ms) / statistics.median(base_ms),
            "head_faster_rounds": sum(h < b for h, b in zip(head_ms, base_ms)),
            "base_minflt_per_call": statistics.median(
                r["minflt_per_call"][name] for r in runs["base"]),
            "head_minflt_per_call": statistics.median(
                r["minflt_per_call"][name] for r in runs["head"]),
        }
    return {"machine": machine(), "rounds": rounds, "layers": layers}


def main() -> None:
    # OpenBLAS reads this when numpy is first imported, which happens only
    # inside the functions below; the --base children inherit it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file (default stdout)")
    args = parser.parse_args()
    if args.base is None:
        with tempfile.TemporaryDirectory() as tmp:
            result = {"machine": machine(), **layer_times(tmp)}
    else:
        result = compare(args.base.resolve(), args.rounds)
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
