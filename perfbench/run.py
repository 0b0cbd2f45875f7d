"""Benchmark of the photon-router simulator: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). It

1. builds the workload's fixed operation list from the seed (workloads.py);
2. times fresh interpreters that import photon_router and its CLI and run
   one small operation of the workload (setup_s, median of several starts);
3. runs the timed process (worker.py), which imports only the program and
   runs whole passes of the list for S seconds;
4. checks every output in a separate process (check.py) against references
   that do not use the program (reference.py);
5. prints one JSON line: correct, attempted, failed and the metrics that
   BENCHMARK.json lists. With --trace 0 these are the end-to-end metrics;
   with --trace 1 the per-layer metrics of a run whose passes alternate
   plain and traced.

Run outputs go to .perfbench_out/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 8  # fresh starts before the timed process, and as many after it


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ROUTER_SIM_THREADS", None)  # the CLI's default thread setting
    # numpy's BLAS would otherwise start a spinning worker thread per CPU; the
    # only extra threads left are those of the CLI's sweep pool
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def _python(args, timeout: float, what: str) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {what} exited {proc.returncode}")
    return proc.stdout


def setup_times(workload: str, starts: int) -> list[float]:
    """Times from spawning a fresh interpreter to the end of its warm-up."""
    probe = [str(HERE / "worker.py"), "probe", workload]
    times = []
    for _ in range(starts):
        start = time.monotonic()
        done = float(_python(probe, 60, "set-up probe").split()[-1])
        times.append(done - start)
    return times


def end_to_end(results: dict, setup_s: float) -> dict:
    """Metrics of a typical pass: each operation's median over the timed passes.

    Taking the median per operation before summing keeps a slow stretch of
    the machine, which hits a few operations of one pass, out of the totals.
    """
    passes = results["passes"]
    op_ms = [statistics.median(t) for t in zip(*(p["op_ms"] for p in passes))]
    cpu_ms = [statistics.median(t) for t in zip(*(p["cpu_ms"] for p in passes))]
    rows = passes[0]["rows"]
    return {
        "setup_s": setup_s,
        "rows_per_s": 1e3 * rows / sum(op_ms),
        "call_p50_ms": statistics.median(op_ms),
        "cpu_ms_per_row": sum(cpu_ms) / rows,
        "peak_rss_mb": results["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "photon_router" / "__init__.py").is_file():
        print(f"perfbench: no photon_router sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed)
    (outdir / "ops.json").write_text(json.dumps(ops))

    # The first start fills the bytecode and file caches and is not counted.
    # Starts before and after the timed process sample the machine at both
    # ends of the run, so one slow stretch moves the median less.
    setup = [] if args.trace else setup_times(args.workload, SETUP_STARTS + 1)[1:]
    _python([str(HERE / "worker.py"), "run", "--outdir", str(outdir),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + 100, "timed process")
    if not args.trace:
        setup += setup_times(args.workload, SETUP_STARTS)
    verdict = json.loads(_python([str(HERE / "check.py"), str(outdir)], 100,
                                 "checking process").splitlines()[-1])
    for problem in verdict["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)

    results = json.loads((outdir / "results.json").read_text())
    passes = results["passes"]
    if args.trace:
        values, kind = results["layers"], "per_layer"
    else:
        values, kind = end_to_end(results, statistics.median(setup)), "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": results["ops_per_pass"] * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
