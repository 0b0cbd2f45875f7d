"""The benchmark's timed process: runs one workload's operations through photon_router.

It imports the standard library and the program only (and tracing.py when
traced), so its set-up time and peak memory belong to the program.

    python3 perfbench/worker.py probe WORKLOAD
        Import photon_router and its CLI, run one small operation of the
        workload, print time.monotonic() and exit. run.py times fresh
        interpreters with it.

    python3 perfbench/worker.py run --outdir DIR --seconds S --trace 0|1
        Read DIR/ops.json and run whole passes over it until S seconds have
        gone by. The first pass's outputs go to DIR/ref and DIR/ref.json for
        check.py; every later pass must reproduce them byte for byte. Then
        run the CSV-writing commands once more with ROUTER_SIM_THREADS=1.
        Writes DIR/results.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from photon_router import cli, oracle, wavepacket  # noqa: E402
from photon_router.core import Channel, RouterError, RouterParams, WavePacket  # noqa: E402


def probe(workload: str) -> None:
    if workload == "mono_grid":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["single", "--delta", "0.5"])
        if code != 0:
            raise SystemExit(f"warm-up command exited {code}")
    elif workload == "packet_scan":
        wavepacket.packet_output_numbers(RouterParams(), [WavePacket(Channel.R1, 1.0)])
    else:
        oracle.time_domain_report(RouterParams(), [WavePacket(Channel.R1, 1.0, Omega=0.5)])
    print(time.monotonic())


def _csv_rows(text: str) -> int:
    return max(text.count("\n") - 1, 0)


def _verify_rows(text: str) -> int:
    """Check lines of a `route verify` table: header first, blank line after."""
    table = text.split("\n\n", 1)[0].splitlines()
    return max(len(table) - 1, 0)


class Operation:
    """One benchmark operation bound to its inputs, callable with no arguments."""

    def __init__(self, op: dict, filedir: Path):
        self.kind = op["kind"]
        self.files = []
        if self.kind == "cli":
            self.files = [filedir / name for name in (op["out"], op["dump"]) if name]
            self.argv = list(op["argv"])
            if op["out"]:
                self.argv += ["--out", str(filedir / op["out"])]
            if op["dump"]:
                self.argv += ["--dump-trajectory", str(filedir / op["dump"])]
        else:
            self.params = RouterParams(**op["params"])
            self.packets = [WavePacket(Channel[p["channel"]], p["mean_n"], p["omega0"],
                                       p["Omega"], p["phase"]) for p in op["packets"]]

    def clear(self) -> None:
        """Remove the files an earlier pass wrote, so a stale file never passes."""
        for path in self.files:
            path.unlink(missing_ok=True)

    def __call__(self):
        if self.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
            return code, out.getvalue(), err.getvalue()
        route = (wavepacket.packet_output_numbers if self.kind == "packet"
                 else oracle.time_domain_report)
        try:
            return route(self.params, self.packets)
        except RouterError as exc:
            return exc

    def record(self, value) -> dict:
        """What the call delivered: outcome, rows, bytes and a digest of the output."""
        if self.kind == "cli":
            code, out, err = value
            blobs = [out.encode()] + [p.read_bytes() for p in self.files if p.exists()]
            if self.argv[0] == "verify":
                rows = _verify_rows(out)
            else:
                rows = sum(_csv_rows(b.decode()) for b in blobs)
            return {"failed": code != 0, "code": code, "stdout": out, "stderr": err,
                    "rows": rows if code == 0 else 0,
                    "bytes": sum(len(b) for b in blobs),
                    "digest": hashlib.sha256(b"\0".join(blobs)).hexdigest()}
        if isinstance(value, RouterError):
            return {"failed": True, "error": type(value).__name__, "message": str(value),
                    "rows": 0, "bytes": 0, "digest": type(value).__name__}
        report = [value.n_r1, value.n_l1, value.n_r2, value.n_l2,
                  value.n_in, value.n_total, value.loss]
        return {"failed": False, "error": None, "report": report, "rows": 1, "bytes": 0,
                "digest": repr(report)}


def _run_pass(operations, tracer=None, first_id=0) -> dict:
    op_ms, cpu_ms, rows, failed, records = [], [], 0, 0, []
    for i, operation in enumerate(operations):
        if tracer is not None:
            tracer.op_id = first_id + i
        operation.clear()
        c0 = time.process_time()
        t0 = time.perf_counter()
        value = operation()
        t1 = time.perf_counter()
        c1 = time.process_time()
        rec = operation.record(value)
        op_ms.append(1e3 * (t1 - t0))
        cpu_ms.append(1e3 * (c1 - c0))
        rows += rec["rows"]
        failed += rec["failed"]
        records.append(rec)
    return {"op_ms": op_ms, "cpu_ms": cpu_ms, "rows": rows, "failed": failed,
            "records": records}


def run(outdir: Path, seconds: float, trace: bool) -> None:
    ops = json.loads((outdir / "ops.json").read_text())
    refdir, timeddir, t1dir = outdir / "ref", outdir / "timed", outdir / "threads1"
    for d in (refdir, timeddir, t1dir):
        d.mkdir(parents=True, exist_ok=True)

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    # the first pass writes where check.py reads; later passes must match it
    first = [Operation(op, refdir) for op in ops]
    later = [Operation(op, timeddir) for op in ops]
    passes, mismatches, ref = [], [], None
    start = time.perf_counter()
    # traced runs alternate plain and traced passes and need one of each
    least = 2 if trace else 1
    while len(passes) < least or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            p = _run_pass(later if passes else first, tracer if traced else None,
                          len(passes) * len(ops))
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        records = p.pop("records")
        if ref is None:
            ref = records
        mismatches += [f"pass {len(passes) + 1}, operation {i}: output differs from pass 1"
                       for i, r in enumerate(records) if r["digest"] != ref[i]["digest"]]
        passes.append(p)
    (outdir / "ref.json").write_text(json.dumps(ref))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    os.environ["ROUTER_SIM_THREADS"] = "1"
    try:
        for i, op in enumerate(ops):
            if op["kind"] == "cli" and (op["out"] or op["dump"]):
                operation = Operation(op, t1dir)
                if operation.record(operation())["digest"] != ref[i]["digest"]:
                    mismatches.append(
                        f"operation {i}: output differs with ROUTER_SIM_THREADS=1")
    finally:
        del os.environ["ROUTER_SIM_THREADS"]

    results = {"ops_per_pass": len(ops), "passes": passes, "peak_rss_mb": peak_rss_mb,
               "mismatches": mismatches, "layers": None}
    if tracer is not None:
        cli_counts = {"cli.rows": sum(r["rows"] for op, r in zip(ops, ref)
                                      if op["kind"] == "cli"),
                      "cli.bytes_written": sum(r["bytes"] for op, r in zip(ops, ref)
                                               if op["kind"] == "cli")}
        results["layers"] = tracer.report(passes, cli_counts)
        tracer.write(outdir / "spans.csv")
    (outdir / "results.json").write_text(json.dumps(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("workload")
    p = sub.add_parser("run")
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        probe(args.workload)
    else:
        run(args.outdir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
