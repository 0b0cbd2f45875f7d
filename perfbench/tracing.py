"""Spans around photon_router's public functions, recorded from outside the program.

Tracer.install() replaces each public function by a timing wrapper in the
namespace its callers look it up in (photon_router.cli for the CLI's calls,
photon_router.wavepacket for the quadrature's calls to `scatter`, and so on),
and OutputReport.from_channel_numbers on its class. uninstall() puts the
originals back. A span is (id, parent, operation, layer, name, start, end,
error, count, tag); spans stay in memory until write().

Calls made on the CLI's sweep threads have no span of their own thread to
nest in; they are attributed to the CLI call running on the main thread.
A span's self time is its duration minus the union of its children's
intervals, so overlapping children on two threads are not counted twice.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from photon_router import cli, oracle, scattering, verify, wavepacket
from photon_router.core import OutputReport

_SCATTERING = ("mean_output_single", "mean_output_two", "mean_output_three",
               "report_from_scatter", "scatter", "cavity_amplitude", "two_port_reduction")
_ORACLE = ("default_grid", "integrate_cavity", "output_flux", "time_domain_report")

# (namespace, attribute) for every public function the program looks up there
_PATCHES = (
    [(cli, "main")]
    + [(cli, n) for n in ("mean_output_single", "mean_output_two", "mean_output_three",
                          "report_from_scatter", "packet_output_numbers",
                          "default_grid", "integrate_cavity", "run_suites")]
    + [(scattering, "scatter"), (scattering, "cavity_amplitude")]
    + [(wavepacket, "scatter"), (wavepacket, "packet_output_numbers")]
    + [(oracle, n) for n in ("default_grid", "integrate_cavity", "output_flux",
                             "time_domain_report")]
    + [(verify, n) for n in _SCATTERING + ("packet_output_numbers", "integrate_cavity",
                                           "time_domain_report")]
)

MIB = float(1 << 20)


def _layer(name: str) -> str:
    if name == "main":
        return "cli"
    if name == "from_channel_numbers":
        return "core"
    if name in _SCATTERING:
        return "scattering"
    if name == "packet_output_numbers":
        return "wavepacket"
    if name in _ORACLE:
        return "oracle"
    return "verify"


def _count(name: str, args, result):
    """(count, tag) recorded with a span: points, steps or checks; suite names."""
    if name == "scatter":
        return int(np.size(result.r1)), None
    if name == "cavity_amplitude":
        return int(np.size(result)), None
    if name in _SCATTERING:
        return 1, None
    if name == "integrate_cavity":
        return len(result) - 1, None
    if name == "run_suites":
        names = args[0] if args else verify.SUITE_NAMES
        return len(result), ",".join(names)
    return 0, None


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    error: str | None
    count: int
    tag: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._local = threading.local()
        self._root: int | None = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._saved: list = []

    def _wrap(self, fn):
        name = fn.__name__
        layer = _layer(name)
        main_ident = threading.main_thread().ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            on_main = threading.get_ident() == main_ident
            parent = stack[-1] if stack else (None if on_main else self._root)
            with self._id_lock:
                self._next_id += 1
                sid = self._next_id
            if on_main and not stack:
                self._root = sid
            stack.append(sid)
            error, result = "interrupted", None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                error = None
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                count, tag = (0, None) if error else _count(name, args, result)
                self.spans.append(Span(sid, parent, self.op_id, layer, name, start, end,
                                       error, count, tag))

        return traced

    def install(self) -> None:
        for ns, attr in _PATCHES:
            original = getattr(ns, attr)
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self._wrap(original))
        original = OutputReport.__dict__["from_channel_numbers"]
        self._saved.append((OutputReport, "from_channel_numbers", original))
        OutputReport.from_channel_numbers = classmethod(self._wrap(original.__func__))

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,layer,name,start_ns,end_ns,error,count,tag\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")

    def report(self, passes: list[dict], cli_counts: dict) -> dict:
        """Per-layer metrics of one traced pass (counts) or their median (times)."""
        ops = len(passes[0]["op_ms"])
        per_pass = defaultdict(list)
        for s in self.spans:
            per_pass[s.op // ops].append(s)
        rows = [layer_metrics(per_pass[i]) for i, p in enumerate(passes) if p["traced"]]
        out = {}
        for key in rows[0]:
            values = [r[key] for r in rows]
            if key in COUNTS:
                if len(set(values)) != 1:
                    raise RuntimeError(f"{key} differs between traced passes: {values}")
                out[key] = values[0]
            else:
                out[key] = statistics.median(values)
        out.update(cli_counts)
        traced = statistics.median(sum(p["op_ms"]) for p in passes if p["traced"])
        plain = statistics.median(sum(p["op_ms"]) for p in passes if not p["traced"])
        out["trace.overhead_ms"] = traced - plain
        out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        return out


COUNTS = ("cli.calls", "core.reports", "scattering.calls", "scattering.points",
          "wavepacket.calls", "wavepacket.failed", "wavepacket.freq_points",
          "oracle.calls", "oracle.rk4_steps", "verify.checks")


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0, span.start_ns
    for c in sorted(children, key=lambda c: c.start_ns):
        lo, hi = max(c.start_ns, reach), min(c.end_ns, span.end_ns)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and self times (ms) of one pass's spans."""
    children = defaultdict(list)
    layer_of = {}
    for s in spans:
        layer_of[s.sid] = s.layer
        if s.parent is not None:
            children[s.parent].append(s)
    self_ns = {s.sid: s.end_ns - s.start_ns - _covered_ns(s, children[s.sid])
               for s in spans}

    def busy_ms(layer):
        return sum(self_ns[s.sid] for s in spans if s.layer == layer) / 1e6

    def outermost(layer):
        return [s for s in spans if s.layer == layer and layer_of.get(s.parent) != layer]

    m = {"cli.calls": len(outermost("cli")), "cli.self_ms": busy_ms("cli"),
         "core.reports": sum(s.layer == "core" for s in spans),
         "core.busy_ms": busy_ms("core")}

    top = outermost("scattering")
    m["scattering.calls"] = len(top)
    m["scattering.points"] = sum(s.count for s in top)
    m["scattering.busy_ms"] = busy_ms("scattering")
    m["scattering.us_per_point"] = (1e3 * m["scattering.busy_ms"] / m["scattering.points"]
                                    if m["scattering.points"] else 0.0)

    evaluated = useful = 0
    packets = [s for s in spans if s.name == "packet_output_numbers"]
    for s in packets:
        nodes = [c.count for c in sorted(children[s.sid], key=lambda c: c.start_ns)
                 if c.name == "scatter"]
        evaluated += sum(nodes)
        # the report is built from the next-to-last evaluation; the last one
        # is the step-halving check that accepted it
        if s.error is None and len(nodes) >= 2:
            useful += nodes[-2]
    m["wavepacket.calls"] = len(packets)
    m["wavepacket.failed"] = sum(s.error is not None for s in packets)
    m["wavepacket.freq_points"] = evaluated
    m["wavepacket.useful_ratio"] = useful / evaluated if evaluated else 0.0
    m["wavepacket.busy_ms"] = busy_ms("wavepacket")

    rk4 = [s for s in spans if s.name == "integrate_cavity" and s.error is None]
    steps = sum(s.count for s in rk4)
    m["oracle.calls"] = len(outermost("oracle"))
    m["oracle.rk4_steps"] = steps
    m["oracle.ns_per_step"] = sum(self_ns[s.sid] for s in rk4) / steps if steps else 0.0
    m["oracle.forcing_mb"] = max((16 * (2 * s.count + 1) / MIB for s in rk4), default=0.0)
    m["oracle.busy_ms"] = busy_ms("oracle")

    suites = [s for s in spans if s.name == "run_suites"]
    m["verify.checks"] = sum(s.count for s in suites)
    for suite in verify.SUITE_NAMES:
        m[f"verify.{suite}_ms"] = sum(s.end_ns - s.start_ns for s in suites
                                      if s.tag == suite) / 1e6
    return m
