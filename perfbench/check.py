"""The benchmark's checking process: compares a worker's outputs with reference.py.

    python3 perfbench/check.py DIR

Reads DIR/ops.json, DIR/ref.json (what each operation of the untimed pass
delivered), the CSV files under DIR/ref and DIR/results.json, and prints one
JSON line {"correct": bool, "rows_checked": n, "problems": [...]}. It never
imports photon_router: every expected number is computed here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from reference import ORDER, mono_fluxes, packet_fluxes

HEADER = ["case", "gamma1", "gamma2", "gamma_c", "delta", "phi", "theta", "theta_prime",
          "Omega", "mean_n", "N_r1", "N_l1", "N_r2", "N_l2", "N_total", "loss"]
N_COLS = ["N_r1", "N_l1", "N_r2", "N_l2"]

MONO_TOL = 1e-10          # vs the 4x4 matrix, times n_in
MONO_CONSERVE = 1e-12     # lossless monochromatic rows, times n_in
PACKET_TOL = 1e-5         # quadrature vs the Faddeeva form, times n_in
TIME_DOMAIN_TOL = 1e-4    # RK4 oracle vs the Faddeeva form, times n_in
PACKET_CONSERVE = 1e-6    # lossless packet results, times n_in
RINGDOWN = 1e-8           # |c(t_end)| vs max |c|


class Checker:
    def __init__(self):
        self.problems: list[str] = []
        self.rows = 0

    def fail(self, where: str, what: str) -> None:
        self.problems.append(f"{where}: {what}")

    def csv_rows(self, where: str, text: str, want_rows: int) -> None:
        table = list(csv.reader(io.StringIO(text)))
        if not table or table[0] != HEADER:
            self.fail(where, "missing or wrong CSV header")
            return
        rows = table[1:]
        if len(rows) != want_rows:
            self.fail(where, f"{len(rows)} rows, expected {want_rows}")
        cols = {name: [r[i] for r in rows] for i, name in enumerate(HEADER)}
        for case in sorted(set(cols["case"])):
            pick = [i for i, c in enumerate(cols["case"]) if c == case]
            num = {k: np.array([float(v[i]) if v[i] else math.nan for i in pick])
                   for k, v in cols.items() if k != "case"}
            self.rows += len(pick)
            if case == "packet":
                self.packet_rows(where, num)
            elif case in ("single", "two", "three"):
                self.mono_rows(where, case, num)
            else:
                self.fail(where, f"unknown case {case!r}")

    def totals(self, where: str, num: dict, n_in: np.ndarray, lossless: np.ndarray,
               conserve: float) -> None:
        out = np.stack([num[c] for c in N_COLS], axis=-1)
        if not np.all(np.isfinite(out)) or not np.all(np.isfinite(num["loss"])):
            self.fail(where, "non-finite output")
        summed = num["N_r1"] + num["N_l1"] + num["N_r2"] + num["N_l2"]
        if not np.array_equal(num["N_total"], summed):
            self.fail(where, "N_total differs from the sum of the N_* columns")
        leak = np.abs(num["loss"][lossless]) / n_in[lossless]
        if leak.size and leak.max() > conserve:
            self.fail(where, f"lossless flux not conserved: {leak.max():.3e} of n_in")

    def mono_rows(self, where: str, case: str, num: dict) -> None:
        a = np.sqrt(num["mean_n"])
        zero = np.zeros_like(a)
        if case == "single":
            amps, k = [a, zero, zero, zero], 1
        elif case == "two":
            amps, k = [a, a * np.exp(1j * num["phi"]), zero, zero], 2
        else:
            amps, k = [a, zero, a * np.exp(1j * num["theta"]),
                       a * np.exp(1j * num["theta_prime"])], 3
        n_in = k * num["mean_n"]
        want = mono_fluxes(num["gamma1"], num["gamma2"], num["gamma_c"], num["delta"],
                           np.stack(amps, axis=-1))
        got = np.stack([num[c] for c in N_COLS], axis=-1)
        dev = np.max(np.abs(got - want), axis=-1) / n_in
        if dev.max() > MONO_TOL:
            self.fail(where, f"{case} rows off the 4x4 matrix by {dev.max():.3e} of n_in")
        self.totals(where, num, n_in, num["gamma_c"] == 0.0, MONO_CONSERVE)

    def packet_rows(self, where: str, num: dict) -> None:
        n_in = 2.0 * num["mean_n"]
        worst = 0.0
        for i in range(n_in.size):
            a = math.sqrt(num["mean_n"][i])
            amps = [a, a * np.exp(1j * num["phi"][i]), 0, 0]
            want = packet_fluxes(num["gamma1"][i], num["gamma2"][i], num["gamma_c"][i],
                                 num["delta"][i], num["Omega"][i], amps)
            got = np.array([num[c][i] for c in N_COLS])
            worst = max(worst, float(np.max(np.abs(got - want))) / n_in[i])
        if worst > PACKET_TOL:
            self.fail(where, f"packet rows off the Faddeeva form by {worst:.3e} of n_in")
        self.totals(where, num, n_in, num["gamma_c"] == 0.0, PACKET_CONSERVE)

    def trajectory(self, where: str, text: str) -> None:
        table = list(csv.reader(io.StringIO(text)))
        if not table or table[0] != ["t", "re_c", "im_c", "abs2_c"] or len(table) < 3:
            self.fail(where, "missing or malformed trajectory")
            return
        c = np.array([complex(float(r[1]), float(r[2])) for r in table[1:]])
        self.rows += len(c)
        if c[0] != 0:
            self.fail(where, f"trajectory starts at c = {c[0]}, not 0")
        peak = float(np.max(np.abs(c)))
        if not peak > 0 or abs(c[-1]) >= RINGDOWN * peak:
            self.fail(where, f"trajectory ends at |c| = {abs(c[-1]):.3e}, peak {peak:.3e}")

    def verify_table(self, where: str, text: str) -> None:
        table = text.split("\n\n", 1)[0].splitlines()
        if len(table) < 2 or table[0].split() != ["suite", "check", "max_dev", "tol",
                                                  "status"]:
            self.fail(where, "missing verify table")
            return
        for line in table[1:]:
            self.rows += 1
            if line.split()[-1] != "pass":
                self.fail(where, f"verify check failed: {line}")

    def report(self, where: str, op: dict, report: list, tol: float) -> None:
        amps = np.zeros(4, complex)
        for p in op["packets"]:
            amps[ORDER.index(p["channel"].lower())] = (math.sqrt(p["mean_n"])
                                                       * np.exp(1j * p["phase"]))
        prm = op["params"]
        detuning = prm["omega_c"] - op["packets"][0]["omega0"]
        want = packet_fluxes(prm["gamma1"], prm["gamma2"], prm["gamma_c"], detuning,
                             op["packets"][0]["Omega"], amps)
        got = np.array(report[:4])
        n_in = sum(p["mean_n"] for p in op["packets"])
        n_r1, n_l1, n_r2, n_l2, rep_in, total, loss = report
        self.rows += 1
        dev = float(np.max(np.abs(got - want))) / n_in
        if not dev <= tol:
            self.fail(where, f"{op['kind']} report off the Faddeeva form by {dev:.3e} of n_in")
        if not abs(rep_in - n_in) <= PACKET_CONSERVE * n_in:
            self.fail(where, f"n_in {rep_in} differs from the packets' {n_in}")
        if total != n_r1 + n_l1 + n_r2 + n_l2:
            self.fail(where, "n_total differs from the sum of the channels")
        if prm["gamma_c"] == 0.0 and not abs(loss) <= PACKET_CONSERVE * n_in:
            self.fail(where, f"lossless flux not conserved: loss {loss:.3e}")

    def operation(self, i: int, op: dict, rec: dict, refdir: Path) -> None:
        where = f"operation {i} ({' '.join(op['argv'][:3]) if op['kind'] == 'cli' else op['kind']})"
        if op["expect"] == "exit3":
            if rec.get("code") != 3 or not rec["stderr"].startswith("route: error:"):
                self.fail(where, f"expected exit 3, got {rec.get('code')}")
            return
        if op["expect"] is not None:
            if rec.get("error") != op["expect"]:
                self.fail(where, f"expected {op['expect']}, got {rec.get('error')}")
            return
        if rec["failed"]:
            if op["kind"] == "cli":
                self.fail(where, f"exit {rec['code']}: {rec['stderr'].strip()}")
            else:
                self.fail(where, f"{rec['error']}: {rec['message']}")
            return
        if op["kind"] != "cli":
            tol = PACKET_TOL if op["kind"] == "packet" else TIME_DOMAIN_TOL
            self.report(where, op, rec["report"], tol)
        elif op["argv"][0] == "verify":
            self.verify_table(where, rec["stdout"])
        else:
            text = (refdir / op["out"]).read_text() if op["out"] else rec["stdout"]
            self.csv_rows(where, text, expected_rows(op["argv"]))
            if op["dump"]:
                self.trajectory(where, (refdir / op["dump"]).read_text())


def expected_rows(argv: list[str]) -> int:
    if argv[0] != "sweep":
        return 1
    count = int(argv[argv.index("--count") + 1])
    if "--count2" in argv:
        count *= int(argv[argv.index("--count2") + 1])
    return count


def main(outdir: Path) -> int:
    ops = json.loads((outdir / "ops.json").read_text())
    records = json.loads((outdir / "ref.json").read_text())
    results = json.loads((outdir / "results.json").read_text())
    checker = Checker()
    for i, (op, rec) in enumerate(zip(ops, records)):
        checker.operation(i, op, rec, outdir / "ref")
    checker.problems += results["mismatches"]
    print(json.dumps({"correct": not checker.problems, "rows_checked": checker.rows,
                      "problems": checker.problems[:20]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
