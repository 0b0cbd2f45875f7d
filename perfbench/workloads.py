"""The benchmark's workloads: a fixed list of operations per (workload, seed).

An operation is a JSON-ready dict run by worker.py and checked by check.py:

    {"kind": "cli", "argv": [...], "out": "<file name>" | None,
     "dump": "<file name>" | None, "expect": None | "exit3"}
    {"kind": "packet" | "time_domain", "params": {...}, "packets": [...],
     "expect": None | "QuadratureUnderResolved"}

The seed moves only values that leave an operation's cost class alone, so
the mix, the row count, the failure count and every per-layer count are
the same for every seed. Stdlib only: the timed process never imports it.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
PI = math.pi

def _num(x: float) -> str:
    return repr(float(x))


def _cli(argv, out=None, dump=None, expect=None) -> dict:
    return {"kind": "cli", "argv": list(argv), "out": out, "dump": dump,
            "expect": expect}


def _sweep(name: str, argv) -> dict:
    return _cli(["sweep"] + list(argv), out=name + ".csv")


# The monochromatic sweeps of scripts/run_scans.py, plus a lossy phi x delta grid.
MONO_SWEEPS = [
    _sweep("single_detuning", ["--case", "single", "--var", "delta",
                               "--start", "-6", "--stop", "6", "--count", "241"]),
    _sweep("single_loss", ["--case", "single", "--var", "gamma_c",
                           "--start", "0", "--stop", "2", "--count", "81"]),
    _sweep("two_phase_resonant", ["--case", "two", "--var", "phi", "--start", "0",
                                  "--stop", _num(TWO_PI), "--count", "201"]),
    _sweep("two_phase_detuned", ["--case", "two", "--gamma2", "0.6", "--delta", "0.5",
                                 "--var", "phi", "--start", "0",
                                 "--stop", _num(TWO_PI), "--count", "201"]),
    _sweep("two_port_swing", ["--case", "two", "--gamma2", "0", "--delta", "1",
                              "--var", "phi", "--start", "0",
                              "--stop", _num(TWO_PI), "--count", "201"]),
    _sweep("three_phase_grid", ["--case", "three", "--var", "theta", "--start", "0",
                                "--stop", _num(TWO_PI), "--count", "101",
                                "--var2", "theta_prime", "--start2", "0",
                                "--stop2", _num(TWO_PI), "--count2", "101"]),
    _sweep("two_lossy_grid", ["--case", "two", "--gamma-c", "0.2", "--gamma2", "0.8",
                              "--var", "phi", "--start", "0", "--stop", _num(TWO_PI),
                              "--count", "41", "--var2", "delta", "--start2", "-3",
                              "--stop2", "3", "--count2", "41"]),
]

# The packet sweeps of scripts/run_scans.py, plus a lossless detuning sweep.
PACKET_SWEEPS = [
    _sweep("packet_phase", ["--case", "packet", "--gamma-c", "0.1", "--var", "phi",
                            "--start", "0", "--stop", _num(TWO_PI), "--count", "201"]),
    _sweep("packet_bandwidth", ["--case", "packet", "--gamma-c", "0.1",
                                "--phi", _num(PI), "--var", "Omega", "--start", "0.02",
                                "--stop", "1.0", "--count", "50"]),
    _sweep("packet_detuning", ["--case", "packet", "--phi", "1.0", "--var", "delta",
                               "--start", "-3", "--stop", "3", "--count", "61"]),
]

CHANNEL_NAMES = ("R1", "L1", "R2", "L2")


def _packet_op(kind, params, omega0, Omega, channels, rng, expect=None) -> dict:
    packets = [{"channel": ch, "mean_n": rng.uniform(0.1, 3.0), "omega0": omega0,
                "Omega": Omega, "phase": rng.uniform(0.0, TWO_PI)}
               for ch in channels]
    return {"kind": kind, "params": params, "packets": packets, "expect": expect}


# Two-packet operations at Omega = 0.001 with the cavity line >= 1 away from
# the packet centre. The single contiguous quadrature window undersamples the
# packet there, so each raises QuadratureUnderResolved (the CLI exits 3) until
# that fault is mended. They are the same for every seed.
def _failing_packet_ops() -> list[dict]:
    rng = random.Random("packet_scan:failing")
    ops = []
    for detuning, gamma_c in ((1.0, 0.0), (-1.0, 0.2), (3.0, 0.0), (-3.0, 0.2)):
        params = {"gamma1": 1.0, "gamma2": 1.0, "gamma_c": gamma_c,
                  "omega_c": detuning}
        ops.append(_packet_op("packet", params, 0.0, 0.001, ("R1", "L1"), rng,
                              expect="QuadratureUnderResolved"))
    ops.append(_cli(["packet", "--delta", "5", "--bandwidth", "0.001"], expect="exit3"))
    ops.append(_cli(["packet", "--delta", "-2", "--gamma-c", "0.1",
                     "--bandwidth", "0.001"], expect="exit3"))
    return ops


def mono_grid(rng: random.Random) -> list[dict]:
    # 50 single, 100 two, 50 three point commands: parsing sets their cost,
    # and the median operation falls in the middle of the `two` block.
    ops = list(MONO_SWEEPS)
    for i in range(200):
        case = "single" if i < 50 else "two" if i < 150 else "three"
        argv = [case, "--gamma1", _num(rng.uniform(0.5, 2.0)),
                "--gamma2", _num(rng.uniform(0.0, 2.0)),
                "--delta", _num(rng.uniform(-5.0, 5.0)),
                "--mean-n", _num(rng.uniform(0.1, 3.0))]
        if i % 2:
            argv += ["--gamma-c", _num(rng.uniform(0.0, 0.5))]
        if case == "two":
            argv += ["--phi", _num(rng.uniform(0.0, TWO_PI))]
        elif case == "three":
            argv += ["--theta", _num(rng.uniform(0.0, TWO_PI)),
                     "--theta-prime", _num(rng.uniform(0.0, TWO_PI))]
        ops.append(_cli(argv))
    return ops


def packet_scan(rng: random.Random) -> list[dict]:
    # Library calls with 1-4 packets; each converges at the first step-halving
    # check (4001 + 8001 frequency nodes). Two-packet calls are the majority so
    # that the median operation sits inside their cost class.
    ops = list(PACKET_SWEEPS)
    sizes = [1] * 64 + [2] * 120 + [3] * 28 + [4] * 28
    for i, size in enumerate(sizes):
        params = {"gamma1": rng.uniform(0.5, 2.0), "gamma2": rng.uniform(0.0, 2.0),
                  "gamma_c": 0.0 if i % 2 else rng.uniform(0.0, 0.5)}
        omega0 = rng.uniform(-2.0, 2.0)
        params["omega_c"] = omega0 + rng.uniform(-3.0, 3.0)
        Omega = math.exp(rng.uniform(math.log(0.05), math.log(1.0)))
        channels = rng.sample(CHANNEL_NAMES, size)
        ops.append(_packet_op("packet", params, omega0, Omega, channels, rng))
    return ops + _failing_packet_ops()


# Omega ladder of the time-domain calls over [0.05, 0.5]. With the total
# decay held at 2 and |detuning| <= 3 the RK4 step is 0.01 / 2 for every
# call, so each call's step count depends on its rung alone. Sixteen rungs
# crowd into [0.15, 0.2]: sorted by cost, the pass's median operation falls
# in the middle of that block, away from the verify suites' costs.
def _log_rungs(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


OMEGA_LADDER = tuple(_log_rungs(0.05, 0.14, 7) + _log_rungs(0.15, 0.2, 16)
                     + _log_rungs(0.22, 0.5, 9))
TOTAL_DECAY = 2.0


def oracle_check(rng: random.Random) -> list[dict]:
    ops = [_cli(["verify", "--suite", suite])
           for suite in ("core", "scattering", "wavepacket", "oracle")]
    # the --dump-trajectory point of scripts/run_scans.py
    ops.append(_cli(["packet", "--gamma-c", "0.1", "--phi", _num(PI / 2.0)],
                    out="packet_point.csv", dump="cavity_trajectory.csv"))
    for i, Omega in enumerate(OMEGA_LADDER):
        gamma1 = rng.uniform(0.5, 1.5)
        gamma_c = rng.uniform(0.0, 0.5)
        omega0 = rng.uniform(-2.0, 2.0)
        params = {"gamma1": gamma1, "gamma2": TOTAL_DECAY - gamma1 - gamma_c,
                  "gamma_c": gamma_c, "omega_c": omega0 + rng.uniform(-3.0, 3.0)}
        channels = rng.sample(CHANNEL_NAMES, 1 + i % 4)
        ops.append(_packet_op("time_domain", params, omega0, Omega, channels, rng))
    return ops


_BUILDERS = {"mono_grid": mono_grid, "packet_scan": packet_scan,
             "oracle_check": oracle_check}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass of `workload` for `seed`."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
