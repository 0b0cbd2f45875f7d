#!/usr/bin/env python3
"""Generate the standard characterization scans as CSV files.

Every file is produced through the `route` CLI, so rerunning this script
reproduces the data byte for byte. Pass --outdir to change the target
directory (default: ./results, relative to the current directory).
"""

import argparse
import sys
from pathlib import Path

from photon_router.cli import main as route

TWO_PI = "6.283185307179586"
PI = "3.141592653589793"

# (filename, route arguments); all rates in units of gamma1
SCANS = [
    # stationary response of the symmetric router across detuning
    ("single_detuning_scan.csv",
     ["sweep", "--case", "single", "--var", "delta",
      "--start", "-6", "--stop", "6", "--count", "241"]),
    # absorbed fraction of a resonant single input vs internal decay
    ("single_loss_scan.csv",
     ["sweep", "--case", "single", "--var", "gamma_c",
      "--start", "0", "--stop", "2", "--count", "81"]),
    # phase-controlled routing, symmetric resonant point
    ("two_phase_scan_resonant.csv",
     ["sweep", "--case", "two", "--var", "phi",
      "--start", "0", "--stop", TWO_PI, "--count", "201"]),
    # same scan at an asymmetric, detuned working point
    ("two_phase_scan_detuned.csv",
     ["sweep", "--case", "two", "--gamma2", "0.6", "--delta", "0.5",
      "--var", "phi", "--start", "0", "--stop", TWO_PI, "--count", "201"]),
    # two-port limit: gamma2 = 0, detuning matched to gamma1
    ("two_port_swing.csv",
     ["sweep", "--case", "two", "--gamma2", "0", "--delta", "1",
      "--var", "phi", "--start", "0", "--stop", TWO_PI, "--count", "201"]),
    # three-input phase grid (long format, theta outer, theta' inner)
    ("three_phase_grid.csv",
     ["sweep", "--case", "three", "--var", "theta",
      "--start", "0", "--stop", TWO_PI, "--count", "101",
      "--var2", "theta_prime", "--start2", "0", "--stop2", TWO_PI,
      "--count2", "101"]),
    # Gaussian packets with internal loss: routing vs relative phase
    ("packet_phase_scan.csv",
     ["sweep", "--case", "packet", "--gamma-c", "0.1", "--var", "phi",
      "--start", "0", "--stop", TWO_PI, "--count", "201"]),
    # how finite bandwidth erodes the antisymmetric reflection point
    ("packet_bandwidth_scan.csv",
     ["sweep", "--case", "packet", "--gamma-c", "0.1", "--phi", PI,
      "--var", "Omega", "--start", "0.02", "--stop", "1.0",
      "--count", "50"]),
]


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, argv in SCANS:
        target = outdir / name
        code = route(argv + ["--out", str(target)])
        if code != 0:
            sys.exit(f"scan {name} failed with exit code {code}")
        print(f"wrote {target}")

    # one packet point with the cavity trajectory alongside it
    row = outdir / "packet_point.csv"
    traj = outdir / "cavity_trajectory.csv"
    code = route(["packet", "--gamma-c", "0.1", "--phi", "1.5707963267948966",
                  "--dump-trajectory", str(traj), "--out", str(row)])
    if code != 0:
        sys.exit(f"trajectory dump failed with exit code {code}")
    print(f"wrote {row}")
    print(f"wrote {traj}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    run(parser.parse_args().outdir)
