"""CLI behaviour: rows, sweeps, config files, exit codes, determinism."""

import csv
import io
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from _reference import cli_rows_loop, csv_text_loop, trajectory_csv_loop
from photon_router import RouterParams, cli, mean_output_two
from photon_router.cli import CSV_HEADER, main

PI = math.pi

HEADER_LINE = ("case,gamma1,gamma2,gamma_c,delta,phi,theta,theta_prime,"
               "Omega,mean_n,N_r1,N_l1,N_r2,N_l2,N_total,loss")


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def rows_of(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


class TestPointCommands:
    def test_header(self, capsys):
        code, out, _ = run_cli(capsys, ["single"])
        assert code == 0
        assert out.splitlines()[0] == HEADER_LINE
        assert ",".join(CSV_HEADER) == HEADER_LINE

    def test_two_antisymmetric(self, capsys):
        code, out, _ = run_cli(capsys, [
            "two", "--gamma2", "1", "--delta", "0",
            "--phi", "3.141592653589793", "--mean-n", "1"])
        assert code == 0
        row = rows_of(out)[0]
        assert row["case"] == "two"
        assert row["N_r1"] == "1.0"
        assert row["N_l1"] == "1.0"
        assert row["N_r2"] == "0.0"
        assert row["N_l2"] == "0.0"
        assert row["phi"] == "3.141592653589793"
        assert row["theta"] == "" and row["theta_prime"] == ""
        assert row["Omega"] == ""

    def test_two_antisymmetric_lossy(self, capsys):
        # the antisymmetric pair leaves the lossy cavity dark: guide 2 gets
        # exactly nothing and nothing is absorbed
        code, out, _ = run_cli(capsys, [
            "two", "--gamma-c", "0.3", "--delta", "0.7",
            "--phi", "3.141592653589793"])
        assert code == 0
        row = rows_of(out)[0]
        assert row["N_r2"] == "0.0"
        assert row["N_l2"] == "0.0"
        assert float(row["loss"]) == pytest.approx(0.0, abs=1e-15)

    def test_single_default_split(self, capsys):
        _, out, _ = run_cli(capsys, ["single"])
        row = rows_of(out)[0]
        for col in ("N_r1", "N_l1", "N_r2", "N_l2"):
            assert float(row[col]) == pytest.approx(0.25, abs=1e-12)
        assert row["loss"] == "0.0"

    def test_lossy_single(self, capsys):
        _, out, _ = run_cli(capsys, ["single", "--gamma-c", "0.5"])
        row = rows_of(out)[0]
        assert float(row["loss"]) > 0.0

    def test_three_fills_thetas(self, capsys):
        _, out, _ = run_cli(capsys, [
            "three", "--theta", "1.5707963267948966", "--theta-prime", "0"])
        row = rows_of(out)[0]
        assert row["phi"] == ""
        assert row["theta"] == "1.5707963267948966"
        assert row["theta_prime"] == "0.0"
        assert float(row["N_l1"]) == pytest.approx(1.25, abs=1e-12)

    def test_packet_row(self, capsys):
        _, out, _ = run_cli(capsys, ["packet", "--phi", "3.141592653589793"])
        row = rows_of(out)[0]
        assert row["Omega"] == "0.3"
        assert row["theta"] == ""
        assert float(row["N_total"]) == pytest.approx(2.0, abs=2e-14)

    def test_far_detuned_passes_through(self, capsys):
        code, out, _ = run_cli(capsys, ["single", "--delta", "1e200"])
        assert code == 0
        assert out.splitlines()[1] == "single,1.0,1.0,0.0,1e+200,,,,,1.0,1.0,0.0,0.0,0.0,1.0,0.0"

    def test_tiny_rates(self, capsys):
        # the closed forms underflowed: a ZeroDivisionError traceback, and a
        # NaN reported as an overflow with exit 2
        code, out, _ = run_cli(capsys, ["single", "--gamma1", "1e-200", "--gamma2", "0"])
        assert code == 0
        assert rows_of(out)[0]["N_l1"] == "1.0"
        code, out, err = run_cli(capsys, ["two", "--gamma1", "1e-170", "--gamma2", "1e-170",
                                          "--phi", "0.3"])
        assert (code, err) == (0, "")
        assert float(rows_of(out)[0]["N_total"]) == 2.0

    def test_consecutive_calls_do_not_share_values(self, capsys):
        run_cli(capsys, ["three", "--theta", "1"])
        _, out, _ = run_cli(capsys, ["three"])
        assert rows_of(out)[0]["theta"] == "0.0"

    def test_total_column_is_exact_sum(self, capsys):
        _, out, _ = run_cli(capsys, ["two", "--phi", "0.7", "--gamma2", "0.6",
                                     "--delta", "0.5"])
        row = rows_of(out)[0]
        total = ((float(row["N_r1"]) + float(row["N_l1"]))
                 + float(row["N_r2"])) + float(row["N_l2"])
        assert float(row["N_total"]) == total


class TestSweep:
    SCAN = ["sweep", "--case", "two", "--gamma2", "0.6", "--delta", "0.5",
            "--var", "phi", "--start", "0", "--stop", "6.283185307179586",
            "--count", "201"]

    def test_row_count_and_values(self, capsys):
        code, out, _ = run_cli(capsys, self.SCAN)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 201
        params = RouterParams(gamma2=0.6)
        for row in rows[::40]:
            want = mean_output_two(params, 1.0, 0.5, float(row["phi"]))
            assert float(row["N_r1"]) == want.n_r1
            assert float(row["N_l2"]) == want.n_l2

    def test_two_variable_ordering(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--case", "three", "--var", "theta",
            "--start", "0", "--stop", "1", "--count", "3",
            "--var2", "theta_prime", "--start2", "0", "--stop2", "2",
            "--count2", "3"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 9
        # first axis is the outer loop
        assert [r["theta"] for r in rows[:3]] == ["0.0", "0.0", "0.0"]
        assert [r["theta_prime"] for r in rows[:3]] == ["0.0", "1.0", "2.0"]
        assert rows[3]["theta"] == "0.5"

    def test_packet_bandwidth_sweep(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--case", "packet", "--var", "Omega",
            "--start", "0.2", "--stop", "0.4", "--count", "3",
            "--phi", "3.141592653589793"])
        assert code == 0
        rows = rows_of(out)
        assert [r["Omega"] for r in rows] == ["0.2", "0.30000000000000004", "0.4"]
        for row in rows:
            assert float(row["N_total"]) == pytest.approx(2.0, abs=2e-14)

    def test_destructive_null_in_phase_sweep(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--case", "two", "--var", "phi",
                                     "--start", "0", "--stop", str(2 * PI),
                                     "--count", "3"])
        row = rows_of(out)[1]
        assert row["phi"] == "3.141592653589793"
        assert row["N_r2"] == "0.0" and row["N_l2"] == "0.0"

    # (case, scenario flags, sweep flags): every sweepable variable of each
    # case, lossless and lossy, one and two axes
    GRIDS = [
        pytest.param("single", [],
                     ["--var", "delta", "--start", "-3", "--stop", "3", "--count", "7"],
                     id="single-scenario0-sweep0"),
        pytest.param("single", ["--gamma-c", "0.3", "--mean-n", "1.7"],
                     ["--var", "delta", "--start", "-3", "--stop", "3", "--count", "7"],
                     id="single-scenario1-sweep1"),
        pytest.param("single", ["--delta", "0.4"],
                     ["--var", "gamma2", "--start", "0", "--stop", "2", "--count", "5"],
                     id="single-scenario2-sweep2"),
        pytest.param("single", ["--mean-n", "2.3", "--delta", "0.7"],
                     ["--var", "gamma_c", "--start", "0", "--stop", "1", "--count", "5"],
                     id="single-scenario3-sweep3"),
        pytest.param("single", ["--gamma-c", "0.2"],
                     ["--var", "delta", "--start", "-2", "--stop", "2", "--count", "3",
                      "--var2", "gamma2", "--start2", "0.5", "--stop2", "1.5", "--count2", "3"],
                     id="single-scenario4-sweep4"),
        pytest.param("two", ["--gamma2", "0.6", "--delta", "0.5"],
                     ["--var", "phi", "--start", "0", "--stop", "6", "--count", "7"],
                     id="two-scenario5-sweep5"),
        pytest.param("two", ["--gamma-c", "0.2", "--mean-n", "0.8", "--phi", "1.1"],
                     ["--var", "delta", "--start", "-3", "--stop", "3", "--count", "5"],
                     id="two-scenario6-sweep6"),
        pytest.param("two", ["--phi", "2.0", "--delta", "0.3"],
                     ["--var", "gamma2", "--start", "0", "--stop", "2", "--count", "5"],
                     id="two-scenario7-sweep7"),
        pytest.param("two", ["--phi", "2.0", "--delta", "0.3"],
                     ["--var", "gamma_c", "--start", "0", "--stop", "1", "--count", "5"],
                     id="two-scenario8-sweep8"),
        pytest.param("two", ["--gamma-c", "0.2", "--gamma2", "0.8"],
                     ["--var", "phi", "--start", "0", "--stop", "6", "--count", "4",
                      "--var2", "delta", "--start2", "-3", "--stop2", "3", "--count2", "3"],
                     id="two-scenario9-sweep9"),
        pytest.param("two", ["--delta", "0.9"],
                     ["--var", "phi", "--start", "0", "--stop", "6", "--count", "3",
                      "--var2", "gamma_c", "--start2", "0", "--stop2", "0.5", "--count2", "3"],
                     id="two-scenario10-sweep10"),
        pytest.param("three", ["--theta-prime", "0.4", "--gamma2", "0.7"],
                     ["--var", "theta", "--start", "0", "--stop", "6", "--count", "5"],
                     id="three-scenario11-sweep11"),
        pytest.param("three", ["--theta", "0.4", "--gamma-c", "0.25"],
                     ["--var", "theta_prime", "--start", "0", "--stop", "6", "--count", "5"],
                     id="three-scenario12-sweep12"),
        pytest.param("three", ["--theta", "1.3", "--theta-prime", "2.1", "--gamma-c", "0.1"],
                     ["--var", "delta", "--start", "-3", "--stop", "3", "--count", "5"],
                     id="three-scenario13-sweep13"),
        pytest.param("three", ["--theta", "1.3", "--theta-prime", "2.1", "--mean-n", "1.9"],
                     ["--var", "gamma2", "--start", "0", "--stop", "2", "--count", "5"],
                     id="three-scenario14-sweep14"),
        pytest.param("three", ["--theta", "1.3", "--theta-prime", "2.1", "--delta", "-0.6"],
                     ["--var", "gamma_c", "--start", "0", "--stop", "1", "--count", "5"],
                     id="three-scenario15-sweep15"),
        pytest.param("three", ["--gamma-c", "0.15", "--delta", "0.5"],
                     ["--var", "theta", "--start", "0", "--stop", "6", "--count", "3",
                      "--var2", "theta_prime", "--start2", "0", "--stop2", "6", "--count2", "3"],
                     id="three-scenario16-sweep16"),
        pytest.param("three", [],
                     ["--var", "theta", "--start", "0", "--stop", "6", "--count", "3",
                      "--var2", "theta_prime", "--start2", "0", "--stop2", "6", "--count2", "3"],
                     id="three-scenario17-sweep17"),
        # both rates swept: one array call with per-point gamma2 and gamma_c
        pytest.param("two", ["--phi", "1.1", "--delta", "0.4"],
                     ["--var", "gamma2", "--start", "0", "--stop", "2", "--count", "4",
                      "--var2", "gamma_c", "--start2", "0", "--stop2", "1", "--count2", "3"],
                     id="two-scenario18-sweep18"),
        pytest.param("three", ["--theta", "0.9", "--theta-prime", "2.6", "--delta", "-1.2"],
                     ["--var", "gamma_c", "--start", "0", "--stop", "0.8", "--count", "3",
                      "--var2", "gamma2", "--start2", "0.1", "--stop2", "1.9", "--count2", "4"],
                     id="three-scenario19-sweep19"),
        # packet sweeps: one quadrature per (rates, delta, Omega), the phi
        # values of its points as one array, phi as outer and as inner axis
        pytest.param("packet", ["--gamma-c", "0.1"],
                     ["--var", "phi", "--start", "0", "--stop", "6.283185307179586",
                      "--count", "201"],
                     id="packet-scenario20-sweep20"),
        pytest.param("packet", ["--gamma2", "0.6", "--gamma-c", "0.05"],
                     ["--var", "phi", "--start", "-10", "--stop", "10", "--count", "9",
                      "--var2", "delta", "--start2", "-2", "--stop2", "3", "--count2", "5"],
                     id="packet-scenario21-sweep21"),
        pytest.param("packet", ["--gamma2", "0"],
                     ["--var", "Omega", "--start", "0.05", "--stop", "1", "--count", "4",
                      "--var2", "phi", "--start2", "-3", "--stop2", "3", "--count2", "5"],
                     id="packet-scenario22-sweep22"),
    ]
    FLAGS = {"delta": "--delta", "phi": "--phi", "theta": "--theta",
             "theta_prime": "--theta-prime", "gamma2": "--gamma2", "gamma_c": "--gamma-c",
             "Omega": "--bandwidth"}

    @pytest.mark.parametrize("case,scenario,sweep", GRIDS)
    def test_sweep_rows_equal_point_rows(self, capsys, case, scenario, sweep):
        code, out, _ = run_cli(capsys, ["sweep", "--case", case] + scenario + sweep)
        assert code == 0
        lines = out.splitlines()[1:]
        swept = [sweep[sweep.index(flag) + 1] for flag in ("--var", "--var2")
                 if flag in sweep]
        for line, row in zip(lines, rows_of(out)):
            point = [case] + scenario
            for var in swept:
                point += [self.FLAGS[var], row[var]]
            _, single, _ = run_cli(capsys, point)
            assert single.splitlines()[1] == line

    def test_packet_phi_blocks_keep_bytes(self, capsys, monkeypatch):
        # a group's phi values go to the quadrature in blocks; how they are
        # split changes no byte
        sweep = ["sweep", "--case", "packet", "--gamma-c", "0.2", "--var", "phi",
                 "--start", "-4", "--stop", "4", "--count", "7", "--var2", "delta",
                 "--start2", "-1", "--stop2", "2", "--count2", "3"]
        _, whole, _ = run_cli(capsys, sweep)
        monkeypatch.setattr(cli, "_PHI_BLOCK", 3)
        _, blocks, _ = run_cli(capsys, sweep)
        assert blocks == whole and len(whole.splitlines()) == 22

    def test_repeat_runs_identical(self, capsys):
        _, first, _ = run_cli(capsys, self.SCAN)
        _, second, _ = run_cli(capsys, self.SCAN)
        assert first == second

    def test_thread_count_does_not_change_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("ROUTER_SIM_THREADS", "1")
        _, serial, _ = run_cli(capsys, self.SCAN)
        monkeypatch.setenv("ROUTER_SIM_THREADS", "3")
        _, threaded, _ = run_cli(capsys, self.SCAN)
        assert serial == threaded


class TestConfig:
    def test_config_feeds_scenario(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("# detuned asymmetric point\ngamma2 = 0.6\ndelta = 0.5\n")
        _, from_cfg, _ = run_cli(capsys, ["two", "--config", str(cfg),
                                          "--phi", "1.0"])
        _, from_flags, _ = run_cli(capsys, ["two", "--gamma2", "0.6",
                                            "--delta", "0.5", "--phi", "1.0"])
        assert from_cfg == from_flags

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("gamma2 = 0.6\n")
        _, out, _ = run_cli(capsys, ["two", "--config", str(cfg),
                                     "--gamma2", "0.9"])
        assert rows_of(out)[0]["gamma2"] == "0.9"

    def test_empty_config_means_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("\n# nothing here\n")
        _, with_cfg, _ = run_cli(capsys, ["single", "--config", str(cfg)])
        _, bare, _ = run_cli(capsys, ["single"])
        assert with_cfg == bare
        row = rows_of(bare)[0]
        assert row["gamma1"] == "1.0" and row["gamma2"] == "1.0"
        assert row["gamma_c"] == "0.0" and row["delta"] == "0.0"
        assert row["mean_n"] == "1.0"

    @pytest.mark.parametrize("text,needle", [
        ("bogus_key = 1\n", "bogus_key"),
        ("gamma2 0.6\n", "key=value"),
        ("gamma2 = abc\n", "gamma2"),
        ("points = 4001\n", "unknown key 'points'"),
    ])
    def test_bad_config_lines(self, capsys, tmp_path, text, needle):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, ["two", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("route: error:")
        assert needle in lines[0]
        assert f"{cfg}:1" in lines[0]

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["two", "--config",
                                        str(tmp_path / "nope.cfg")])
        assert code == 2
        assert err.startswith("route: error:")


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        pytest.param([], id="argv0"),
        pytest.param(["two", "--nope", "1"], id="argv1"),
        pytest.param(["verify", "--suite", "bogus"], id="argv2"),
        pytest.param(["two", "--mean-n", "-1"], id="argv3"),
        pytest.param(["single", "--gamma1", "-1"], id="argv4"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "1"], id="argv5"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "1", "--stop", "1", "--count", "5"], id="argv6"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "5",
                      "--var2", "phi", "--start2", "0", "--stop2", "1", "--count2", "5"],
                     id="argv7"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "5", "--var2", "delta"],
                     id="argv8"),
        pytest.param(["sweep", "--case", "single", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "5"], id="argv9"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "inf", "--count", "5"], id="argv10"),
        pytest.param(["sweep", "--case", "two", "--var", "gamma2",
                      "--start", "-1", "--stop", "1", "--count", "5"], id="argv11"),
        pytest.param(["single", "--delta", "nan"], id="argv12"),
        pytest.param(["two", "--mean-n", "1e308"], id="argv13"),
        pytest.param(["two", "--gamma2", "0", "--gamma-c", "1e-9", "--delta", "1",
                      "--phi", "-1.5707963", "--mean-n", "1e308"], id="argv14"),
        pytest.param(["three", "--theta", "inf"], id="argv15"),
        # Omega ** 2 underflowed to 0 (a ZeroDivisionError) or overflowed
        pytest.param(["packet", "--bandwidth", "1e-170"], id="argv16"),
        pytest.param(["packet", "--bandwidth", "1e200"], id="argv17"),
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "1000001"], id="argv18"),
        # each axis within 1e6 points, their grid of 1e12 not
        pytest.param(["sweep", "--case", "two", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "1000000",
                      "--var2", "delta", "--start2", "0", "--stop2", "1",
                      "--count2", "1000000"], id="argv19"),
        pytest.param(["sweep", "--case", "packet", "--var", "phi",
                      "--start", "0", "--stop", "1", "--count", "1000001"], id="argv20"),
    ])
    def test_usage_errors_are_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("route: error:")

    # refused before the sweep's grid and results are allocated
    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--case", "packet", "--var", "phi", "--start", "0",
                      "--stop", "1", "--count", "1000001"], id="argv0"),
        pytest.param(["sweep", "--case", "packet", "--var", "phi", "--start", "0",
                      "--stop", "1", "--count", "1000000", "--var2", "delta",
                      "--start2", "0", "--stop2", "1", "--count2", "1000000"], id="argv1"),
        pytest.param(["sweep", "--case", "two", "--var", "phi", "--start", "0",
                      "--stop", "1", "--count", "1000001"], id="argv2"),
    ])
    def test_refused_grids_allocate_nothing(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert peak < 1_000_000

    def test_failing_packet_sweep_reports_lowest_failing_point(self, capsys):
        # phi outer, delta inner: the delta = 2 points fail, the first of them
        # at grid index 1, and the sweep reports that point's own error; at
        # this narrow band the message differs from phi to phi
        code, out, err = run_cli(capsys, [
            "sweep", "--case", "packet", "--bandwidth", "0.001", "--gamma-c", "0.1",
            "--var", "phi", "--start", "0.5", "--stop", "4.5", "--count", "3",
            "--var2", "delta", "--start2", "0", "--stop2", "2", "--count2", "2"])
        assert (code, out) == (3, "")
        point = ["packet", "--bandwidth", "0.001", "--gamma-c", "0.1", "--delta", "2"]
        assert run_cli(capsys, point + ["--phi", "0.5"]) == (3, "", err)
        assert run_cli(capsys, point + ["--phi", "4.5"])[2] != err

    def test_under_resolved_quadrature_is_code_3(self, capsys):
        code, out, err = run_cli(capsys, [
            "packet", "--bandwidth", "0.001", "--omega0-detuning", "5"])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("route: error:")
        # the numbers that caused it: window, point counts, worst channel
        assert "window [-11.0, 21.0]" in lines[0]
        assert "4001 -> 64001 points" in lines[0]
        worst = re.search(r"N_(r1|l1|r2|l2) changed by (\S+) relative", lines[0])
        assert worst is not None
        assert float(worst.group(2)) > 1e-6
        assert lines[0].endswith("target 1e-06")


class TestFileOutput:
    def test_out_writes_file_and_keeps_stdout_empty(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, ["two", "--phi", "1.0",
                                        "--out", str(target)])
        assert code == 0
        assert out == ""
        _, on_stdout, _ = run_cli(capsys, ["two", "--phi", "1.0"])
        assert target.read_text(encoding="utf-8") == on_stdout

    def test_trajectory_dump(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, [
            "packet", "--phi", "1.0", "--dump-trajectory", str(target)])
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,re_c,im_c,abs2_c"
        assert len(lines) > 1000
        t, re_c, im_c, abs2 = (float(x) for x in lines[len(lines) // 2].split(","))
        assert abs2 == pytest.approx(re_c**2 + im_c**2, rel=1e-12)


def emitted_and_reference(capsys, monkeypatch, argv):
    """stdout of `argv`, and the csv.writer reference CSV of the grid it evaluated."""
    seen = []
    real_rows = cli._rows

    def spy(*args):
        seen.append(args)
        return real_rows(*args)

    monkeypatch.setattr(cli, "_rows", spy)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    (case, scn, grid, numbers), = seen
    return out, cli_rows_loop(CSV_HEADER, case, scn, grid, numbers)


class TestEmitterBytes:
    """The emitter writes the bytes of the csv.writer rows it replaced."""

    POINTS = [
        ["single", "--gamma-c", "0.3", "--delta", "-0.7"],
        ["two", "--gamma2", "0.6", "--phi", "1.1", "--mean-n", "2.5"],
        ["three", "--theta", "0.3", "--theta-prime", "2.2", "--gamma2", "0.4"],
        ["packet", "--phi", "1.0", "--gamma-c", "0.1"],
    ]

    @pytest.mark.parametrize("argv", POINTS, ids=lambda argv: argv[0])
    def test_point_commands(self, capsys, monkeypatch, argv):
        out, reference = emitted_and_reference(capsys, monkeypatch, argv)
        assert out == reference

    # sweep flags of one- and two-axis grids of 4095, 4096, 4097 and 8193
    # points, at and either side of multiples of the chunk size
    TWO_PI = ["--start", "0", "--stop", "6.283185307179586"]
    GRIDS = [
        ["--case", "two", "--var", "phi", *TWO_PI, "--count", "4095"],
        ["--case", "two", "--gamma-c", "0.2", "--var", "phi", *TWO_PI, "--count", "64",
         "--var2", "delta", "--start2", "-3", "--stop2", "3", "--count2", "64"],
        ["--case", "single", "--var", "delta", "--start", "-5", "--stop", "5",
         "--count", "4097"],
        ["--case", "three", "--var", "theta", *TWO_PI, "--count", "3",
         "--var2", "theta_prime", "--start2", "0", "--stop2", "6.283185307179586",
         "--count2", "2731"],
        ["--case", "two", "--phi", "0.7", "--var", "gamma2", "--start", "0", "--stop", "2",
         "--count", "63", "--var2", "gamma_c", "--start2", "0", "--stop2", "1",
         "--count2", "65"],
        ["--case", "three", "--var", "theta_prime", *TWO_PI, "--count", "17",
         "--var2", "theta", "--start2", "0", "--stop2", "6.283185307179586",
         "--count2", "241"],
        ["--case", "packet", "--gamma-c", "0.1", "--var", "Omega", "--start", "0.2",
         "--stop", "0.6", "--count", "3"],
    ]

    @pytest.mark.parametrize("sweep", GRIDS, ids=lambda sweep: sweep[1])
    def test_grids(self, capsys, monkeypatch, sweep):
        out, reference = emitted_and_reference(capsys, monkeypatch, ["sweep"] + sweep)
        assert out == reference

    def test_stdout_dash_and_file_targets(self, capsys, monkeypatch, tmp_path):
        argv = self.GRIDS[1]
        out, reference = emitted_and_reference(
            capsys, monkeypatch, ["sweep"] + argv + ["--out", "-"])
        assert out == reference
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(capsys, ["sweep"] + argv + ["--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_bytes() == reference.encode()

    # signed zeros, subnormals and values near the ends of the double range,
    # cycled so that each chunk holds each of them many times; a block of
    # fewer than _KERNEL_LINES lines is formatted value by value by repr,
    # larger ones through np.unique and _shortest.chars
    EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                -1.0000000000000001e-300, 1e300, -1.7976931348623157e308, 0.1, 1.0,
                1e-05, 0.0001, 1e16, 9999999999999998.0, -123.456]

    @pytest.mark.parametrize("size", [
        pytest.param(1, id="1"),
        pytest.param(2, id="2"),
        pytest.param(cli._KERNEL_LINES - 1, id="kernel_lines_minus_1"),
        pytest.param(cli._KERNEL_LINES, id="kernel_lines"),
        pytest.param(cli._CHUNK - 1, id="chunk_minus_1"),
        pytest.param(cli._CHUNK, id="chunk"),
        pytest.param(cli._CHUNK + 1, id="chunk_plus_1"),
        # the last block, below _KERNEL_LINES, goes by repr
        pytest.param(cli._CHUNK + cli._KERNEL_LINES - 1, id="chunk_plus_kernel_lines_minus_1"),
        pytest.param(4 * cli._CHUNK + 1, id="four_chunks_plus_1"),
    ])
    def test_extreme_values(self, capsys, tmp_path, size):
        first = np.resize(np.array(self.EXTREMES), size)
        header = ("name", "a", "empty", "b", "c")
        columns = ["x", first, "", first[::-1], -first]
        reference = csv_text_loop(header, columns)
        target = tmp_path / "extremes.csv"
        cli._emit(str(target), header, columns)
        assert target.read_bytes() == reference.encode()
        cli._emit(None, header, columns)
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize("size", [
        pytest.param(3, id="small_block"),
        pytest.param(cli._CHUNK + 1, id="large_block"),
    ])
    def test_non_finite_values(self, tmp_path, size):
        # the CLI refuses non-finite results, but the emitter writes any
        # float as repr does
        values = np.resize(np.array([1.5, np.inf, -np.inf, np.nan, -0.0]), size)
        columns = ["x", values, values[::-1]]
        target = tmp_path / "non_finite.csv"
        cli._emit(str(target), ("name", "a", "b"), columns)
        assert target.read_bytes() == csv_text_loop(("name", "a", "b"), columns).encode()

    def test_trajectory_dump(self, capsys, monkeypatch, tmp_path):
        seen = []
        real_integrate = cli.integrate_cavity

        def spy(params, packets, grid):
            trajectory = real_integrate(params, packets, grid)
            seen.append((grid.times, trajectory))
            return trajectory

        monkeypatch.setattr(cli, "integrate_cavity", spy)
        target = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, ["packet", "--gamma-c", "0.1",
                                      "--phi", "1.5707963267948966",
                                      "--dump-trajectory", str(target)])
        assert code == 0
        (times, trajectory), = seen
        assert target.read_bytes() == trajectory_csv_loop(times, trajectory).encode()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "scattering"])
        assert code == 0
        assert out.splitlines()[0].startswith("suite")
        assert "scattering: max deviation" in out

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
        assert code == 0
        for name in ("core", "scattering", "wavepacket", "oracle"):
            assert f"{name}: max deviation" in out
        assert "FAIL" not in out


class TestClosedPipe:
    def test_reader_closing_stdout_exits_1_quietly(self, package_env):
        # `route sweep ... | head -1`: the sweep's rows outgrow the pipe's
        # buffer after the reader has gone, which ended in a BrokenPipeError
        # traceback
        argv = [sys.executable, "-m", "photon_router", "sweep", "--case", "single",
                "--var", "delta", "--start=-6", "--stop", "6", "--count", "200000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=package_env)
        assert proc.stdout.readline() == (HEADER_LINE + "\n").encode()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
