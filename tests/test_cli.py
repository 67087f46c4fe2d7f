import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgsim import cli, diagnostics, dynamics as dyn, geometry
from ufgsim.fields import build_hierarchy


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecParsing:
    def test_point(self):
        assert np.array_equal(cli.parse_point("1,0"), np.array([1.0, 0.0]))
        with pytest.raises(cli.UsageError):
            cli.parse_point("1,zebra")

    def test_box(self):
        assert cli.parse_box("-3:3,-1:2") == ((-3.0, 3.0), (-1.0, 2.0))
        with pytest.raises(cli.UsageError):
            cli.parse_box("3")

    def test_params(self):
        assert cli.parse_param_list(["k=-1", "N=3"]) == {"k": -1.0, "N": 3.0}
        with pytest.raises(cli.UsageError):
            cli.parse_param_list(["oops"])
        with pytest.raises(cli.UsageError, match=r"^bad --param name 'foo' \(want a real"):
            cli.parse_param_list(["name=foo"])

    def test_reference_spec(self):
        refs = cli.parse_reference_spec("gaussian:0,1;none;dirac:6.28")
        assert set(refs) == {0, 2}
        with pytest.raises(cli.UsageError):
            cli.parse_reference_spec("cauchy:0,1")


class TestSystemFiles:
    def test_parse_good_file(self, tmp_path):
        path = tmp_path / "rc.sys"
        path.write_text(
            "dim = 2\nnoise = 1\nvars = x, y\nV0 = [-y, x]\nV1 = [x, y]\n")
        system, variables = cli.parse_system_file(str(path))
        assert system.dim == 2 and variables == ("x", "y")

    def test_dim_mismatch_names_field(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("dim = 2\nnoise = 1\nvars = x, y\nV0 = [-y]\nV1 = [x, y]\n")
        with pytest.raises(cli.SystemFileError, match="V0"):
            cli.parse_system_file(str(path))

    def test_unknown_function_named(self, tmp_path):
        path = tmp_path / "bad2.sys"
        path.write_text("dim = 1\nnoise = 1\nvars = x\nV0 = [gamma(x)]\nV1 = [x]\n")
        with pytest.raises(cli.SystemFileError, match="gamma"):
            cli.parse_system_file(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad3.sys"
        path.write_text("dim = 1\nnoise = 1\nvars = x\nV0 = [x]\n")
        with pytest.raises(cli.SystemFileError, match="missing field V1"):
            cli.parse_system_file(str(path))

    GOOD = "dim = 2\nnoise = 1\nvars = z, zeta\nV0 = [-2*z, -sin(zeta)]\nV1 = [zeta, 0]\n"

    # each edit of GOOD, the line it puts the fault on and a fragment of the error
    @pytest.mark.parametrize("old, new, line, message", [
        ("", "param k = 2\n", 6, "parameters are not read"),
        ("", "param k = nan\n", 6, "parameters are not read"),
        ("dim = 2", "dim = 0", 1, "dim must be an integer >= 1"),
        ("dim = 2", "dim = 2.5", 1, "dim must be an integer >= 1"),
        ("noise = 1", "noise = -1", 2, "noise must be an integer >= 1"),
        ("noise = 1", "noise = 0", 2, "noise must be an integer >= 1"),
        ("", "noise = 1\n", 6, "repeated key 'noise' (first on line 2)"),
        ("", "V01 = [1, 1]\n", 6, "repeated key 'V1'"),
        ("", "V7 = [garbage((]\n", 6, "V7 beyond noise = 1"),
        ("vars = z, zeta", "vars = z,", 3, "variable names"),
        ("vars = z, zeta", "vars = z, z", 3, "variable names"),
    ], ids=["param", "param-nan", "dim-0", "dim-real", "noise-negative", "noise-0",
            "repeated-key", "repeated-field", "field-beyond-noise", "empty-var", "repeated-var"])
    def test_malformed_file_rejected_at_its_line(self, capsys, tmp_path, old, new, line,
                                                 message):
        path = tmp_path / "bad.sys"
        path.write_text(self.GOOD.replace(old, new, 1) if old else self.GOOD + new)
        with pytest.raises(cli.SystemFileError, match=f":{line}: ") as err:
            cli.parse_system_file(str(path))
        assert message in str(err.value)
        code, out, err = run_cli(["check", "--system", str(path), "--condition", "hc",
                                  "--box", "-3:3,0.5:6", "--grid", "2"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{path}:{line}: " in json.loads(err)["error"]

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_bytes(self.GOOD.encode() + b"V2 = [\xff]\n")
        with pytest.raises(cli.SystemFileError, match="cannot read"):
            cli.parse_system_file(str(path))


class TestExitCodes:
    def test_check_pass(self, capsys):
        code, out, _ = run_cli(["check", "--system", "sinfields", "--condition", "ufg",
                                "--level", "1", "--box", "-3:3,-3:3", "--grid", "8"],
                               capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["verdict"] == "satisfied_on_samples"
        assert payload["metadata"]["rtol"] == 1e-8

    def test_check_violated(self, capsys):
        code, _, _ = run_cli(["check", "--system", "grushin", "--param", "k=-1",
                              "--condition", "oac", "--lambda0", "0.5", "--grid", "7"],
                             capsys)
        assert code == cli.EXIT_VIOLATED

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["check", "--system", "not-a-system",
                                "--condition", "ufg"], capsys)
        assert code == cli.EXIT_USAGE
        assert "error" in json.loads(err.splitlines()[-1])

    def test_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "explode.sys"
        path.write_text("dim = 1\nnoise = 1\nvars = x\nV0 = [x*x]\nV1 = [0]\n")
        code, _, err = run_cli(["chart", "--system", str(path), "--x0", "3",
                                "--eps", "4.0"], capsys)
        assert code == cli.EXIT_NUMERIC

    def test_suspect_is_not_violated_exit(self, capsys):
        code, out, _ = run_cli(["check", "--system", "non-ufg-psi", "--condition", "ufg",
                                "--level", "3", "--box", "0.01:1,-1:1", "--grid", "8"],
                               capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["verdict"] == "suspect"


    @pytest.mark.parametrize("args", [
        ["malliavin", "--t", "-1"],
        ["malliavin", "--t", "1", "--paths", "0"],
        ["malliavin", "--t", "1", "--dt", "0"],
        ["simulate", "--t", "1e-9", "--dt", "1"],
        ["simulate", "--t", "1", "--stride", "0"],
        ["malliavin", "--t", "1", "--stride", "-1"],
        ["simulate", "--t", "0.0015", "--dt", "0.001"],
    ])
    def test_unhonourable_simulation_rejected(self, capsys, args):
        cmd, rest = args[0], args[1:]
        extra = ["--split", "1"] if cmd == "malliavin" else []
        code, _, err = run_cli([cmd, "--system", "sine-ou", "--param", "k=2",
                                "--x0", "0,4", *rest, *extra], capsys)
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in err
        assert "error" in json.loads(err.splitlines()[-1])

    @pytest.mark.parametrize("x0", ["1", "1,0,0"])
    @pytest.mark.parametrize("cmd", [
        ["chart", "--system", "random-circles", "--eps", "0.3", "--samples", "2"],
        ["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "sin(z)",
         "--direction", "V1", "--t", "0.01", "--paths", "2"],
    ])
    def test_point_of_wrong_dimension_rejected(self, capsys, cmd, x0):
        code, out, err = run_cli([*cmd, "--x0", x0], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert json.loads(err)["error"] == "x0 must have shape (2,)"

    @pytest.mark.parametrize("args, needle", [
        (["--paths", "1"], "two paths"),
        (["--h", "0"], "--h"),
        (["--h", "-0"], "--h"),
    ])
    def test_degenerate_derivative_rejected(self, capsys, args, needle):
        code, out, err = run_cli(["derivative", "--system", "grushin", "--param", "k=0.5",
                                  "--f", "sin(z)", "--direction", "V1", "--x0", "0,1",
                                  "--t", "0.01", "--paths", "2", *args], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert needle in json.loads(err)["error"]  # one JSON line, no numpy warnings

    @pytest.mark.parametrize("args, flag", [
        (["--samples", "0"], "--samples"),
        (["--samples", "-2"], "--samples"),
        (["--eps", "0"], "--eps"),
        (["--eps", "-0.3"], "--eps"),
        (["--fd-step", "0"], "--fd-step"),
        (["--fd-step", "-0.5"], "--fd-step"),
    ])
    def test_degenerate_chart_rejected_up_front(self, capsys, args, flag):
        with mock.patch.object(cli, "build_hierarchy", side_effect=AssertionError("work begun")):
            code, out, err = run_cli(["chart", "--system", "random-circles", "--x0", "1,0",
                                      "--eps", "0.3", *args], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert json.loads(err)["error"].startswith(flag)

    @pytest.mark.parametrize("args, flag", [
        (["--split", "0"], "--split"),
        (["--split", "3"], "--split"),
        (["--split", "-1"], "--split"),
        (["--split", "1", "--cond-threshold", "-1"], "--cond-threshold"),
        (["--split", "1", "--cond-threshold", "0.999"], "--cond-threshold"),
    ])
    def test_unhonourable_malliavin_check_rejected_up_front(self, capsys, args, flag):
        with mock.patch.object(cli, "simulate_variational",
                               side_effect=AssertionError("work begun")):
            code, out, err = run_cli(["malliavin", "--system", "sine-ou", "--param", "k=2",
                                      "--x0", "0,4", "--t", "0.01", "--paths", "2", *args],
                                     capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert json.loads(err)["error"].startswith(flag)

    # before their sizes were checked, each of these ended in numpy's
    # _ArrayMemoryError traceback (exit 1) under a 3 GB address-space limit
    @pytest.mark.parametrize("args, flag, work", [
        (["check", "--system", "sinfields", "--condition", "ufg", "--grid", "1000000"],
         "--grid", (geometry.SamplePlan, "sample")),
        (["check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
          "--phi", "z*z", "--grid", "100000"], "--grid", (geometry.SamplePlan, "sample")),
        (["decompose", "--system", "ufg-heisenberg", "--grid", "100000"], "--grid",
         (geometry.SamplePlan, "sample")),
        (["fpresidual", "--system", "circle-line", "--density", "1", "--grid",
          "0:1:10000000000"], "--grid", (diagnostics, "fokker_planck_residual")),
        (["chart", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4", "--eps", "0.1",
          "--samples", "100000000"], "--samples", (cli, "build_hierarchy")),
    ])
    def test_oversized_request_rejected_up_front(self, capsys, args, flag, work):
        with mock.patch.object(*work, side_effect=AssertionError("work begun")):
            code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert json.loads(err)["error"].startswith(f"{flag} {args[-1]} asks for more than")

    # the array entries each request asks for: fpresidual's grid count,
    # chart's samples x N, lyapunov's grid^dim points x times x N, and the
    # other checks' grid^dim points x N x (frame columns + drift)
    @pytest.mark.parametrize("args, entries", [
        (["fpresidual", "--system", "circle-line", "--density", "1", "--grid", "0.2:6:5"], 5),
        (["chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.2",
          "--samples", "10"], 10 * 2),
        (["check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
          "--phi", "z*z", "--c1", "80", "--c2", "4", "--times", "0,1,5", "--box",
          "-3:3,0.5:6", "--grid", "5"], 5**2 * 3 * 2),
        (["check", "--system", "gbm", "--condition", "hc", "--box", "0.5:2", "--grid", "5"],
         None),
    ])
    def test_request_at_the_cap_runs(self, capsys, monkeypatch, args, entries):
        if entries is None:
            entry = cli.catalog.get("gbm")
            table = build_hierarchy(entry.system.all_fields(), entry.level)
            entries = 5 * table.dim * (len(table.r_m()) + 1)
        monkeypatch.setattr(dyn, "MAX_STORED_ENTRIES", entries)
        assert run_cli(args, capsys)[0] in (cli.EXIT_OK, cli.EXIT_VIOLATED)
        monkeypatch.setattr(dyn, "MAX_STORED_ENTRIES", entries - 1)
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and "asks for more than" in json.loads(err)["error"]

    @pytest.mark.parametrize("cmd", [
        ["check", "--system", "sine-ou", "--param", "k=2", "--condition", "hc"],
        ["decompose", "--system", "sine-ou", "--param", "k=2"],
    ])
    def test_oversized_points_file_rejected(self, capsys, monkeypatch, tmp_path, cmd):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,1\n0.5,2\n0.9,3\n")
        monkeypatch.setattr(dyn, "MAX_STORED_ENTRIES", 5)
        with mock.patch.object(geometry.SamplePlan, "sample",
                               side_effect=AssertionError("work begun")):
            code, out, err = run_cli([*cmd, "--points", str(path)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert json.loads(err)["error"].startswith(f"--points {path} asks for more than 5")

    @pytest.mark.parametrize("cmd", [
        ["check", "--system", "sinfields", "--condition", "ufg", "--grid", "2"],
        ["zproc", "--system", "sinfields", "--x0", "1,1", "--t", "0.01", "--paths", "2"],
    ])
    def test_oversized_bracket_table_is_a_usage_error(self, capsys, cmd):
        # nothing numerical has run, and no flag raises the cap
        with mock.patch.object(cli, "simulate_paths", side_effect=AssertionError("simulated")):
            code, out, err = run_cli([*cmd, "--level", "40"], capsys)
        assert code == cli.EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        message = json.loads(err)["error"]
        assert "1134903167 entries exceeds its entry cap (5000) at level 40" in message
        assert "raise the cap" not in message

    # malliavin's count: N per stored time and 2 N^2 + 1 per path for J_T,
    # C_T and the worst |J K - I|, here 2 x (11 x 2 + 9) = 62
    def test_malliavin_at_the_stored_cap_runs(self, capsys, monkeypatch):
        args = ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
                "--t", "0.01", "--paths", "2", "--split", "1"]
        monkeypatch.setattr(dyn, "MAX_STORED_ENTRIES", 62)
        assert run_cli(args, capsys)[0] in (cli.EXIT_OK, cli.EXIT_VIOLATED)
        monkeypatch.setattr(dyn, "MAX_STORED_ENTRIES", 61)
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert "need 62 stored values" in json.loads(err)["error"]

    @pytest.mark.parametrize("args", [
        ["--lambda0", "1e308", "--grid", "6"],
        ["--lambda0", "0.5", "--box", "1e200:1e300,1e200:1e300", "--grid", "4"],
    ])
    def test_overflowing_alignment_check_warns_nothing(self, capsys, args):
        # the reports are pinned in test_check_reports_match_recorded_hashes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["check", "--system", "grushin", "--param", "k=-1",
                                      "--condition", "oac", *args], capsys)
        assert [str(w.message) for w in caught] == [] and err == ""
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED) and json.loads(out)["records"]

    @pytest.mark.parametrize("t, dt", [("1e15", "0.001"), ("1e300", "1e-300")])
    def test_unbounded_horizon_rejected_up_front(self, capsys, t, dt):
        start = time.perf_counter()
        code, out, err = run_cli(["simulate", "--system", "gbm", "--x0", "1", "--t", t,
                                  "--dt", dt, "--paths", "1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        assert "increments per chunk" in json.loads(err)["error"]

    @pytest.mark.parametrize("cmd", [
        ["simulate", "--system", "gbm", "--x0", "1"],
        ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4", "--split", "1"],
    ])
    def test_unbounded_path_count_rejected_up_front(self, capsys, cmd):
        start = time.perf_counter()
        code, out, err = run_cli([*cmd, "--t", "1", "--paths", "1000000000000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_USAGE and out == ""
        assert "stored values" in json.loads(err)["error"]

    @pytest.mark.parametrize("args", [
        ["--c1", "nan"],
        ["--c2", "inf"],
        ["--c1", "-inf"],
        ["--rtol", "nan"],
    ])
    def test_non_finite_float_flag_rejected(self, capsys, args):
        code, out, err = run_cli(["check", "--system", "sine-ou", "--param", "k=2",
                                  "--condition", "lyapunov", "--phi", "z*z", "--grid", "3",
                                  "--times", "0,0.5", "--box", "-3:3,0.5:6", *args], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "not a finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["simulate", "--system", "random-circles", "--x0", "nan,0", "--t", "0.01",
         "--paths", "2"],
        ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,inf", "--t", "0.01",
         "--paths", "2", "--split", "1"],
        ["check", "--system", "sine-ou", "--param", "k=2", "--condition", "hc",
         "--box", "-3:3,0.5:inf"],
        ["check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
         "--phi", "z*z", "--grid", "3", "--times", "0,nan", "--box", "-3:3,0.5:6"],
        ["converge", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
         "--times", "0.01,inf", "--reference", "gaussian:0,1", "--paths", "10"],
        ["check", "--system", "sine-ou", "--param", "k=nan", "--condition", "hc"],
        ["fpresidual", "--system", "circle-line", "--density", "1", "--grid", "0.2:nan:10"],
        ["converge", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
         "--times", "0.01", "--reference", "gaussian:0,inf", "--paths", "10"],
    ], ids=["x0", "x0-malliavin", "box", "times-lyapunov", "times-converge", "param",
            "grid-spec", "reference"])
    def test_non_finite_value_rejected(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert "not a finite number" in json.loads(err.splitlines()[-1])["error"]

    def test_non_finite_points_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("nan,1\n0.5,2\n")
        code, out, err = run_cli(["check", "--system", "sine-ou", "--param", "k=2",
                                  "--condition", "hc", "--points", str(path)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert "not a finite number" in json.loads(err)["error"]

    def test_missing_files_are_usage_errors(self, capsys, tmp_path):
        for args in (["--points", str(tmp_path / "absent.csv")],
                     ["--grid", "2", "--out", str(tmp_path / "absent" / "report.json")]):
            code, out, err = run_cli(["check", "--system", "sine-ou", "--param", "k=2",
                                      "--condition", "hc", *args], capsys)
            assert code == cli.EXIT_USAGE and out == ""
            assert set(json.loads(err)) == {"error", "schema_version"}

    @pytest.mark.parametrize("args", [
        ["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.01", "--bogus"],
        ["simulate", "--system", "random-circles"],
        ["check", "--system", "sine-ou", "--condition", "nope"],
        ["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.01",
         "--paths", "many"],
        ["frobnicate"],
        [],
        ["simulate", "--system", "random-circles", "--x0=--", "--t", "0.01"],
        ["converge", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4", "--times", "0.01",
         "--reference", ";;gaussian:0,1", "--paths", "10"],
    ], ids=["unknown-flag", "missing-flag", "bad-choice", "bad-int", "bad-command",
            "no-command", "dashdash-value", "reference-beyond-dimension"])
    def test_usage_error_is_one_json_line(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and "usage:" not in err
        assert set(json.loads(err)) == {"error", "schema_version"}

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(["simulate", "--help"], capsys)
        assert code == cli.EXIT_OK and "--x0" in out and err == ""

    def test_decompose_domain_error_names_bracket(self, capsys, tmp_path):
        path = tmp_path / "logfield.sys"
        path.write_text("dim = 1\nnoise = 1\nvars = x\nV0 = [1]\nV1 = [log(x)]\n")
        code, out, err = run_cli(["decompose", "--system", str(path), "--box", "-1:2",
                                  "--grid", "4", "--level", "1"], capsys)
        assert code == cli.EXIT_NUMERIC and out == ""
        assert json.loads(err)["error"].startswith("bracket (1): log of non-positive value")


# expressions past Python's recursion limit are honoured, or rejected with exit 3
_LONG_DRIFT = "+".join(["0.001*x"] * 1000)


@pytest.fixture
def long_drift_file(tmp_path):
    path = tmp_path / "long.sys"
    path.write_text(f"dim = 2\nnoise = 1\nvars = x, y\nV0 = [-y, {_LONG_DRIFT}]\nV1 = [x, y]\n")
    return str(path)


class TestDeepExpressions:
    DERIVATIVE = ["derivative", "--system", "grushin", "--param", "k=0.5", "--direction",
                  "V1", "--x0", "0,1", "--t", "0.25", "--paths", "40", "--seed", "3"]

    def test_long_observable_runs(self, capsys):
        code, out, err = run_cli(self.DERIVATIVE + ["--f", "+".join(["z"] * 2000)], capsys)
        assert code == cli.EXIT_OK, err
        _, one, _ = run_cli(self.DERIVATIVE + ["--f", "z"], capsys)
        estimate = json.loads(out)["estimate"]
        assert estimate == pytest.approx(2000 * json.loads(one)["estimate"], rel=1e-9)

    def test_simulate_with_a_long_drift_is_the_same_across_threads(self, capsys, forking,
                                                                   long_drift_file):
        args = ["simulate", "--system", long_drift_file, "--x0", "1,0", "--t", "0.02",
                "--dt", "0.001", "--paths", "4", "--seed", "1", "--stride", "10"]
        code1, out1, err = run_cli(args + ["--threads", "1"], capsys)
        assert code1 == cli.EXIT_OK, err
        code2, out2, _ = run_cli(args + ["--threads", "2"], capsys)
        assert forking  # the second worker ran in a child
        assert code2 == cli.EXIT_OK and out1 == out2
        assert len(out1.splitlines()) == 1 + 4 * 3

    def test_nesting_past_the_cap_is_a_usage_error(self, capsys):
        f = "(" * 300 + "z" + ")" * 300
        code, out, err = run_cli(self.DERIVATIVE + ["--f", f], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1
        assert "nesting deeper than 100 levels" in json.loads(err)["error"]

    # the commands that bracket, split or straighten a drift too deep for
    # Python's stack; none may recurse over its trees
    @pytest.mark.parametrize("cmd", [
        *(["check", "--condition", c] for c in ("ufg", "hc", "phc", "oac", "oac2")),
        ["decompose"],
        *([c, "--x0", "0.5,0.5", "--t", "0.01", "--paths", "2"] for c in ("zproc", "ranks")),
        ["chart", "--x0", "0.5,0.5", "--eps", "0.1", "--samples", "2"],
    ], ids=["check-ufg", "check-hc", "check-phc", "check-oac", "check-oac2", "decompose",
            "zproc", "ranks", "chart"])
    def test_command_on_a_long_drift_runs(self, capsys, long_drift_file, cmd):
        box = ["--box", "-1:1,-1:1", "--grid", "4"] if cmd[0] in ("check", "decompose") else []
        code, out, err = run_cli([*cmd, "--system", long_drift_file, *box], capsys)
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED) and err == "", err
        if cmd[0] in ("zproc", "ranks"):  # a CSV of the paths
            assert out.startswith("path_id,time,")
        else:
            assert json.loads(out)["system"] == "long"


class TestExpressionFlagErrors:
    """A parse error in an expression flag names the flag, as one in a
    system file names its file and line."""

    @pytest.mark.parametrize("args, flag", [
        (TestDeepExpressions.DERIVATIVE + ["--f", "sin("], "--f"),
        (["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "z", "--direction",
          "[z,sin(]", "--x0", "0,1", "--t", "0.25", "--paths", "4"], "--direction component 2"),
        (["check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
          "--phi", "sin(", "--grid", "3"], "--phi"),
        (["fpresidual", "--system", "circle-line", "--density", "sin(", "--grid", "0:1:5"],
         "--density"),
    ], ids=["f", "direction", "phi", "density"])
    def test_parse_error_names_the_flag(self, capsys, args, flag):
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (f"{flag}: unexpected input (at position 4, "
                                            "expected NUMBER or IDENT or ()")


class TestValueFlagErrors:
    """A malformed flag value names its flag, as a malformed expression does."""

    @pytest.mark.parametrize("args, message", [
        (["fpresidual", "--system", "circle-line", "--density", "1", "--grid", "0:1:abc"],
         "--grid: invalid literal for int() with base 10: 'abc'"),
        (["fpresidual", "--system", "circle-line", "--density", "1", "--grid", "0:1"],
         "--grid: want lo:hi:count, got '0:1'"),
        (["fpresidual", "--system", "circle-line", "--density", "1", "--grid", "0:1:-2"],
         "--grid: count must be at least 1, got -2"),
        (["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "z", "--direction",
          "[1]", "--x0", "0,1", "--t", "0.25", "--paths", "4"],
         "--direction: expected 2 components, got 1"),
        *((["converge", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4", "--times",
           "0.01", "--paths", "20", "--reference", spec], message)
          for spec, message in [
              ("cauchy:0,1", "--reference: unknown reference kind 'cauchy'"),
              ("gaussian:0", "--reference: gaussian reference wants mu,var"),
              ("dirac", "--reference: dirac reference wants a location"),
              ("none;none", "--reference: reference spec selected no coordinate"),
              ("dirac:zero", "bad --reference argument 'zero' (want a real number)")]),
        *((["check", "--system", "sine-ou", "--param", param, "--condition", "hc", "--grid",
            "2"], message)
          for param, message in [
              ("k=abc", "bad --param k 'abc' (want a real number)"),
              ("A=[[0,1],[0,0]]", "bad --param A '[[0,1],[0,0]]' (want a real number)")]),
    ], ids=["grid-count", "grid-shape", "grid-negative", "direction", "reference-kind",
            "reference-gaussian", "reference-dirac", "reference-none", "reference-argument",
            "param-word", "param-matrix"])
    def test_malformed_value_names_the_flag(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == message


# The pinned report digests below were re-recorded when "metadata" became the
# flags each run read, with every other key of each report unchanged.  A case
# keeps the pytest id of its first recording, which names the exit code and the
# digest then pinned, so re-pinning renames no test.
_FIRST_CHECK_IDS = [f"args{i}-{code}-{digest}" for i, (code, digest) in enumerate([
    (0, "16f218a275f2446494357af99e541b2105f455589f9f5e3f35675f7495b30cc3"),
    (0, "c216827d8306abe548bbaef32b5447b192c01c696ce0cc667c72d292f2ca7a51"),
    (0, "f305a0b3ddefdfb72c72ca4a75f146680c4328c1e1baadc7f636148501555ba6"),
    (2, "046266149f072f244cf229e224aaaaebafe1d22953dc8c42bfa5c50de89743db"),
    (2, "d4e42af10579631fb095ea542f33d611c6cff75eda9d22538bfd79f10d972729"),
    (0, "701352ecfeece753a2ae127e971fe8dfcaf804c1ef7db622a64a8362f6cf43ae"),
    (2, "a1fbd1091d2e79a3a31b4d25cbd9f6f76b57c12993b2a94c5d69da075c6d2fc5"),
    (2, "ca448bae675ff48c54995790cd7abf26f994f761895e9c308498c4e2ddc0814d"),
    (0, "cf9d612e5a1adced2b5702a730e4e9c0a525fea5516ded1a98574b480136d99c"),
    (2, "9abc06149869926b86db07d461d8a17ceefdf61b96c17cb4a782f67fc6d150f3"),
    (0, "f0617f6d2d880ef8cfa9798cced5fe2f9ff08e1cb39f4f66629ddce779d2b7fd"),
    (2, "857f71f4ee781a4afe8a7c6c5551abcd1a7c9f97db9ad86ee6ac031b5eab2376"),
    (0, "80abba351090dc4b445ed2be3957bab3629304cd04d360263f6b96b07cc5ddd3"),
])]
_FIRST_FLOW_IDS = [f"args{i}-{digest}" for i, digest in enumerate([
    "b759c943a15fa3d89860a1bda40ae7cc8dd4118a3688aa4ce24894c5ba83c090",
    "5abd2ec0783fbf2c485fe541cf5c2fbb2d183e2c98aceb2ed93e76deb8919f60",
    "87efc82278f84402757d3e068d8e8716104d228d56423895e347e4c09ed7ea0e",
])]


class TestDeterminism:
    def test_simulate_byte_identical(self, capsys):
        args = ["simulate", "--system", "random-circles", "--x0", "1,0", "--t",
                "0.2", "--dt", "0.001", "--paths", "32", "--seed", "42",
                "--stride", "100"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args + ["--threads", "8"], capsys)
        assert code1 == code2 == cli.EXIT_OK
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "path_id,time,x1,x2"

    def test_converge_byte_identical(self, capsys):
        args = ["converge", "--system", "grushin", "--param", "k=-1", "--x0", "0,1",
                "--times", "0.25,0.5", "--reference", "gaussian:0,0.4",
                "--paths", "128", "--seed", "3", "--escape-radius", "10"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args + ["--threads", "4"], capsys)
        assert out1 == out2

    def test_malliavin_byte_identical(self, capsys):
        args = ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
                "--t", "0.5", "--paths", "16", "--seed", "5", "--split", "1"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args + ["--threads", "2"], capsys)
        assert out1 == out2

    def test_forked_simulate_prints_its_csv_once(self):
        # a fresh interpreter whose stdout is a pipe, with a line still in its
        # buffer when the worker forks: the worker must neither flush it nor
        # print any CSV, and the report is that of --threads 1
        script = """
import os, sys
from ufgsim import cli, dynamics
dynamics.MIN_PATH_STEPS_PER_WORKER = 1
os.sched_getaffinity = lambda pid: set(range(4))
forked = []
fork = os.fork
def counted_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid
os.fork = counted_fork
sys.stdout.write("before\\n")
code = cli.run(sys.argv[1:])
sys.stderr.write(f"{code} {len(forked)} {'multiprocessing' in sys.modules}")
"""
        args = ["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.05",
                "--paths", "9", "--seed", "4", "--stride", "10", "--out", "-"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("PYTHONUNBUFFERED", None)  # stdout keeps what it is given until exit
        outs = {}
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", script, *args, "--threads", threads],
                                  capture_output=True, check=True, env=env)
            outs[threads] = proc.stdout
            assert proc.stderr.decode() == f"0 {int(threads) - 1} False"
        assert outs["2"] == outs["1"]
        lines = outs["1"].decode().splitlines()
        assert lines[:2] == ["before", "path_id,time,x1,x2"]
        assert len(lines) == 2 + 9 * 6


    def test_malliavin_stride_reaches_simulation(self, capsys):
        from ufgsim import catalog, malliavin as mal

        args = ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
                "--t", "0.2", "--paths", "4", "--seed", "5", "--split", "1",
                "--stride", "5"]
        code, out, _ = run_cli(args, capsys)
        assert code == cli.EXIT_OK
        system = catalog.get("sine-ou", {"k": 2.0}).system
        vp = mal.simulate_variational(system, [0.0, 4.0], 0.2, 1e-3, 5, n_paths=4,
                                      store_stride=5)
        want = mal.malliavin_matrix(vp)
        got = [p["matrix"] for p in json.loads(out)["paths"]]
        assert got == want.reshape(4, -1).tolist()

    # sha256 of the --out report of small checker runs, recorded before the
    # checkers were batched: a rewrite must reproduce every byte.
    @pytest.mark.parametrize("args, code, digest", [
        (["sinfields", "--condition", "ufg", "--level", "3", "--grid", "6"], 0,
         "bf2d54542c99a02a38cd0151066509c4111d861edefc0e4d420154d73273798b"),
        (["ufg-heisenberg", "--condition", "ufg", "--grid", "4"], 0,
         "e32a7421dc63fd271d5693b13f21885e243eb948e65d776b78ea78cbbaa108c1"),
        (["non-ufg-psi", "--condition", "ufg", "--box", "0.01:1,-1:1", "--grid", "6"], 0,
         "40f672eca94648e2e442105133e6fff43c473c8894b4472da28f4e4a64fd0b77"),
        (["linear", "--condition", "hc", "--grid", "6"], 2,
         "f60e19aaf46fd1700bb42ca4be7a2785ba8ff1b2de4510ab07f2f5eb47a4a07a"),
        (["gbm", "--condition", "hc", "--box", "-1:1", "--grid", "5"], 2,
         "8b2bae42020e3391358dfb01a64a769c32db35e65df7971cbe8e75fbb8987db6"),
        (["sine-ou", "--param", "k=2", "--condition", "hc", "--grid", "5"], 0,
         "270b2b1bb008b1d79a01894ab4143ad5d6fbc367a223cd5fe632920fa4ba736c"),
        (["random-circles", "--condition", "phc", "--grid", "6"], 2,
         "fa389bb6e06a2aceb353f3eb2b2d34429a73d0602cf4764b76d196abc6ebc6a6"),
        (["grushin", "--param", "k=-1", "--condition", "oac", "--lambda0", "0.5", "--grid", "6"],
         2, "448ce0dabd7f563189135a114ca72724fd1d9c26c47dec936d5d1b5a16bca0d4"),
        (["circle-line", "--condition", "oac", "--grid", "6"], 0,
         "16e1678f940fb3b8b879446974b2df83b0ba8f302e62ad6555ce73b0671bd6f7"),
        # recorded before the alignment checks became one stacked pass; the last
        # two overflow in norms and products on every row
        (["grushin", "--param", "k=-1", "--condition", "oac2", "--lambda0", "0.5",
          "--level", "3", "--grid", "6"], 2,
         "5b5cff206633cb244cdeda7fdbefef1be4a1a6c13132d141d49b9624baa6442d"),
        (["circle-line", "--condition", "oac2", "--level", "3", "--grid", "6"], 0,
         "73bd35d6c2cf610c459818956f86a931c932ecf412d53cea77bda058a357522d"),
        (["grushin", "--param", "k=-1", "--condition", "oac", "--lambda0", "1e308",
          "--grid", "6"], 2,
         "ee0fe4a2d1ae79b9c6f10e4f21beaa26586d6d94bad3b598b53455a1fd2c454f"),
        (["grushin", "--param", "k=-1", "--condition", "oac", "--lambda0", "0.5",
          "--box", "1e200:1e300,1e200:1e300", "--grid", "4"], 0,
         "06c0bd259611e2ad2a1fb4a5cd2213e7cfa1bbd7004eb27f9b17178cb7e7791f"),
    ], ids=_FIRST_CHECK_IDS)
    def test_check_reports_match_recorded_hashes(self, tmp_path, args, code, digest):
        out = tmp_path / "report.json"
        assert cli.run(["check", "--system", *args, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the outputs of small simulator runs, recorded before the Heun
    # step was compiled; the riccati system blows up on 10 of its 40 paths.
    # The two simulate and derivative runs over 2100 paths cross the 2048-path
    # chunk boundary; they were recorded while each path still built its own
    # numpy PCG64 generator.  The malliavin run over 2100 paths (d = 2, a
    # stride, exit 2) was recorded before the variational step was compiled.
    @pytest.mark.parametrize("args, digests", [
        (["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.2",
          "--paths", "32", "--seed", "42", "--stride", "100"],
         {"--out": "9809163e1593bcb3052e24fdfd2830eb81f6d4da55fef445b4538f24d5491a46"}),
        (["simulate", "--system", "ufg-heisenberg", "--x0", "1,0,0", "--t", "0.05",
          "--paths", "9", "--seed", "2", "--stride", "5"],
         {"--out": "c8fd51427df279dcb26e618eb26bb090ed8449799ed6419fc3a54c6842e96edb"}),
        (["simulate", "--system", "RICCATI", "--x0", "0.9", "--t", "1", "--paths", "40",
          "--seed", "7", "--stride", "100"],
         {"--out": "727edd014520d901c2bf185763ea87460b903453e92f855c425d8b8cd82f9f79"}),
        (["converge", "--system", "grushin", "--param", "k=-1", "--x0", "0,1",
          "--times", "0.25,0.5", "--reference", "gaussian:0,0.4", "--paths", "128",
          "--seed", "3", "--escape-radius", "10"],
         {"--out": "43954da9573b115a0bc87b68b47b17e4f232836f86c8fae9afadb1b7350f88cf",
          "--csv": "ae493723290915deadb3f270c19fc007eaf4f94ac1c099129b09f84a8d6d2dbf"}),
        (["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "sin(z)",
          "--direction", "V1", "--x0", "0,1", "--t", "0.25", "--paths", "400", "--seed", "3"],
         {"--out": "bd77cbe93cb1b7b214a1ae0f51cda99ca78c3fb31751ae854aa51147aa70e7f2"}),
        (["zproc", "--system", "random-circles", "--x0", "1,0", "--t", "0.2", "--paths", "4",
          "--seed", "1", "--stride", "200"],
         {"--out": "46a77e5321eb8226edb41c051da36b2cde66b7a4ec763f34ba20bb000e36e7fa"}),
        (["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4", "--t", "0.5",
          "--paths", "16", "--seed", "5", "--split", "1"],
         {"--out": "82e27e120144dde9d1b4c252c3949f0fe2f4a63db793bc53b852dabf76cf4d75"}),
        (["malliavin", "--system", "grushin", "--param", "k=-1", "--x0", "0,1", "--t", "0.3",
          "--paths", "8", "--seed", "2", "--split", "1", "--stride", "10"],
         {"--out": "bbea4993fe3e287175267deab67e358391656784019fa6bc7ad32c8800d99a60"}),
        (["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.01",
          "--paths", "2100", "--seed", "4", "--stride", "5"],
         {"--out": "1b2dbb134cf6b6829a03de55b6a3342805de39c1698bff8447055b9cb026210e"}),
        (["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "sin(z)",
          "--direction", "V1", "--x0", "0,1", "--t", "0.01", "--paths", "2100", "--seed", "4"],
         {"--out": "9a9951fdd8dcdae14242594f6e2643a4f3fea3b76b59520e673a7ba478dd4645"}),
        (["malliavin", "--system", "ufg-heisenberg", "--x0", "1,0,0", "--t", "0.01",
          "--paths", "2100", "--seed", "4", "--split", "2", "--stride", "3"],
         {"--out": "31f1ac50a83a7179d4d324c8ceaa6dfedf2030625bc74801571a6e727649343e"}),
    ])
    def test_simulator_outputs_match_recorded_hashes(self, tmp_path, args, digests):
        riccati = tmp_path / "riccati.sys"
        riccati.write_text("dim = 1\nnoise = 1\nvars = x\nV0 = [x*x]\nV1 = [0.5]\n")
        args = [str(riccati) if a == "RICCATI" else a for a in args]
        paths = {flag: tmp_path / flag.strip("-") for flag in digests}
        argv = [*args, *(v for flag, p in paths.items() for v in (flag, str(p)))]
        # no ufg-heisenberg path passes the split-2 block and rank check
        violated = args[:3] == ["malliavin", "--system", "ufg-heisenberg"]
        assert cli.run(argv) == (cli.EXIT_VIOLATED if violated else cli.EXIT_OK)
        for flag, digest in digests.items():
            assert hashlib.sha256(paths[flag].read_bytes()).hexdigest() == digest, flag

    # sha256 of the --out report of small runs of the commands built on RK4
    # flows (zproc is pinned above); the lyapunov check was recorded before the
    # RK4 step was compiled.  The two charts (at eps 0.9 the Newton line search
    # rejects a trial) were recorded once every flow row took its own step
    # count: their rounding-level figures moved then, not their verdicts
    @pytest.mark.parametrize("args, digest", [
        (["chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.2",
          "--samples", "10", "--seed", "0"],
         "2220fbee6b49dff0f2832ee2f8ee9c23a4a832a2e529fbf66d713167154f951e"),
        (["check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
          "--phi", "z*z", "--c1", "80", "--c2", "4", "--grid", "3", "--times", "0,0.5,1",
          "--box", "-3:3,0.5:6"],
         "97ce881f8db08ea3b5b73495a46e7e8c6b0f139114d265ccde7be33e8fa9c49a"),
        (["chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.9",
          "--samples", "10", "--seed", "0"],
         "90b3478a8784f19d59a2e6e664173b127ea2ed5a6de5019cacd2e0d6f27d11a5"),
    ], ids=_FIRST_FLOW_IDS)
    def test_flow_outputs_match_recorded_hashes(self, tmp_path, args, digest):
        out = tmp_path / "report.json"
        assert cli.run([*args, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestThreads:
    SIMULATING = {"simulate", "zproc", "ranks", "malliavin", "converge", "derivative"}

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_rejected(self, capsys, value):
        code, out, err = run_cli(["simulate", "--system", "random-circles", "--x0", "1,0",
                                  "--t", "0.01", "--paths", "2", "--threads", value], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert "argument --threads: must be at least 1" in json.loads(err)["error"]

    @pytest.mark.parametrize("cmd", sorted(SIMULATING | {"check", "decompose", "chart",
                                                         "fpresidual"}))
    def test_only_commands_that_simulate_take_it(self, capsys, cmd):
        code, out, _ = run_cli([cmd, "--help"], capsys)
        assert code == cli.EXIT_OK
        assert ("--threads" in out) == (cmd in self.SIMULATING)

    def test_geometry_command_rejects_it(self, capsys):
        code, out, err = run_cli(["check", "--system", "linear", "--condition", "hc",
                                  "--threads", "2"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert "unrecognized arguments: --threads 2" in json.loads(err)["error"]


class TestSamplingFlags:
    # --box and --grid set the sample points of check and decompose; the
    # commands that sample nothing reject them instead of ignoring them
    @pytest.mark.parametrize("cmd", ["zproc", "ranks", "chart"])
    @pytest.mark.parametrize("flag, value", [("--box", "5:6,7:8"), ("--grid", "999")])
    def test_commands_that_sample_nothing_reject_them(self, capsys, cmd, flag, value):
        code, out, err = run_cli(_BASE[cmd] + [flag, value], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {flag}" in json.loads(err)["error"]

    # a --points file is the whole sample plan of check and decompose, so
    # --box or --grid beside it is a usage error, raised before any loading
    @pytest.mark.parametrize("cmd", [
        ["check", "--system", "sine-ou", "--param", "k=2", "--condition", "hc"],
        ["decompose", "--system", "sine-ou", "--param", "k=2"],
    ])
    @pytest.mark.parametrize("flag, value", [("--box", "5:6,7:8"), ("--grid", "999"),
                                             ("--grid", "32")])
    def test_points_exclude_box_and_grid(self, capsys, tmp_path, cmd, flag, value):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,1\n0.5,2\n")
        argv = [*cmd, "--points", str(path), flag, value]
        with mock.patch.object(cli, "load_system", side_effect=AssertionError("loaded")):
            code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith(f"--points excludes {flag}")

    def test_decompose_grid_defaults_to_32(self, capsys, tmp_path):
        # a --points run reads no box or grid, so its report holds neither
        path = tmp_path / "pts.csv"
        path.write_text("0.1,1\n0.5,2\n")
        argv = ["decompose", "--system", "sine-ou", "--param", "k=2"]
        for extra, grid in ((["--points", str(path)], None), ([], 32), (["--grid", "2"], 2)):
            code, out, _ = run_cli([*argv, *extra], capsys)
            assert code == cli.EXIT_OK
            metadata = json.loads(out)["metadata"]
            assert metadata.get("grid") == grid
            assert ("box" in metadata) == (grid is not None)

    @pytest.mark.parametrize("condition", ["ufg", "lyapunov"])
    def test_check_with_points_reports_no_box_or_grid(self, capsys, tmp_path, condition):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,1\n0.5,2\n")
        argv = [*_check_argv(condition, cheap=False), "--points", str(path)]
        code, out, _ = run_cli(argv, capsys)
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED)
        metadata = json.loads(out)["metadata"]
        assert metadata["points"] == str(path) and not {"box", "grid"} & set(metadata)


# The condition flags of `check`, each with a cheap valid value for sine-ou
# (POINTS is replaced by a file of points), and the flags each condition reads.
_CHECK_FLAGS = {
    "--level": "1", "--rtol": "1e-6", "--box": "-2:2,1:3", "--grid": "3",
    "--points": "POINTS", "--lambda0": "0.5", "--tol": "1e-6", "--residual-tol": "1e-6",
    "--coeff-threshold": "1e5", "--phi": "z*z", "--c1": "80", "--c2": "4",
    "--times": "0,0.5",
}
_FRAME_FLAGS = ("--level", "--box", "--grid", "--points")
_CHECK_READS = {
    "ufg": (*_FRAME_FLAGS, "--rtol", "--residual-tol", "--coeff-threshold"),
    "hc": (*_FRAME_FLAGS, "--rtol"),
    "phc": (*_FRAME_FLAGS, "--rtol"),
    "oac": (*_FRAME_FLAGS, "--lambda0", "--tol"),
    "oac2": (*_FRAME_FLAGS, "--lambda0", "--tol"),
    "kalman": ("--rtol",),
    "lyapunov": ("--box", "--grid", "--points", "--phi", "--c1", "--c2", "--times"),
}
_CHECK_PAIRS = [(c, f) for c in _CHECK_READS for f in _CHECK_FLAGS]
assert len(_CHECK_PAIRS) == 91 and sum(f in _CHECK_READS[c] for c, f in _CHECK_PAIRS) == 37


def _check_argv(condition, cheap):
    """A valid check run of `condition` with only flags it reads; `cheap` sets
    a small --grid, and --times for lyapunov."""
    if condition == "kalman":
        return ["check", "--system", "linear", "--condition", "kalman"]
    argv = ["check", "--system", "sine-ou", "--param", "k=2", "--condition", condition]
    if condition == "lyapunov":
        argv += ["--phi", "z*z"] + (["--times", "0,0.5"] if cheap else [])
    return argv + (["--grid", "2"] if cheap else [])


class TestFlagsReadOnly:
    """Every flag a command accepts is one it reads (see the cli docstring)."""

    @pytest.mark.parametrize("condition, flag", _CHECK_PAIRS)
    def test_check_accepts_only_the_flags_its_condition_reads(self, capsys, tmp_path,
                                                              condition, flag):
        value = _CHECK_FLAGS[flag]
        if value == "POINTS":
            value = str(tmp_path / "pts.csv")
            (tmp_path / "pts.csv").write_text("0.1,1\n0.5,2\n")
        argv = _check_argv(condition, cheap=True)
        if flag == "--points" and "--grid" in argv:  # the points exclude --grid
            argv = argv[:-2]
        argv += [flag, value]
        if flag in _CHECK_READS[condition]:
            assert run_cli(argv, capsys)[0] in (cli.EXIT_OK, cli.EXIT_VIOLATED)
            return
        with mock.patch.object(cli, "load_system", side_effect=AssertionError("loaded")):
            code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        message = json.loads(err)["error"]
        assert message.startswith(f"{flag} is not read by the {condition} check")

    @pytest.mark.parametrize("condition", sorted(_CHECK_READS))
    def test_read_flags_at_their_defaults_change_no_byte(self, tmp_path, condition):
        # the defaults of --level and --box are sine-ou's catalog level and box
        defaults = {"--level": "1", "--rtol": "1e-08", "--box": "-3:3,0.5:6", "--grid": "32",
                    "--lambda0": "0.001", "--tol": "1e-09", "--residual-tol": "1e-08",
                    "--coeff-threshold": "1000000", "--c1": "1", "--c2": "1",
                    "--times": "0,1,10"}
        argv = _check_argv(condition, cheap=False)
        given = [v for flag in _CHECK_READS[condition] if flag in defaults
                 for v in (flag, defaults[flag])]
        reports = []
        for extra in ([], given):
            out = tmp_path / f"report{len(extra)}.json"
            assert cli.run([*argv, *extra, "--out", str(out)]) in (cli.EXIT_OK,
                                                                 cli.EXIT_VIOLATED)
            reports.append(out.read_bytes())
        assert given and reports[0] == reports[1]

    @pytest.mark.parametrize("flag, value", [("--name", "gbm"), ("--param", "k=2"),
                                             ("--export", "x.sys"), ("--out", "x.json")])
    def test_catalog_list_takes_no_flags(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(["catalog", "list", flag, str(tmp_path / value)], capsys)
        assert code == cli.EXIT_USAGE and out == "" and list(tmp_path.iterdir()) == []
        assert f"unrecognized arguments: {flag}" in json.loads(err)["error"]

    def test_catalog_show_writes_one_output(self, capsys, tmp_path):
        code, out, err = run_cli(["catalog", "show", "--name", "gbm", "--export",
                                  str(tmp_path / "gbm.sys"), "--out", str(tmp_path / "r")],
                                 capsys)
        assert code == cli.EXIT_USAGE and out == "" and list(tmp_path.iterdir()) == []
        assert "not allowed with argument --export" in json.loads(err)["error"]

    @pytest.mark.parametrize("flag, value", [("--level", "2"), ("--rtol", "1e-6")])
    def test_zproc_reads_level_and_rtol_only_without_a_closed_form(self, capsys, tmp_path,
                                                                   flag, value):
        csv = tmp_path / "z.csv"
        args = ["--x0", "1,0", "--t", "0.01", "--paths", "2", flag, value, "--out", str(csv)]
        with mock.patch.object(cli, "simulate_paths", side_effect=AssertionError("simulated")):
            code, out, err = run_cli(["zproc", "--system", "random-circles", *args], capsys)
        assert code == cli.EXIT_USAGE and out == "" and not csv.exists()
        assert json.loads(err)["error"].startswith(f"{flag} is not read by zproc")
        code, out, _ = run_cli(["zproc", "--system", "sinfields", *args], capsys)
        assert code == cli.EXIT_OK and csv.read_text().startswith("path_id,time,")


def test_commands_import_no_scipy():
    # numpy is the one runtime dependency: scipy serves the tests as an oracle only
    script = """
import json, sys
from ufgsim import catalog, cli
for argv in sys.argv[1:]:
    assert cli.run(json.loads(argv)) in (0, 2), argv
catalog.stationary_density_normalization()
sys.stderr.write(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""
    runs = [
        ["converge", "--system", "grushin", "--param", "k=-1", "--x0", "0,1", "--times",
         "0.1,0.2", "--reference", "gaussian:0,0.2", "--paths", "200", "--escape-radius",
         "10"],
        ["chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.2",
         "--samples", "5"],
        ["check", "--system", "ufg-heisenberg", "--condition", "ufg", "--grid", "3"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, *map(json.dumps, runs)],
                          capture_output=True, check=True, env=env)
    assert json.loads(proc.stderr) == []


# Cheap valid invocations of every subcommand, which the fuzz test edits.
_BASE = {
    "catalog": ["catalog", "show", "--name", "sine-ou"],
    "check": ["check", "--system", "sine-ou", "--param", "k=2", "--condition", "hc",
              "--grid", "2"],
    "decompose": ["decompose", "--system", "ufg-heisenberg", "--grid", "2"],
    "chart": ["chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.1",
              "--samples", "2"],
    "simulate": ["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.01",
                 "--paths", "2"],
    "zproc": ["zproc", "--system", "random-circles", "--x0", "1,0", "--t", "0.01",
              "--paths", "2"],
    "ranks": ["ranks", "--system", "random-circles", "--x0", "1,0", "--t", "0.01",
              "--paths", "2"],
    "malliavin": ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
                  "--t", "0.01", "--paths", "2", "--split", "1"],
    "converge": ["converge", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
                 "--times", "0.01", "--reference", "gaussian:0,1", "--paths", "20"],
    "fpresidual": ["fpresidual", "--system", "circle-line", "--density",
                   "exp(-1/(1-cos(z)))/(1-cos(z))", "--grid", "0.2:6:5"],
    "derivative": ["derivative", "--system", "grushin", "--param", "k=0.5", "--f", "sin(z)",
                   "--direction", "V1", "--x0", "0,1", "--t", "0.01", "--paths", "20"],
}


class TestSubcommands:
    def test_catalog_list(self, capsys):
        code, out, _ = run_cli(["catalog", "list"], capsys)
        assert code == cli.EXIT_OK
        assert "circle-line" in out.split()

    def test_catalog_export_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "rc.sys"
        code, _, _ = run_cli(["catalog", "show", "--name", "random-circles",
                              "--export", str(path)], capsys)
        assert code == cli.EXIT_OK
        system, _ = cli.parse_system_file(str(path))
        assert system.dim == 2

    def test_decompose(self, capsys):
        code, out, _ = run_cli(["decompose", "--system", "ufg-heisenberg",
                                "--grid", "3"], capsys)
        assert code == cli.EXIT_OK
        rec = json.loads(out)["records"][0]
        x = rec["point"]
        assert rec["orthogonal"][0] == pytest.approx(-x[0], abs=1e-9)

    def test_zproc(self, capsys):
        code, out, _ = run_cli(["zproc", "--system", "random-circles", "--x0", "1,0",
                                "--t", "0.2", "--dt", "0.001", "--paths", "4",
                                "--seed", "1", "--stride", "200"], capsys)
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        finals = [r for r in rows if float(r[1]) == 0.2]
        for row in finals:
            assert abs(float(row[3])) < 0.05 * abs(float(row[2]))

    def test_ranks(self, capsys):
        code, out, _ = run_cli(["ranks", "--system", "ufg-heisenberg", "--x0", "1,0,0",
                                "--t", "0.05", "--dt", "0.001", "--paths", "2",
                                "--seed", "1", "--stride", "25"], capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "path_id,time,rank"
        assert all(line.endswith(",3") for line in out.splitlines()[1:])

    def test_kalman_subcommand(self, capsys):
        code, out, _ = run_cli(["check", "--system", "linear", "--condition", "kalman"],
                               capsys)
        payload = json.loads(out)
        assert code == cli.EXIT_VIOLATED and payload["rank"] == 1

    def test_fpresidual(self, capsys):
        code, out, _ = run_cli(["fpresidual", "--system", "circle-line", "--density",
                                "exp(-1/(1-cos(z)))/(1-cos(z))", "--grid",
                                f"0.2:{2 * math.pi - 0.2}:100"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["max_abs"] <= 1e-8

    def test_derivative(self, capsys):
        code, out, _ = run_cli(["derivative", "--system", "grushin", "--param", "k=0.5",
                                "--f", "sin(z)", "--direction", "V1", "--x0", "0,1",
                                "--t", "0.25", "--paths", "400", "--seed", "3"], capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert "estimate" in payload and "stderr" in payload

    def test_chart_subcommand(self, capsys):
        code, out, _ = run_cli(["chart", "--system", "random-circles", "--x0", "1,0",
                                "--eps", "0.2", "--samples", "10", "--seed", "0"],
                               capsys)
        payload = json.loads(out)
        assert code == cli.EXIT_OK
        assert payload["chart"]["n"] == 1
        assert payload["newton_roundtrip_error"] <= 1e-8

    def test_lyapunov_subcommand(self, capsys):
        code, out, _ = run_cli(["check", "--system", "sine-ou", "--param", "k=2",
                                "--condition", "lyapunov", "--phi", "z*z",
                                "--c1", "80", "--c2", "4", "--times", "0,1,5",
                                "--box", "-3:3,0.5:6", "--grid", "5"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["verdict"] == "satisfied_on_samples"

    def test_output_to_file_matches_stdout(self, capsys, tmp_path):
        # so --out is no setting that a report echoes
        for cmd, args in [("check-gbm", ["check", "--system", "gbm", "--condition", "hc",
                                         "--box", "0.5:2", "--grid", "5"]), *_BASE.items()]:
            code, out, _ = run_cli(args, capsys)
            path = tmp_path / f"{cmd}.out"
            assert run_cli(args + ["--out", str(path)], capsys)[:2] == (code, "")
            assert path.read_text() == out and code in (cli.EXIT_OK, cli.EXIT_VIOLATED), cmd


# Well-formed values are kept small so that every run stays quick, except for
# sizes over the cap on one request's arrays, which are rejected before any work.
_REALS = ["0.5", "1e-6", "0", "-1", "1e300"]
_VALUES = {
    "--system": ["sine-ou", "grushin", "random-circles", "ufg-heisenberg", "circle-line",
                 "linear", "gbm", "no-such-system"],
    "--param": ["k=2", "k=-1", "k=0.5", "k=1e300", "k", "zz=1", "k=x"],
    "--name": ["sine-ou", "grushin", "nope"],
    "--x0": ["1,0", "0,4", "0,1", "1,0,0", "1", "1e300,0", "0,,1"],
    "--t": ["0.01", "0.002", "0.0015", "-1", "1e-9", "1e15"],
    "--dt": ["0.001", "0.005", "-0.001", "1e-300"],
    "--paths": ["1", "3", "0", "-2", "2.5", "1000000000000"],
    "--stride": ["1", "3", "0", "-1"],
    "--seed": ["0", "5", "-1", "18446744073709551616"],
    "--split": ["1", "0", "3", "-1"],
    "--level": ["1", "2", "0", "-1"],
    "--grid": ["2", "3", "0", "-1", "0.2:6:5", "0:1:0", "1:0:3", "0:1:-2", "0:1", "1000000000",
               "0:1:10000000000"],
    "--box": ["-1:1,0.5:2", "0.5:2", "1:0,0:1", "-1:1,0.5:2,0:1", "0:1,0:1,0:1", "1:1,0:1"],
    "--condition": ["ufg", "hc", "phc", "oac", "oac2", "kalman", "lyapunov", "bogus"],
    "--phi": ["z*z", "log(z)", "1/(", "q", "exp(z*z*z*z)"],
    "--times": ["0,0.01", "0.01", "0,-0.01", "0.01,,0.02"],
    "--reference": ["gaussian:0,1", "dirac:0", "gaussian:0", "none", "cauchy:0,1",
                    "gaussian:0,-1", ";;gaussian:0,1"],
    "--density": ["exp(-1/(1-cos(z)))/(1-cos(z))", "1", "log(z)", "z +", "0"],
    "--f": ["sin(z)", "z*x", "log(z)", "x"],
    "--direction": ["V1", "V0", "v0perp", "[1,0]", "[1]", "V9", "[log(x),1]"],
    "--eps": ["0.1", "0", "-0.1", "2"],
    "--samples": ["2", "0", "-1", "1000000000"],
    "--threads": ["1", "2", "0"],
    **{flag: _REALS for flag in ("--rtol", "--tol", "--lambda0", "--c1", "--c2", "--h",
                                 "--cond-threshold", "--escape-radius", "--ks-tolerance",
                                 "--residual-tol", "--coeff-threshold", "--fd-step",
                                 "--newton-tol")},
}
_GARBAGE = ["nan", "inf", "-inf", "", "x", "1e400", "-", "--", "0:1", "1,2,3", "-3"]
# flags whose removal could turn a cheap run into a slow one
_SIZE_FLAGS = ("--grid", "--samples", "--paths")

_edit = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(_VALUES)), st.integers(0, 99),
              st.booleans()),
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("token"), st.sampled_from(_GARBAGE + sorted(_VALUES))),
)


def _apply(argv, edit):
    if edit[0] == "set":  # argparse keeps the last value given to a flag
        _, flag, pick, garbage = edit
        pool = _GARBAGE if garbage else _VALUES[flag]
        return argv + [flag, pool[pick % len(pool)]]
    if edit[0] == "drop":
        flags = [i for i, tok in enumerate(argv) if tok.startswith("--")
                 and tok not in _SIZE_FLAGS]
        if not flags:
            return argv
        i = flags[edit[1] % len(flags)]
        return argv[:i] + argv[i + 2:]
    return argv + [edit[1]]


def _parser_of(argv):
    """The parser of the (sub)command named in argv."""
    parser = cli.build_parser()
    for word in argv:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            break
        parser = subs[0].choices[word]
    return parser


def _real_flags(cmd):
    """The flags of _BASE[cmd]'s (sub)command that take one real number."""
    return [a.option_strings[0] for a in _parser_of(_BASE[cmd])._actions
            if a.type in (cli.finite_float, cli.non_negative)]


@pytest.mark.parametrize("argv", [
    _BASE[cmd] + [flag, value]
    for cmd in sorted(_BASE) for flag in _real_flags(cmd) for value in ("0", "-1", "-1e-9")
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_real_flag_edge_values_fail_as_json(argv):
    """Each real-valued flag of each base command line at 0, at -1 and at
    -1e-9 (which argparse alone reads as an option): a verdict, or a JSON
    error, and no warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_USAGE, cli.EXIT_NUMERIC)
    if code in (cli.EXIT_USAGE, cli.EXIT_NUMERIC):
        assert "error" in json.loads(err.getvalue())


@pytest.mark.parametrize("argv", [
    _BASE["check"] + ["--rtol", "-1"],
    ["check", "--system", "sinfields", "--condition", "ufg", "--grid", "2",
     "--residual-tol", "-1"],
    ["check", "--system", "sinfields", "--condition", "ufg", "--grid", "2",
     "--coeff-threshold", "-1"],
    ["check", "--system", "sine-ou", "--condition", "oac", "--grid", "2", "--tol", "-1"],
    _BASE["decompose"] + ["--rtol", "-0.5"],
    _BASE["chart"] + ["--tol", "-1"],
    _BASE["chart"] + ["--rtol", "-1e-9"],  # exponent form, which argparse reads as an option
    _BASE["chart"] + ["--newton-tol", "-1"],
    _BASE["converge"] + ["--ks-tolerance", "-1"],
    _BASE["converge"] + ["--escape-radius", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_negative_tolerance_rejected_up_front(capsys, argv):
    with mock.patch.object(cli, "load_system", side_effect=AssertionError("work begun")):
        code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert json.loads(err)["error"].endswith(
        f"argument {argv[-2]}: must be non-negative, got {float(argv[-1])!r}")


@given(st.sampled_from(sorted(_BASE)), st.lists(_edit, max_size=3))
@settings(max_examples=100, deadline=None)
def test_fuzzed_command_lines_fail_as_json(cmd, edits):
    argv = list(_BASE[cmd])
    for edit in edits:
        argv = _apply(argv, edit)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_USAGE, cli.EXIT_NUMERIC), argv
    assert "Traceback" not in err, argv
    if code in (cli.EXIT_USAGE, cli.EXIT_NUMERIC):
        payload = json.loads(err.splitlines()[-1])
        assert isinstance(payload, dict) and "error" in payload, argv


_SYSTEM_LINES = TestSystemFiles.GOOD.encode().splitlines()
_SYSTEM_KEYS = [b"dim", b"noise", b"vars", b"V0", b"V1", b"V2", b"V7", b"V01", b"param k",
                b"", b"W1"]
_SYSTEM_VALUES = [b"2", b"1", b"0", b"-1", b"2.5", b"x", b"", b"3", b"10000000000",
                  b"z, zeta", b"z,", b"z, z", b"[zeta, 0]", b"[1]", b"[garbage((]", b"[1, 2",
                  b"nan", b"\xff\xfe"]
_system_edit = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.tuples(st.just("set"), st.sampled_from(_SYSTEM_KEYS), st.sampled_from(_SYSTEM_VALUES)),
    st.tuples(st.just("line"), st.sampled_from([b"nokey", b"= 3", b"# note", b"\xc3(",
                                                b"dim == 2", b"\x00"])),
)


@given(st.lists(_system_edit, max_size=4))
@settings(max_examples=100, deadline=None)
def test_fuzzed_system_files_fail_as_json(edits):
    lines = list(_SYSTEM_LINES)
    for edit in edits:
        if edit[0] in ("drop", "repeat") and lines:
            i = edit[1] % len(lines)
            lines[i:i + 1] = [] if edit[0] == "drop" else [lines[i], lines[i]]
        elif edit[0] == "set":  # a later line for the key, or its first
            lines.append(edit[1] + b" = " + edit[2])
        elif edit[0] == "line":
            lines.append(edit[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.sys")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["check", "--system", path, "--condition", "hc",
                            "--box", "-3:3,0.5:6", "--grid", "2"])
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_USAGE, cli.EXIT_NUMERIC), lines
    assert "Traceback" not in err, lines
    if code in (cli.EXIT_USAGE, cli.EXIT_NUMERIC):
        payload = json.loads(err.splitlines()[-1])
        assert isinstance(payload, dict) and "error" in payload, lines


# Every flag a command accepts is echoed under "metadata", except these: the
# system and its parameters (top-level in the report), the outputs, --threads
# (which changes no result) and check's --condition (part of "command").
_NOT_METADATA = {"system", "name", "param", "out", "csv", "export", "threads", "condition"}
_JSON_COMMANDS = sorted(set(_BASE) - {"simulate", "zproc", "ranks"})


def _accepted_dests(argv):
    """The dests of the flags that the (sub)command named in argv accepts."""
    return {a.dest for a in _parser_of(argv)._actions if a.option_strings and a.dest != "help"}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _metadata(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED), err
    return json.loads(out)["metadata"]


class TestReportMetadata:
    """A report's "metadata" is the value of every flag its command read."""

    @pytest.mark.parametrize("cmd", _JSON_COMMANDS)
    def test_keys_are_the_accepted_flags(self, capsys, cmd):
        want = _accepted_dests(_BASE[cmd]) - _NOT_METADATA
        if cmd == "check":
            want -= {_dest(f) for f in _CHECK_FLAGS} - {_dest(f) for f in _CHECK_READS["hc"]}
        assert set(_metadata(_BASE[cmd], capsys)) == want

    @pytest.mark.parametrize("condition", sorted(_CHECK_READS))
    def test_check_keys_are_the_flags_its_condition_reads(self, capsys, condition):
        metadata = _metadata(_check_argv(condition, cheap=True), capsys)
        assert set(metadata) == {_dest(f) for f in _CHECK_READS[condition]}

    def test_lyapunov_echoes_its_settings_and_no_other(self, capsys):
        metadata = _metadata(["check", "--system", "sine-ou", "--param", "k=2", "--condition",
                              "lyapunov", "--phi", "z*z", "--c1", "80", "--c2", "4", "--grid",
                              "3", "--times", "0,0.5,1", "--box", "-3:3,0.5:6"], capsys)
        assert metadata == {"phi": "z*z", "c1": 80.0, "c2": 4.0, "times": [0.0, 0.5, 1.0],
                            "box": [[-3.0, 3.0], [0.5, 6.0]], "grid": 3, "points": None}
        assert not {"rtol", "tol", "lambda0", "residual_tol", "coeff_threshold", "level",
                    "seed", "dt", "lambda0_sweep"} & set(metadata)

    def test_defaults_filled_in_are_echoed(self, capsys):
        # lyapunov's --times and --box, and the step --h that derivative derives from --x0
        metadata = _metadata(_check_argv("lyapunov", cheap=False) + ["--grid", "2"],
                             capsys)
        assert metadata["times"] == [0.0, 1.0, 10.0]
        assert metadata["box"] == [[-3.0, 3.0], [0.5, 6.0]]
        assert _metadata(_BASE["derivative"], capsys)["h"] == 1e-3 * (1.0 + 1.0)

    def test_malliavin_echoes_its_settings(self, capsys):
        assert _metadata(_BASE["malliavin"], capsys) == {
            "x0": [0.0, 4.0], "t": 0.01, "dt": 1e-3, "paths": 2, "seed": 0, "stride": 1,
            "split": 1, "cond_threshold": 1e10}

    def test_catalog_entry_facts_are_in_the_body(self, capsys):
        code, out, _ = run_cli(_BASE["catalog"], capsys)
        payload = json.loads(out)
        assert payload["metadata"] == {}
        assert payload["level"] == 1 and payload["variables"] == ["z", "zeta"]

    @pytest.mark.parametrize("cmd", ["malliavin", "converge", "derivative"])
    def test_threads_change_no_byte(self, capsys, cmd):
        outs = [run_cli(_BASE[cmd] + ["--threads", k], capsys)[1] for k in ("1", "2")]
        assert outs[0] == outs[1] and json.loads(outs[0])["schema_version"] == 1
