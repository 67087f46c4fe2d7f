import json
import math

import numpy as np
import pytest

from ufgsim import cli


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
        assert cli.parse_param_list(["k=-1", "name=foo"]) == {"k": -1.0, "name": "foo"}
        with pytest.raises(cli.UsageError):
            cli.parse_param_list(["oops"])

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
        want = mal.malliavin_matrix(vp, system)
        got = [p["matrix"] for p in json.loads(out)["paths"]]
        assert got == want.reshape(4, -1).tolist()

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
        args = ["check", "--system", "gbm", "--condition", "hc", "--box", "0.5:2",
                "--grid", "5"]
        _, out, _ = run_cli(args, capsys)
        path = tmp_path / "report.json"
        run_cli(args + ["--out", str(path)], capsys)
        assert path.read_text() == out
