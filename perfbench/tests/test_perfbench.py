"""Tests of the benchmark itself: span arithmetic, failure accounting, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ufgsim import cli, dynamics, geometry, malliavin  # noqa: E402


@pytest.fixture
def traced():
    tr = tracer.Tracer()
    installation = tracer.install(tr)
    try:
        yield tr, installation
    finally:
        installation.uninstall()


def _call(tr, name, start, stop, children=()):
    """Replay one call of `name` over [start, stop] with nested child calls."""
    rec = tr.begin(name)
    for child in children:
        _call(tr, *child)
    tr.end(rec, start, stop)
    return rec


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    tr = tracer.Tracer()
    tr.job = "j"
    # cli.run [0, 100] > dynamics.simulate_paths [10, 60] > eval_batch x2 (5 + 15)
    #                  > diagnostics.ks_distance x2 (10 + 20), folded into one record
    _call(tr, "cli.run", 0, 100, [
        ("dynamics.simulate_paths", 10, 60, [
            (tracer.EVAL, 12, 17), (tracer.EVAL, 20, 35)]),
        ("diagnostics.ks_distance", 60, 70),
        ("diagnostics.ks_distance", 75, 95),
    ])
    recs = {r.name: r for r in tr.records}
    assert recs[tracer.EVAL].calls == 2 and recs[tracer.EVAL].total == 20
    assert recs["diagnostics.ks_distance"].calls == 2
    selfs = tracer.self_times(tr.records)
    assert selfs[recs["cli.run"].id] == 100 - 50 - 30
    assert selfs[recs["dynamics.simulate_paths"].id] == 50 - 20
    assert selfs[recs[tracer.EVAL].id] == 20
    assert selfs[recs["diagnostics.ks_distance"].id] == 30
    summary = tracer.Summary(tr.records)
    assert summary.get("dynamics.simulate_paths", "self_ns") == 30
    assert summary.under(tracer.EVAL, "cli.run") == 2
    assert summary.under(tracer.EVAL, "diagnostics.ks_distance") == 0


def _fake_cli(payload, code=0):
    def fake(argv):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(payload))
        return code
    return fake


def _workload(*jobs):
    return workloads.Workload("test", tuple(jobs))


DERIVATIVE = next(j for j in workloads.ENSEMBLE.jobs if j.name == "derivative")


def test_a_wrong_output_is_counted_in_failed(tmp_path):
    good = run.Runner(_workload(DERIVATIVE), 0, tmp_path,
                      _fake_cli({"estimate": 0.1794, "stderr": 0.01}))
    good.run_pass(threads=1)
    assert (good.attempted, good.failed) == (1, 0)

    wrong = run.Runner(_workload(DERIVATIVE), 0, tmp_path,
                       _fake_cli({"estimate": 0.5, "stderr": 0.01}))
    wrong.run_pass(threads=1)
    assert (wrong.attempted, wrong.failed) == (1, 1)
    assert "oracle" in wrong.errors[0]


def test_output_that_changes_between_passes_is_counted_in_failed(tmp_path):
    estimates = iter([0.1794, 0.1795])
    runner = run.Runner(_workload(DERIVATIVE), 0, tmp_path,
                        lambda argv: _fake_cli({"estimate": next(estimates),
                                                "stderr": 0.01})(argv))
    runner.run_pass(threads=1)
    runner.run_pass(threads=2)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "differ" in runner.errors[0]


def test_an_unexpected_exit_code_is_counted_in_failed(tmp_path):
    oac = next(j for j in workloads.GEOMETRY.jobs if j.name == "oac-grushin")
    runner = run.Runner(_workload(oac), 0, tmp_path, cli.run)
    runner.run_pass(threads=1)
    assert (runner.attempted, runner.failed) == (1, 0)

    expects_ok = replace(oac, expect_exit=0)
    runner = run.Runner(_workload(expects_ok), 0, tmp_path, cli.run)
    runner.run_pass(threads=1)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit code 2" in runner.errors[0]


def test_a_raising_job_is_counted_in_failed(tmp_path):
    def boom(argv):
        raise RuntimeError("simulated crash")
    runner = run.Runner(_workload(DERIVATIVE), 0, tmp_path, boom)
    runner.run_pass(threads=1)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_a_missing_per_layer_counter_is_reported_not_zero(monkeypatch):
    from ufgsim import expr

    monkeypatch.delattr(expr, "evaluate_array")
    tr = tracer.Tracer()
    installation = tracer.install(tr)
    try:
        assert "expr.evaluate_array" not in installation.wrapped
        values, _, missing = tracer.layer_metrics(tr.records, installation.wrapped)
    finally:
        installation.uninstall()
    for name in ("expr.evaluate_array.calls", "expr.evaluate_array.s",
                 "expr.evaluate_array.rows_per_call"):
        assert name in missing
        assert name not in values
    assert "expr.evaluate.calls" in values


def test_every_binding_site_is_wrapped_and_restored(traced):
    tr, installation = traced
    from ufgsim import diagnostics, fields

    sites = [(geometry, "flow"), (geometry, "flow_jacobian"), (geometry, "svd_rank"),
             (geometry, "project_onto_columns"), (geometry, "greedy_independent_columns"),
             (dynamics, "svd_rank"), (diagnostics, "simulate_paths"),
             (cli, "simulate_paths"), (cli, "auxiliary_process"),
             (cli, "simulate_variational"), (cli, "malliavin_matrix"),
             (cli, "block_check_ensemble"), (cli, "build_hierarchy"),
             (malliavin, "_heun_step"), (fields.VectorField, "eval_batch"),
             (geometry.Chart, "inverse")]
    originals = [getattr(owner, attr).__wrapped__ for owner, attr in sites]
    assert not hasattr(dynamics._heun_step, "__wrapped__")
    assert geometry.flow is dynamics.flow
    installation.uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original


def _job_summary(tr, argv, job="j"):
    tr.reset()
    tr.job = job
    code = cli.run(argv)
    assert code == 0
    return tracer.Summary([r for r in tr.records if r.job == job])


def test_seed_commit_predictions_on_small_jobs(traced, tmp_path):
    tr, installation = traced
    out = str(tmp_path / "out")
    K = 20
    s = _job_summary(tr, ["zproc", "--system", "random-circles", "--x0", "1,0",
                          "--t", "0.02", "--dt", "0.001", "--paths", "10", "--out", out])
    assert s.get("dynamics.flow", "steps") == K * (K + 1) // 2
    assert s.get("cli.run") == 1

    s = _job_summary(tr, ["malliavin", "--system", "sine-ou", "--param", "k=2",
                          "--x0", "0,4", "--t", "0.02", "--paths", "5", "--split", "1",
                          "--out", out])
    steps = s.get(tracer.VAR, "steps")
    assert steps == 20
    assert s.under(tracer.EVAL, tracer.VAR) / steps == 6
    assert s.get(tracer.JAC) / steps == 4
    assert s.get("dynamics.flow", "steps") == 0

    s = _job_summary(tr, ["simulate", "--system", "random-circles", "--x0", "1,0",
                          "--t", "0.05", "--paths", "2000", "--out", out])
    values, _, missing = tracer.layer_metrics(s.records, installation.wrapped)
    assert not missing
    assert values["expr.evaluate_array.rows_per_call"] >= 1000
    assert values["dynamics.flow.steps"] == 0
    assert values["dynamics.path_steps"] == 2000 * 50


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {m.name: m.unit for m in tracer.METRICS}
    want["trace.overhead_frac"] = "ratio"
    assert per_layer == want
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_ref_s", "peak_rss_mb"}


def test_job_seeds_follow_the_workload_seed():
    a = [workloads.job_seed("ensemble", 1, i) for i in range(3)]
    assert a == [workloads.job_seed("ensemble", 1, i) for i in range(3)]
    assert len(set(a)) == 3
    assert a != [workloads.job_seed("ensemble", 2, i) for i in range(3)]


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
