"""Benchmark of the ufgsim README commands: end-to-end metrics and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One process per workload run.  It imports `ufgsim` from `src/` and runs the
workload's jobs (see workloads.py) in-process through `ufgsim.cli.run(argv)`,
one after another: a closed loop with one client.  Simulation jobs get
`--threads 2`.  A run first makes one pass with `--threads 1`, which warms
caches, runs every job's oracle and records the sha256 of every output;
each later pass must reproduce those bytes exactly (the determinism twins).

`--trace 0` reports the end-to-end metrics, with tracing off:
  setup_s      median of 3 cold starts of a fresh interpreter that imports
               ufgsim.cli, builds the parser and loads (with selfcheck) every
               catalog system the workload uses;
  wall_ref_s   median over as many passes of the workload's job list as fit
               in --seconds (at least 3) of the pass's wall time scaled to
               the reference machine speed: pass seconds * CAL_REF_S / the
               mean time of the `calibrate()` runs just before and after it;
  peak_rss_mb  peak resident memory (ru_maxrss) of the workload process.
The scaling is there because a shared host's speed drifts by 1.5x to 2x
over tens of seconds, which moves wall_s between runs far more than its
bound allows; the calibration kernel slows with the host and not with
ufgsim, so a change to the program moves wall_ref_s as much as wall_s
(the median unscaled pass time, also reported).
`--trace 1` runs untraced passes for half of --seconds, then traced passes
(tracer.py) for the other half, and reports the per-layer metrics plus
trace.overhead_frac (traced over untraced wall_s, minus 1).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The line before it is the workload's row: wall_s, path_steps_per_s and
failed_frac are printed there but are not gated metrics (wall_s is what
wall_ref_s scales, path_steps_per_s is undefined on workloads without
simulation jobs, failed_frac is 0 on a correct program and
`failed`/`attempted` carry it).  The full record -- provenance, the argv and
output sha256 of every job, all samples -- goes to
perfbench/out/<workload>-seed<seed>-trace<t>.json, and the traced run's
spans to perfbench/out/<workload>-seed<seed>-spans.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
THREADS = 2
# median of calibrate() on the reference machine, a 2-core x86-64 VM
# (Xeon, Python 3.11, numpy 2.4)
CAL_REF_S = 0.07

SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, sys.argv[1])
from ufgsim import catalog, cli
cli.build_parser()
for name, params in json.loads(sys.argv[2]):
    catalog.get(name, params)
"""


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

class Runner:
    """Runs a workload's job list and judges every job it runs.

    A job fails when it raises, exits with another code than expected,
    misses its oracle (checked on the reference pass) or writes other bytes
    than on the reference pass.  `cli_run` is the function that runs one
    argv, normally `ufgsim.cli.run`.
    """

    def __init__(self, workload, seed, workdir, cli_run):
        self.workload = workload
        self.workdir = Path(workdir)
        self.cli_run = cli_run
        self.tracer = None
        self.seeds = [workloads.job_seed(workload.name, seed, i)
                      for i in range(len(workload.jobs))]
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.jobs = {job.name: {"expect_exit": job.expect_exit, "argv": {}, "sha256": None,
                                "oracle": None, "exit_codes": [], "seconds": []}
                     for job in workload.jobs}

    def _paths(self, job):
        return {flag: str(self.workdir / f"{job.name}{flag.replace('-', '_')}")
                for flag in job.outputs}

    def _fail(self, job, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{job.name}: {message}")

    def run_job(self, job, seed, threads):
        """Run one job; returns its wall time in seconds (outputs judged outside it)."""
        paths = self._paths(job)
        for p in paths.values():
            if os.path.exists(p):
                os.remove(p)
        argv = job.command(seed, threads, paths)
        info = self.jobs[job.name]
        info["argv"][str(threads)] = argv
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job.name
        start = time.perf_counter()
        try:
            code = self.cli_run(argv)
        except Exception:  # a raising job is a failed job, not a crashed benchmark
            elapsed = time.perf_counter() - start
            self._fail(job, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            return elapsed
        elapsed = time.perf_counter() - start
        info["exit_codes"].append(code)
        info["seconds"].append(elapsed)
        if code != job.expect_exit:
            self._fail(job, f"exit code {code}, expected {job.expect_exit}")
            return elapsed
        try:
            outputs = {flag: Path(p).read_bytes() for flag, p in paths.items()}
        except OSError as err:
            self._fail(job, f"missing output: {err}")
            return elapsed
        digest = hashlib.sha256(b"".join(outputs[f] for f in job.outputs)).hexdigest()
        if job.name not in self.reference:
            self.reference[job.name] = digest
            info["sha256"] = digest
            try:
                err = job.oracle(outputs)
            except Exception as exc:  # an unreadable output misses its oracle
                err = f"oracle could not read the output: {exc!r}"
            info["oracle"] = err or "ok"
            if err:
                self._fail(job, "oracle: " + err)
        elif digest != self.reference[job.name]:
            self._fail(job, f"output bytes differ from the reference pass (threads={threads})")
        return elapsed

    def run_pass(self, threads):
        """One pass over the job list: (wall s, wall s of the simulation jobs)."""
        wall = sim = 0.0
        for job, seed in zip(self.workload.jobs, self.seeds):
            elapsed = self.run_job(job, seed, threads)
            wall += elapsed
            if job.sim:
                sim += elapsed
        return wall, sim


def repeat(one_pass, seconds, min_passes):
    """Results of `one_pass()` until `seconds` have gone and `min_passes` ran."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(passes) >= min_passes or elapsed >= 4 * seconds):
            return passes
        passes.append(one_pass())


_CAL_OPS = (np.sin, np.cos, np.exp, np.multiply, np.add)


def _cal_tree(depth, i=0):
    """A fixed expression tree of numpy ops: (op, left, right), leaves None."""
    if depth == 0:
        return None
    op = _CAL_OPS[i % len(_CAL_OPS)]
    right = _cal_tree(depth - 1, i + 2) if op in (np.multiply, np.add) else None
    return (op, _cal_tree(depth - 1, i + 1), right)


def _cal_walk(node, x):
    if node is None:
        return x
    op, left, right = node
    if op in (np.multiply, np.add):
        return op(_cal_walk(left, x), _cal_walk(right, x))
    return op(_cal_walk(left, x))


_CAL_TREE = _cal_tree(6)


def calibrate():
    """Seconds a fixed kernel that uses no ufgsim code takes: the host's current speed.

    The kernel mixes the work the workloads do: interpreted loops, a
    recursive walk of an expression tree that calls numpy on 50-element
    arrays, and numpy arithmetic on 4000-element arrays.
    """
    start = time.perf_counter()
    table = {"a": 1.0, "b": 2.0}
    acc = 0.0
    for i in range(200_000):
        acc += table["a"] * i + table.get("b", 0.0)
    x = np.linspace(0.0, 1.0, 50)
    for _ in range(1800):
        acc += float(_cal_walk(_CAL_TREE, x)[0])
    x = np.linspace(0.0, 1.0, 4000)
    y = x
    for _ in range(300):  # stays within [0, 1.2]: no inf or nan, whose speed differs
        y = np.sin(y) * 0.5 + x * x * 0.25 + np.exp(-y) * 0.25
    return time.perf_counter() - start


def measure_setup(systems):
    """Wall seconds of SETUP_STARTS cold starts: fresh interpreter to ready to run."""
    out = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(systems)],
                       check=True, cwd=ROOT)
        out.append(time.perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _openblas():
    """Build string and thread count of the OpenBLAS that numpy's wheel bundles."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.argtypes = config.argtypes = []
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def provenance(workload, seed):
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ufgsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "why": workload.why,
        "roadmap_baseline": workload.baseline,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def run_end_to_end(runner, workload, seconds):
    setup = measure_setup(workload.systems())
    runner.run_pass(threads=1)
    calibrate()
    cal = [calibrate()]

    def one_pass():
        out = runner.run_pass(THREADS)
        cal.append(calibrate())
        return out

    passes = repeat(one_pass, seconds, MIN_PASSES)
    steps = sum(job.path_steps for job in workload.jobs if job.sim)
    rates = [steps / sim for _, sim in passes if sim > 0] if steps else []
    walls = [w for w, _ in passes]
    scaled = [w * 2 * CAL_REF_S / (a + b) for w, a, b in zip(walls, cal, cal[1:])]
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_ref_s": (median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_s_samples": setup,
        "wall_s": median(walls),
        "wall_s_samples": walls,
        "wall_s_count": len(passes),
        "calibrate_s_samples": cal,
        "path_steps": steps,
        "path_steps_per_s": median(rates),
    }
    return metrics, extra


def run_traced(runner, workload, seconds, spans_path):
    runner.run_pass(threads=1)
    untraced = repeat(lambda: runner.run_pass(THREADS), seconds / 2, MIN_TRACE_PASSES)
    tr = tracer.Tracer()
    installation = tracer.install(tr)
    summaries = []

    def traced_pass():
        tr.reset()
        out = runner.run_pass(THREADS)
        summaries.append(tracer.layer_metrics(tr.records, installation.wrapped))
        return out

    runner.tracer = tr
    try:
        traced = repeat(traced_pass, seconds / 2, MIN_TRACE_PASSES)
    finally:
        installation.uninstall()
        runner.tracer = None
    units = {m.name: m.unit for m in tracer.METRICS}
    values = [v for v, _, _ in summaries]
    metrics = {name: (median([v[name] for v in values]), units[name]) for name in values[-1]}
    untraced_wall = median([w for w, _ in untraced])
    traced_wall = median([w for w, _ in traced])
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")

    records = tr.records
    selfs = tracer.self_times(records)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(selfs[r.id])) + "\n")
    per_job = {}
    for job in workload.jobs:
        values, _, _ = tracer.layer_metrics([r for r in records if r.job == job.name],
                                            installation.wrapped)
        per_job[job.name] = values
    extra = {
        "untraced_wall_s_samples": [w for w, _ in untraced],
        "traced_wall_s_samples": [w for w, _ in traced],
        "not_run": sorted({name for _, not_run, _ in summaries for name in not_run}),
        "missing": summaries[-1][2],
        "per_job": per_job,
        "predictions": predictions(workload, metrics, per_job, records),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


def predictions(workload, metrics, per_job, records):
    """The counts the benchmark predicts on this code: (statement, holds)."""
    out = []
    value = {k: v for k, (v, _) in metrics.items()}
    if workload.name in ("ensemble", "variational"):
        out.append(("dynamics.flow.steps == 0", value.get("dynamics.flow.steps") == 0))
    if workload.name == "ensemble":
        rpc = value.get("expr.evaluate_array.rows_per_call", 0)
        out.append((f"expr.evaluate_array.rows_per_call {rpc:.1f} >= 1000", rpc >= 1000))
    if workload.name == "transport":
        rpc = value.get("expr.evaluate_array.rows_per_call", 0)
        out.append((f"expr.evaluate_array.rows_per_call {rpc:.1f} <= 100", rpc <= 100))
        job = next(j for j in workload.jobs if j.name == "zproc")
        argv = list(job.argv)
        K = round(float(argv[argv.index("--t") + 1]) / float(argv[argv.index("--dt") + 1]))
        got = per_job["zproc"].get("dynamics.flow.steps")
        out.append((f"zproc dynamics.flow.steps {got} == K(K+1)/2 = {K * (K + 1) // 2}",
                     got == K * (K + 1) // 2))
    if workload.name == "variational":
        job = "malliavin-sine-ou"
        summary = tracer.Summary([r for r in records if r.job == job])
        steps = summary.get(tracer.VAR, "steps")
        per_step = summary.get(tracer.JAC) / steps if steps else None
        ebps = per_job[job].get("malliavin.eval_batch_per_step")
        out.append((f"{job} malliavin.eval_batch_per_step {ebps} == 6", ebps == 6))
        out.append((f"{job} fields.jacobian_batch.calls per step {per_step} == 4",
                    per_step == 4))
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_one(args):
    from ufgsim import cli

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    # looked up per call, so the traced passes go through the wrapped cli.run
    runner = Runner(workload, args.seed, workdir, lambda argv: cli.run(argv))
    try:
        if args.trace:
            spans = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
            metrics, extra = run_traced(runner, workload, args.seconds, spans)
        else:
            metrics, extra = run_end_to_end(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    record = {
        "provenance": provenance(workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed_frac,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "jobs": runner.jobs,
        **extra,
    }
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    if args.trace:
        for text, ok in extra["predictions"]:
            print(f"prediction {'holds' if ok else 'FAILS'}: {text}")
        if extra["not_run"]:
            print("layer did not run (reported as 0): " + ", ".join(extra["not_run"]))
        if extra["missing"]:
            print("MISSING per-layer counters (not reported): " + ", ".join(extra["missing"]))
    else:
        print(row(workload.name, record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


def row(name, record):
    m = record["metrics"]
    rate = record.get("path_steps_per_s")
    rate_text = f"{rate:.4g} 1/s" if rate else "n/a"
    return (f"{name:<12} setup_s {m['setup_s']['value']:.4f} s | "
            f"wall_s {record['wall_s']:.4f} s (median of {record['wall_s_count']}) | "
            f"wall_ref_s {m['wall_ref_s']['value']:.4f} s | "
            f"path_steps_per_s {rate_text} | peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB | "
            f"failed_frac {record['failed_frac']:.4g} ratio "
            f"({record['failed']}/{record['attempted']})")


def run_all(args):
    """Every workload in its own process, untraced; one row per workload."""
    rows = []
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stderr.write(proc.stderr)
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
        rows.append(row(name, record))
        worst = max(worst, record["failed"])
    print("\n".join(rows))
    return 0 if worst == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ufgsim" / "cli.py").is_file():
        print(f"perfbench: no ufgsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
