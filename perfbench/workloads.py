"""The benchmark's workloads: fixed job lists of README-style `ufgsim` commands.

Every job is one command line run in-process through `ufgsim.cli.run(argv)`.
A job carries its expected exit code and an oracle that checks its output
against a closed form, reusing the tolerances of `tests/test_acceptance.py`.
The benchmark adds `--out` (and `--csv`), the job's `--seed` (derived from
the workload seed) and, on simulation jobs, `--threads`.

Sizes were settled on a 2-core x86-64 box (Python 3.11, numpy 2.4): each
workload's job list takes 2 to 5 s there, so a 20 s run repeats it 4 to 10
times and reports a median.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI command of a workload and how to judge its output.

    `oracle` receives the job's output files as {flag: bytes} and returns an
    error message, or None when the output is correct.  `path_steps` is
    paths x round(T/dt) summed over the ensembles the command simulates.
    """

    name: str
    argv: tuple
    oracle: Callable[[dict], str | None]
    expect_exit: int = 0
    seeded: bool = False
    sim: bool = False
    path_steps: int = 0
    outputs: tuple = ("--out",)

    def command(self, seed, threads, out_paths):
        """Full argv: base command, output files, seed and thread cap."""
        argv = list(self.argv)
        for flag in self.outputs:
            argv += [flag, out_paths[flag]]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.sim:
            argv += ["--threads", str(threads)]
        return argv

    def systems(self):
        """The (catalog name, params) pair this job loads."""
        argv = list(self.argv)
        name = argv[argv.index("--system") + 1]
        params = {}
        for i, tok in enumerate(argv):
            if tok == "--param":
                key, val = argv[i + 1].split("=", 1)
                params[key] = float(val)
        return name, params


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    why: str = ""
    baseline: str = ""

    def systems(self):
        """Distinct catalog systems the workload loads, in first-use order."""
        seen = []
        for job in self.jobs:
            sys_ = job.systems()
            if sys_ not in seen:
                seen.append(sys_)
        return seen


def job_seed(workload, seed, index):
    """Seed of job `index`: a hash of the workload name and workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

# Tolerances of tests/test_acceptance.py (criteria 4, 6, 8 and 10).
KS_LIMIT = 0.02            # Kolmogorov-Smirnov distance to the exact marginal
N_SE = 3.0                 # standard errors allowed on a derivative estimate
ANGLE_LIMIT = 5e-3         # angle error of circle paths, angular deviation of Z
RESIDUAL_LIMIT = 1e-8      # decompose / Fokker-Planck residuals, Newton round trip


def _report(outputs):
    return json.loads(outputs["--out"])


def _csv_rows(text_bytes):
    """Rows of an ensemble CSV (path_id, time, x1, x2, ...) as a float array."""
    return np.loadtxt(io.BytesIO(text_bytes), delimiter=",", skiprows=1, ndmin=2)


def verdict_is(verdict):
    def check(outputs):
        got = _report(outputs)["verdict"]
        return None if got == verdict else f"verdict {got!r}, expected {verdict!r}"
    return check


def all_of(*checks):
    def check(outputs):
        for c in checks:
            err = c(outputs)
            if err:
                return err
        return None
    return check


def gaussian_ks(time):
    """converge: coordinate-0 KS at `time` (against N(0, 1 - e^{-2t})) <= KS_LIMIT."""
    def check(outputs):
        rep = _report(outputs)
        k = int(np.argmin(np.abs(np.asarray(rep["times"]) - time)))
        ks = rep["ks"]["0"][k]
        return None if ks <= KS_LIMIT else f"KS {ks:.4f} at t={time} exceeds {KS_LIMIT}"
    return check


def grushin_derivative(k, x, t):
    """derivative: the CRN estimate lies within N_SE standard errors of the closed form."""
    want = x[1] * math.cos(x[0]) * math.exp(-x[1] ** 2 * (math.exp(2 * k * t) - 1) / (2 * k))

    def check(outputs):
        rep = _report(outputs)
        est, se = rep["estimate"], rep["stderr"]
        if abs(est - want) <= N_SE * se:
            return None
        return f"estimate {est:.5f} is {abs(est - want) / se:.2f} SE from {want:.5f}"
    return check


def circle_angle(outputs):
    """simulate (random-circles from (1,0)): the angle at time t is t, within ANGLE_LIMIT."""
    rows = _csv_rows(outputs["--out"])
    t, x, y = rows[:, 1], rows[:, 2], rows[:, 3]
    err = np.abs((np.arctan2(y, x) - t + math.pi) % (2 * math.pi) - math.pi)
    worst = float(np.max(err))
    return None if worst <= ANGLE_LIMIT else f"max angle error {worst:.2e} exceeds {ANGLE_LIMIT}"


def z_angular_deviation(outputs):
    """zproc (random-circles): |Z_y| / |Z| <= ANGLE_LIMIT at every stored time t > 0."""
    rows = _csv_rows(outputs["--out"])
    rows = rows[rows[:, 1] > 0.0]
    dev = float(np.max(np.abs(rows[:, 3]) / np.hypot(rows[:, 2], rows[:, 3])))
    return None if dev <= ANGLE_LIMIT else f"angular deviation {dev:.2e} exceeds {ANGLE_LIMIT}"


def malliavin_ok(outputs):
    """malliavin: every path block-structured and invertible, none aborted."""
    rep = _report(outputs)
    agg = rep["aggregate"]
    if agg["block_ok_fraction"] != 1.0 or agg["invertible_fraction"] != 1.0:
        return f"block_ok {agg['block_ok_fraction']}, invertible {agg['invertible_fraction']}"
    if rep["aborted"] != 0:
        return f"{rep['aborted']} aborted paths"
    return None


def chart_ok(outputs):
    """chart: verdict ok and a Newton round trip within RESIDUAL_LIMIT."""
    rep = _report(outputs)
    if rep["verdict"] != "ok":
        return f"chart verdict {rep['verdict']!r}"
    err = rep["newton_roundtrip_error"]
    if err <= RESIDUAL_LIMIT:
        return None
    return f"Newton round trip {err:.2e} exceeds {RESIDUAL_LIMIT}"


def max_field(key, records=True):
    """Largest `key` (over records, or at top level) is at most RESIDUAL_LIMIT."""
    def check(outputs):
        rep = _report(outputs)
        got = max(r[key] for r in rep["records"]) if records else rep[key]
        return None if got <= RESIDUAL_LIMIT else f"{key} {got:.2e} exceeds {RESIDUAL_LIMIT}"
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# ensemble -- ROADMAP baselines "converge (1e4 paths)", "derivative" and "Heun
# ensemble (path-steps/s)".  Why: the Heun batches are wide (about 2000 rows
# per field call), so per-element numpy work, per-path PCG64 seeding, KS
# sorting and CSV formatting dominate.  No RK4 flow and no symbolic work runs
# here: this is the control, and an optimisation aimed at per-call overhead
# should leave it nearly flat.
ENSEMBLE = Workload(
    "ensemble",
    why="wide Heun batches: per-element numpy, PCG64 seeding, KS sorting, CSV; "
        "control for per-call-overhead work",
    baseline="ROADMAP item 1: converge 4.9 s, derivative 5.0 s, Heun 5.4e6 path-steps/s",
    jobs=(
        Job("converge",
            ("converge", "--system", "grushin", "--param", "k=-1", "--x0", "0,1",
             "--times", "0.5,1", "--reference", f"gaussian:0,{1 - math.exp(-2.0)!r}",
             "--paths", "10000", "--escape-radius", "10"),
            oracle=gaussian_ks(1.0), seeded=True, sim=True,
            path_steps=10000 * 1000, outputs=("--out", "--csv")),
        Job("derivative",
            ("derivative", "--system", "grushin", "--param", "k=0.5", "--f", "sin(z)",
             "--direction", "V1", "--x0", "0,1", "--t", "1", "--paths", "2000"),
            oracle=grushin_derivative(0.5, (0.0, 1.0), 1.0), seeded=True, sim=True,
            path_steps=2 * 2000 * 1000),
        Job("simulate",
            ("simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.8",
             "--dt", "0.001", "--paths", "1000", "--stride", "10"),
            oracle=circle_angle, seeded=True, sim=True, path_steps=1000 * 800),
    ),
)

# transport -- ROADMAP baselines "README zproc (100 paths)" and the Lyapunov
# test of item 3.  Why: both jobs run narrow RK4 flows that restart from t=0.
# auxiliary_process makes K(K+1)/2 = 11,325 sequential steps on 100 rows
# (about 92k evaluate_array calls); check_lyapunov makes 13,500 single-row
# steps.  Per-call overhead and the O(K^2) restart dominate: ROADMAP items 2
# and 3 should move this workload and leave `ensemble` where it is.
TRANSPORT = Workload(
    "transport",
    why="narrow RK4 flows restarted from t=0 (zproc, lyapunov): per-call overhead "
        "and the O(K^2) restart",
    baseline="ROADMAP item 1: README zproc 68 s (T=1); item 3: O(K^2) auxiliary_process",
    jobs=(
        Job("zproc",
            ("zproc", "--system", "random-circles", "--x0", "1,0", "--t", "0.15",
             "--dt", "0.001", "--paths", "100"),
            # no path_steps: the auxiliary flow, not the Heun ensemble, sets its time
            oracle=z_angular_deviation, seeded=True, sim=True),
        Job("lyapunov",
            ("check", "--system", "sine-ou", "--param", "k=2", "--condition", "lyapunov",
             "--phi", "z*z", "--c1", "80", "--c2", "4", "--grid", "3",
             "--times", "0,0.5,1", "--box", "-3:3,0.5:6"),
            oracle=verdict_is("satisfied_on_samples")),
    ),
)

# variational -- ROADMAP baseline "malliavin 1.7 s" and item 4's memory
# target.  Why: the only workload that calls jacobian_batch and a batched
# inv on every step and allocates the (P, n_steps, d) increments and
# (P, T, N, N) Jacobian stores that set peak_rss_mb.  The systems are those
# of acceptance criterion 9.
VARIATIONAL = Workload(
    "variational",
    why="variational Heun with per-step jacobian_batch and inv; sets peak memory",
    baseline="ROADMAP item 1: malliavin 1.7 s; item 4: (P, n_steps, d) buffers",
    jobs=(
        Job("malliavin-sine-ou",
            ("malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
             "--t", "1", "--paths", "250", "--split", "1"),
            oracle=malliavin_ok, seeded=True, sim=True, path_steps=250 * 1000),
        Job("malliavin-grushin",
            ("malliavin", "--system", "grushin", "--param", "k=-1", "--x0", "0,1",
             "--t", "1", "--paths", "250", "--split", "1"),
            oracle=malliavin_ok, seeded=True, sim=True, path_steps=250 * 1000),
    ),
)

# geometry -- ROADMAP baselines "flow_jacobian on one point" and the bracket
# table build of item 5.  Why: symbolic bracket build, scalar evaluate,
# per-point lstsq/SVD and Newton chart inversion, with no path simulation.
# Without it fields.lie_bracket, linalg and the checkers go unmeasured.
# oac2 runs at level 3: at grushin's catalog level 1 it has no admissible
# index pairs and is vacuously satisfied.
GEOMETRY = Workload(
    "geometry",
    why="symbolic brackets, scalar evaluate, per-point SVD/lstsq, Newton charts; "
        "no path simulation",
    baseline="ROADMAP item 1: flow_jacobian 430 us per RK4 step; item 5: bracket build",
    jobs=(
        Job("ufg-sinfields",
            ("check", "--system", "sinfields", "--condition", "ufg", "--level", "8",
             "--grid", "16"),
            oracle=verdict_is("satisfied_on_samples")),
        Job("ufg-heisenberg",
            ("check", "--system", "ufg-heisenberg", "--condition", "ufg", "--grid", "8"),
            oracle=verdict_is("satisfied_on_samples")),
        Job("oac-grushin",
            ("check", "--system", "grushin", "--param", "k=-1", "--condition", "oac",
             "--lambda0", "0.5"),
            oracle=verdict_is("violated"), expect_exit=2),
        Job("oac2-grushin",
            ("check", "--system", "grushin", "--param", "k=-1", "--condition", "oac2",
             "--lambda0", "0.5", "--level", "3", "--grid", "16"),
            oracle=verdict_is("violated"), expect_exit=2),
        Job("hc-linear",
            ("check", "--system", "linear", "--condition", "hc"),
            oracle=verdict_is("violated"), expect_exit=2),
        Job("decompose-heisenberg",
            ("decompose", "--system", "ufg-heisenberg", "--grid", "5"),
            oracle=all_of(verdict_is("ok"), max_field("residual"))),
        Job("fpresidual-circle-line",
            ("fpresidual", "--system", "circle-line",
             "--density", "exp(-1/(1-cos(z)))/(1-cos(z))", "--grid", "0.2:6.083:400"),
            oracle=all_of(verdict_is("ok"), max_field("max_abs", records=False))),
        Job("chart-circles",
            ("chart", "--system", "random-circles", "--x0", "1,0", "--eps", "0.3",
             "--samples", "20"),
            oracle=chart_ok, seeded=True),
    ),
)

WORKLOADS = {w.name: w for w in (ENSEMBLE, TRANSPORT, VARIATIONAL, GEOMETRY)}
