"""Command-line front end: system files, condition checks, simulation, reports.

Exit codes: 0 all verdicts pass, 2 a check reported violated, 3 usage or
parse error, 4 numeric failure (blow-up, Newton divergence, evaluation
domain error); every failure prints one JSON line on stderr.  JSON reports
carry schema_version 1 and, under "metadata", the value of every flag the
command read, with the defaults it filled in (see write_report).  All
commands are deterministic given their flags and seed.  The commands that
simulate (simulate, zproc, ranks, malliavin, converge, derivative) take
`--threads k`: the ensemble's paths split into contiguous ranges run at the
same time by this process and forked worker processes, at most k in all, and
no more than the cores this process may run on or the paths; an ensemble too
small to gain from another process runs in this one alone (see
dynamics.MIN_PATH_STEPS_PER_WORKER).
`--threads` below 1 is a usage error.  Results never depend on it (path
substreams are fixed by the seed alone), and it is left out of report
metadata, as are the outputs, so reports stay byte-comparable across them.

A command accepts only the flags it reads; any other is a usage error naming
it, raised before any work.  So `check` accepts the flags in CHECK_READS of
its condition, and `zproc` takes no --level or --rtol on the catalog systems
in catalog.CLOSED_FORM_V0PERP, whose drift-orthogonal field it never
computes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import catalog, diagnostics, dynamics, expr as ex, geometry, malliavin
from .dynamics import (
    FlowConfig,
    SDESystem,
    auxiliary_process,
    rank_along_path,
    simulate_paths,
)
from .fields import VectorField, build_hierarchy
from .geometry import SamplePlan
from .linalg import RANK_RTOL
from .malliavin import block_check_ensemble, malliavin_matrix, simulate_variational

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class SystemFileError(UsageError):
    pass


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def finite_real(text, what):
    """float(text) for a value given on the command line; text that is not a
    number, nan and +-inf are usage errors naming `what`."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad {what} '{text}' (want a real number)") from None
    if not math.isfinite(value):
        raise UsageError(f"{what} {text!r} is not a finite number")
    return value


def parse_reals(text, what):
    """Comma-separated finite reals."""
    return [finite_real(v, what) for v in text.split(",")]


def parse_point(text):
    return parse_reals(text, "point coordinate")


def parse_box(text):
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"bad box axis '{part}' (want lo:hi)")
        axes.append((finite_real(bits[0], "box bound"), finite_real(bits[1], "box bound")))
    return tuple(axes)


def parse_flag_expression(text, variables, flag):
    """An expression given on the command line; a parse error names `flag`,
    as a system file's names its file and line."""
    try:
        return ex.parse_expression(text, list(variables))
    except ex.ParseError as err:
        raise UsageError(f"{flag}: {err}") from None


def parse_param_list(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"bad --param '{pair}' (want name=value)")
        key, val = (s.strip() for s in pair.split("=", 1))
        try:
            float(val)
        except ValueError:  # a string-valued parameter
            out[key] = val
        else:
            out[key] = finite_real(val, f"--param {key}")
    return out


def parse_reference_spec(text):
    """Per-coordinate reference list: 'gaussian:mu,var;dirac:a;none'."""
    refs = {}
    for i, part in enumerate(text.split(";")):
        part = part.strip()
        if not part or part == "none":
            continue
        if ":" in part:
            kind, argtext = part.split(":", 1)
            args = [finite_real(v, "--reference argument") for v in argtext.split(",") if v]
        else:
            kind, args = part, []
        kind = kind.strip()
        if kind == "gaussian":
            if len(args) != 2:
                raise UsageError("--reference: gaussian reference wants mu,var")
            refs[i] = diagnostics.gaussian(args[0], args[1])
        elif kind == "dirac":
            if len(args) != 1:
                raise UsageError("--reference: dirac reference wants a location")
            refs[i] = diagnostics.dirac(args[0])
        else:
            raise UsageError(f"--reference: unknown reference kind '{kind}'")
    if not refs:
        raise UsageError("--reference: reference spec selected no coordinate")
    return refs


def parse_system_file(path):
    """Read the plain-text system format; errors carry line numbers.

    Rejected, each naming its line: a `param` line (the format has no
    parameters; their values go into the fields), a repeated key, a `dim`
    or `noise` that is not an integer >= 1, an empty or repeated variable
    name and a field V<j> with j > noise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise SystemFileError(f"cannot read '{path}': {err}") from None
    entries = {}  # key -> (line number, value text)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemFileError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key.startswith("param "):
            raise SystemFileError(f"{path}:{lineno}: parameters are not read from system "
                                  "files; write their values into the fields")
        if key.startswith("V") and key[1:].isdigit():
            key = f"V{int(key[1:])}"
        elif key not in ("dim", "noise", "vars"):
            raise SystemFileError(f"{path}:{lineno}: unknown key '{key}'")
        if key in entries:
            raise SystemFileError(
                f"{path}:{lineno}: repeated key '{key}' (first on line {entries[key][0]})")
        entries[key] = (lineno, val)
    if not {"dim", "noise", "vars"} <= entries.keys():
        raise SystemFileError(f"{path}: need dim, noise and vars lines")

    def count(key):
        lineno, val = entries[key]
        if not (val.isdecimal() and int(val) >= 1):
            raise SystemFileError(f"{path}:{lineno}: {key} must be an integer >= 1, got '{val}'")
        return int(val)

    dim, noise = count("dim"), count("noise")
    lineno, val = entries["vars"]
    variables = tuple(v.strip() for v in val.split(","))
    if not all(variables) or len(set(variables)) != len(variables):
        raise SystemFileError(f"{path}:{lineno}: variable names must be non-empty and distinct")
    if len(variables) != dim:
        raise SystemFileError(f"{path}: {len(variables)} variable names for dim {dim}")
    for key, (lineno, _) in entries.items():
        if key.startswith("V") and int(key[1:]) > noise:
            raise SystemFileError(f"{path}:{lineno}: field {key} beyond noise = {noise}")
    fields = []
    for j in range(noise + 1):
        if f"V{j}" not in entries:
            raise SystemFileError(f"{path}: missing field V{j}")
        lineno, val = entries[f"V{j}"]
        if not (val.startswith("[") and val.endswith("]")):
            raise SystemFileError(f"{path}:{lineno}: field V{j} must be [expr, ...]")
        texts = val[1:-1].split(",")
        if len(texts) != dim:
            raise SystemFileError(
                f"{path}:{lineno}: field V{j} has {len(texts)} components, expected {dim}"
            )
        comps = []
        for text in texts:
            try:
                comps.append(ex.parse_expression(text, list(variables)))
            except ex.ParseError as err:
                raise SystemFileError(f"{path}:{lineno}: in V{j}: {err}") from None
        fields.append(VectorField(dim, tuple(comps), f"V{j}"))
    name = os.path.splitext(os.path.basename(path))[0]
    system = SDESystem(dim, fields[0], tuple(fields[1:]), name)
    return system, variables


def load_system(spec, params):
    """Resolve --system: a catalog name or a system-file path."""
    if spec in catalog.list_entries():
        entry = catalog.get(spec, params)
        return entry.system, entry, entry.variables
    if os.path.exists(spec):
        if params:
            raise UsageError("--param applies to catalog systems only")
        system, variables = parse_system_file(spec)
        return system, None, variables
    raise UsageError(
        f"unknown system '{spec}': not a catalog name ({', '.join(catalog.list_entries())}) "
        "and not a file"
    )


@contextlib.contextmanager
def _output(out):
    """The stream an output flag names: stdout for None or "-", else the file."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh


def emit(payload, out):
    write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n", out)


def write_text(text, out):
    with _output(out) as fh:
        fh.write(text)


def _load(args):
    """(system, catalog entry or None, variable names, params) of --system and
    --param.  A --level or --box that the command takes but was not given is
    filled in here: the entry's level (1 for a system file) and sample box."""
    params = parse_param_list(args.param)
    system, entry, variables = load_system(args.system, params)
    if getattr(args, "level", 0) is None:
        args.level = entry.level if entry else 1
    if getattr(args, "box", 0) is None and entry is not None:
        args.box = entry.sample_box
    return system, entry, variables, params


# parser dests that are no setting of a run: the command and its condition,
# the system and its parameters (top-level in every report), the outputs and
# --threads, which changes no result
_NOT_SETTINGS = {"fn", "cmd", "action", "condition", "name", "system", "param", "out",
                 "csv", "export", "threads"}


def write_report(args, system_name, params, **body):
    """Write a command's JSON report to --out and return its exit code:
    EXIT_VIOLATED for a "violated" verdict, else EXIT_OK.

    "metadata" holds the value of every flag on `args` but _NOT_SETTINGS:
    each flag the command accepts (check drops those its condition does not
    read), with the defaults the command filled in and the parsed lists of
    --x0, --box and --times."""
    command = " ".join(getattr(args, dest) for dest in ("cmd", "action", "condition")
                       if hasattr(args, dest))
    metadata = {dest: v for dest, v in vars(args).items() if dest not in _NOT_SETTINGS}
    emit({"schema_version": SCHEMA_VERSION, "command": command, "system": system_name,
          "params": params, "metadata": metadata, **body}, args.out)
    return EXIT_VIOLATED if body.get("verdict") == "violated" else EXIT_OK


def _v0perp_for(entry, system, args):
    if entry is not None and entry.v0perp is not None:
        return entry.v0perp
    table = build_hierarchy(system.all_fields(), args.level)
    rtol = RANK_RTOL if args.rtol is None else args.rtol
    return geometry.drift_orthogonal_field(table, rtol=rtol)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_catalog_list(args):
    for name in catalog.list_entries():
        print(name)
    return EXIT_OK


def cmd_catalog_show(args):
    entry = catalog.get(args.name, parse_param_list(args.param))
    if args.export:
        write_text(entry.export_system_file(), args.export)
        return EXIT_OK
    return write_report(
        args, entry.name, entry.params,
        level=entry.level,
        variables=list(entry.variables),
        fields={
            f"V{j}": [ex.to_string(c, list(entry.variables)) for c in f.components]
            for j, f in enumerate(entry.system.all_fields())
        },
        known_brackets=[
            {"index": list(e), "note": note} for e, _, note in entry.known_brackets
        ],
        sample_box=[list(b) for b in entry.sample_box],
    )


def check_size(entries, flag, value):
    """Reject a request whose arrays would hold more than MAX_STORED_ENTRIES
    values, before anything is allocated; the usage error names the flag."""
    if entries > dynamics.MAX_STORED_ENTRIES:
        raise UsageError(f"{flag} {value} asks for more than {dynamics.MAX_STORED_ENTRIES} "
                         "array entries, the cap on one request")


def _frame_entries(table):
    """Entries per sample point of the table's frame with the drift: N x (columns + 1)."""
    return table.dim * (len(table.r_m()) + 1)


def _plan_from_args(args, per_point):
    """The sample plan of --points or --box (the catalog's box by default);
    its points (the file's rows, or grid^dim of a box grid) holding
    per_point array entries each are size-checked."""
    if getattr(args, "points", None):
        pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
        if not np.isfinite(pts).all():
            raise UsageError(f"--points file '{args.points}' holds a coordinate that is "
                             "not a finite number")
        check_size(len(pts) * per_point, "--points", args.points)
        del args.box, args.grid  # unread beside the points, so not in the report
        return SamplePlan(points=pts)
    if args.box is None:
        raise UsageError("need --box (or --points where supported) for a non-catalog system")
    check_size(args.grid ** len(args.box) * per_point, "--grid", args.grid)
    return SamplePlan(box=args.box, grid=args.grid)


# check: the default of every condition flag and the flags each condition reads
CHECK_DEFAULTS = {
    "level": None, "rtol": RANK_RTOL, "box": None, "grid": 32, "points": None,
    "lambda0": 1e-3, "tol": 1e-9, "residual_tol": 1e-8, "coeff_threshold": 1e6,
    "phi": None, "c1": 1.0, "c2": 1.0, "times": (0.0, 1.0, 10.0),
}
_FRAME = ("level", "box", "grid", "points")
CHECK_READS = {
    "ufg": (*_FRAME, "rtol", "residual_tol", "coeff_threshold"),
    "hc": (*_FRAME, "rtol"),
    "phc": (*_FRAME, "rtol"),
    "oac": (*_FRAME, "lambda0", "tol"),
    "oac2": (*_FRAME, "lambda0", "tol"),
    "kalman": ("rtol",),
    "lyapunov": ("box", "grid", "points", "phi", "c1", "c2", "times"),
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _points_alone(args):
    """Reject --box or --grid beside --points, whose rows are the whole sample plan."""
    if args.points is not None:
        for dest in ("box", "grid"):
            if getattr(args, dest) is not None:
                raise UsageError(f"--points excludes {_flag(dest)}: the points file is "
                                 "the whole sample plan")


def cmd_check(args):
    _points_alone(args)
    reads = CHECK_READS[args.condition]
    for dest, default in CHECK_DEFAULTS.items():
        if dest in reads:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest) is None:
            delattr(args, dest)  # so the report's metadata holds only the flags read
        else:
            raise UsageError(f"{_flag(dest)} is not read by the {args.condition} check, "
                             f"which reads {', '.join(map(_flag, reads))}")
    system, entry, variables, params = _load(args)

    if args.condition == "kalman":
        if entry is None or entry.name != "linear":
            raise UsageError("the kalman check applies to the 'linear' catalog system")
        A = entry.facts["A"]
        Q = np.asarray(entry.facts["C"], dtype=float).T
        ok, rank = geometry.check_kalman(A, Q, rtol=args.rtol)
        return write_report(args, system.name, params,
                            verdict="satisfied" if ok else "violated",
                            rank=int(rank), records=[], worst_point=None)

    if args.condition == "lyapunov":
        if not args.phi:
            raise UsageError("lyapunov check needs --phi")
        plan = _plan_from_args(args, len(args.times) * system.dim)
        phi = parse_flag_expression(args.phi, variables, "--phi")
        rep = geometry.check_lyapunov(system, phi, plan, args.c1, args.c2, args.times)
    else:
        table = build_hierarchy(system.all_fields(), args.level)
        plan = _plan_from_args(args, _frame_entries(table))
        if args.condition == "ufg":
            rep = geometry.check_ufg(table, plan, residual_tol=args.residual_tol,
                                     coeff_blowup_threshold=args.coeff_threshold,
                                     rtol=args.rtol)
        elif args.condition in ("hc", "phc"):
            rep = geometry.check_hormander(table, plan, args.condition.upper(), rtol=args.rtol)
        elif args.condition == "oac":
            rep = geometry.check_oac(table, plan, args.lambda0, tol=args.tol)
        else:
            rep = geometry.check_oac2(table, plan, args.lambda0, tol=args.tol)
    return write_report(args, system.name, params, **rep.to_dict())


def cmd_decompose(args):
    _points_alone(args)
    if args.grid is None:  # unset in the parser, so that _points_alone sees a given one
        args.grid = 32
    system, _, _, params = _load(args)
    table = build_hierarchy(system.all_fields(), args.level)
    pts = _plan_from_args(args, _frame_entries(table)).sample(system.dim)
    records = []
    for x, (v_par, v_perp, resid) in zip(pts, geometry.decompose_drift_rows(table, pts,
                                                                              args.rtol)):
        records.append({
            "point": [float(v) for v in x],
            "parallel": [float(v) for v in v_par],
            "orthogonal": [float(v) for v in v_perp],
            "residual": float(resid),
        })
    return write_report(args, system.name, params, verdict="ok", records=records, worst_point=None)


def cmd_chart(args):
    if not args.eps > 0:
        raise UsageError(f"--eps must be positive: it is the chart radius, got {args.eps!r}")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    system, entry, _, params = _load(args)
    check_size(args.samples * system.dim, "--samples", args.samples)
    table = build_hierarchy(system.all_fields(), args.level)
    v0perp = entry.v0perp if entry is not None else None
    chart = geometry.build_chart(table, args.x0, args.eps, rtol=args.rtol,
                                 newton_tol=args.newton_tol,
                                 v0perp=v0perp)
    rng = np.random.default_rng(args.seed)
    samples = rng.uniform(-args.eps, args.eps, size=(args.samples, system.dim))
    verify = geometry.verify_chart_structure(chart, table, samples,
                                             fd_step=args.fd_step, tol=args.tol)
    T = rng.uniform(-args.eps, args.eps, size=(min(args.samples, 50), system.dim))
    roundtrip = float(np.max(np.abs(chart.inverse(chart.forward(T)) - T)))
    return write_report(
        args, system.name, params,
        verdict="ok" if verify["passed"] else "violated",
        chart={
            "center": [float(v) for v in chart.center],
            "n": chart.n,
            "basis": [list(a.entries) for a in chart.basis_indices],
            "uses_drift_orthogonal": chart.uses_drift_orthogonal,
            "radius": chart.radius,
        },
        verify=verify,
        newton_roundtrip_error=roundtrip,
    )


def _horizon(args):
    """--t, rejected unless it is a whole number of --dt steps: the simulators round T/dt."""
    q = args.t / args.dt if args.dt > 0 else 0.0
    # the simulators reject dt <= 0, horizons shorter than one step and too many steps
    if 1 <= q < math.inf and abs(q - round(q)) > 1e-9 * q:
        raise UsageError(f"--t {args.t!r} is not a whole number of steps --dt {args.dt!r}")
    return args.t


def _simulate_from_args(args, system):
    return simulate_paths(system, args.x0, _horizon(args), args.dt, args.paths,
                          args.seed, store_stride=args.stride, workers=args.threads)


def cmd_simulate(args):
    system = _load(args)[0]
    _write_ensemble_csv(_simulate_from_args(args, system), args.out)
    return EXIT_OK


def _write_ensemble_csv(ens, out):
    """The ensemble's CSV, streamed a path at a time: never the whole text in memory."""
    with _output(out) as fh:
        ens.write_csv(fh)


def cmd_zproc(args):
    if args.system in catalog.CLOSED_FORM_V0PERP and (args.level, args.rtol) != (None, None):
        flag = "--level" if args.level is not None else "--rtol"
        raise UsageError(f"{flag} is not read by zproc on {args.system}, whose "
                         "drift-orthogonal field is closed-form")
    system, entry, _, _ = _load(args)
    v0perp = _v0perp_for(entry, system, args)  # an oversized table fails before simulating
    ens = _simulate_from_args(args, system)
    z = auxiliary_process(ens, v0perp, FlowConfig(dt=args.dt))
    _write_ensemble_csv(z, args.out)
    return EXIT_OK


def cmd_ranks(args):
    system = _load(args)[0]
    table = build_hierarchy(system.all_fields(), args.level)
    ens = _simulate_from_args(args, system)
    ranks = rank_along_path(ens.states, table, rtol=args.rtol)
    with _output(args.out) as fh:  # streamed a path at a time, as the ensemble CSV
        fh.write("path_id,time,rank\n")
        for p in range(ens.n_paths):
            fh.write("".join(f"{p},{float(t)!r},{int(ranks[p, k])}\n"
                             for k, t in enumerate(ens.times)))
    return EXIT_OK


def cmd_malliavin(args):
    if not args.cond_threshold >= 1:
        raise UsageError(f"--cond-threshold must be at least 1: it bounds a condition "
                         f"number, got {args.cond_threshold!r}")
    system, _, _, params = _load(args)
    if not 1 <= args.split <= system.dim:
        raise UsageError(f"--split must be in 1..{system.dim} for a {system.dim}-dimensional "
                         f"system, got {args.split}")
    vp = simulate_variational(system, args.x0, _horizon(args), args.dt, args.seed,
                              n_paths=args.paths, store_stride=args.stride,
                              workers=args.threads)
    M = malliavin_matrix(vp)
    reports, agg = block_check_ensemble(M, args.split, cond_threshold=args.cond_threshold)
    ok = agg["block_ok_fraction"] == 1.0 and agg["invertible_fraction"] == 1.0
    return write_report(
        args, system.name, params,
        verdict="ok" if ok else "violated",
        aggregate=agg,
        paths=[r.to_dict() for r in reports],
        matrix_shape=[int(s) for s in M.shape],
        blowups=int(vp.blown.sum()),
        aborted=int(vp.aborted.sum()),
    )


def cmd_converge(args):
    system, _, _, params = _load(args)
    refs = parse_reference_spec(args.reference)
    if max(refs) >= system.dim:
        raise UsageError(f"--reference names coordinate {max(refs) + 1} of a "
                         f"{system.dim}-dimensional system")
    rep = diagnostics.convergence_study(system, args.x0, args.times, refs,
                                        args.paths, args.seed, args.escape_radius,
                                        dt=args.dt, ks_tolerance=args.ks_tolerance,
                                        workers=args.threads)
    code = write_report(args, system.name, params, **rep.to_dict())
    if args.csv:
        lines = ["time,coordinate,ks,escape_fraction"]
        for i, t in enumerate(rep.times):
            for c in sorted(rep.ks):
                lines.append(f"{t!r},{c},{rep.ks[c][i]!r},{rep.escape_fraction[i]!r}")
        write_text("\n".join(lines) + "\n", args.csv)
    return code


def _grid_points(spec):
    """fpresidual's --grid lo:hi:count as its points; an error names the flag."""
    try:
        bits = spec.split(":")
        if len(bits) != 3:
            raise UsageError(f"want lo:hi:count, got '{spec}'")
        lo, hi = finite_real(bits[0], "grid bound"), finite_real(bits[1], "grid bound")
        count = int(bits[2])
        if count < 1:
            raise UsageError(f"count must be at least 1, got {count}")
    except (UsageError, ValueError) as err:
        raise UsageError(f"--grid: {err}") from None
    check_size(count, "--grid", spec)
    return np.linspace(lo, hi, count)


def cmd_fpresidual(args):
    system, _, variables, params = _load(args)
    rho = parse_flag_expression(args.density, variables, "--density")
    res = diagnostics.fokker_planck_residual(system, rho, _grid_points(args.grid))
    return write_report(args, system.name, params, verdict="ok", **res.to_dict())


def cmd_derivative(args):
    if args.h == 0:
        raise UsageError("--h must be nonzero: it is the central-difference step")
    system, entry, variables, params = _load(args)
    f = parse_flag_expression(args.f, variables, "--f")
    direction = _resolve_direction(args.direction, system, entry, variables)
    if args.h is None:
        args.h = 1e-3 * (1.0 + float(np.linalg.norm(args.x0)))
    est, err = diagnostics.semigroup_derivative(system, f, direction, args.x0, _horizon(args),
                                                args.paths, h=args.h, seed=args.seed,
                                                dt=args.dt, workers=args.threads)
    return write_report(args, system.name, params, verdict="ok", estimate=est, stderr=err)


def _resolve_direction(spec, system, entry, variables):
    fields_by_name = {f"V{j}": f for j, f in enumerate(system.all_fields())}
    if spec in fields_by_name:
        return fields_by_name[spec]
    if spec == "v0perp":
        if entry is not None and entry.v0perp is not None:
            return entry.v0perp
        raise UsageError("no closed-form drift-orthogonal field for this system")
    if spec.startswith("[") and spec.endswith("]"):
        texts = spec[1:-1].split(",")
        if len(texts) != system.dim:
            raise UsageError(f"--direction: expected {system.dim} components, "
                             f"got {len(texts)}")
        comps = tuple(parse_flag_expression(s, variables, f"--direction component {i + 1}")
                      for i, s in enumerate(texts))
        return VectorField(system.dim, comps, "direction")
    raise UsageError(f"bad --direction '{spec}' (want V0..Vd, v0perp or [expr,...])")


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def flag_type(parse):
    """argparse type of a flag whose text `parse` reads: a UsageError of
    `parse` becomes an error of the flag, which argparse names."""
    def convert(text):
        try:
            return parse(text)
        except UsageError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


finite_float = flag_type(lambda text: finite_real(text, "value"))
point_flag = flag_type(parse_point)
box_flag = flag_type(parse_box)
times_flag = flag_type(lambda text: parse_reals(text, "time"))
# the parser types of the check flags that are not finite reals
_CHECK_TYPES = {"level": int, "grid": int, "box": box_flag, "points": str, "phi": str,
                "times": times_flag}


def thread_count(text):
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value '{text}' (want an integer)") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors raise UsageError (a JSON error, exit 3)
    instead of printing the usage text and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_common(p, sim=False, geom=False, threads=False):
    p.add_argument("--system", required=True, help="catalog name or system file")
    p.add_argument("--param", action="append", default=[], help="name=value (repeatable)")
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    if sim or threads:
        p.add_argument("--threads", type=thread_count, default=1,
                       help="run the paths on up to this many processes (forked "
                            "workers), capped at the usable cores and the paths; a "
                            "small ensemble runs in one; the output is the same")
    if sim:
        p.add_argument("--x0", type=point_flag, required=True)
        p.add_argument("--t", type=finite_float, required=True)
        p.add_argument("--dt", type=finite_float, default=1e-3)
        p.add_argument("--paths", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stride", type=int, default=1)
    if geom:
        p.add_argument("--level", type=int, default=None)
        p.add_argument("--rtol", type=finite_float, default=RANK_RTOL)


def build_parser():
    ap = ArgumentParser(prog="ufgsim",
                        description="degenerate-diffusion geometry and simulation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("catalog", help="list or show built-in systems")
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="the catalog names").set_defaults(fn=cmd_catalog_list)
    p = actions.add_parser("show", help="a catalog system's fields, brackets and box")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", default=[])
    to = p.add_mutually_exclusive_group()
    to.add_argument("--export", default=None, help="write the system file format instead")
    to.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_catalog_show)

    p = sub.add_parser("check", help="run a condition checker")
    _add_common(p)
    p.add_argument("--condition", required=True, choices=list(CHECK_READS))
    for dest in CHECK_DEFAULTS:  # no parser default: cmd_check sees which were given
        readers = [c for c, reads in CHECK_READS.items() if dest in reads]
        p.add_argument(_flag(dest), dest=dest, type=_CHECK_TYPES.get(dest, finite_float),
                       help="read by " + ", ".join(readers))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("decompose", help="drift decomposition at sample points")
    _add_common(p, geom=True)
    p.add_argument("--box", type=box_flag)
    p.add_argument("--grid", type=int, help="points per axis of the box grid (default 32)")
    p.add_argument("--points", help="CSV file of sample points; excludes --box and --grid")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("chart", help="build and verify a local chart")
    _add_common(p, geom=True)
    p.add_argument("--x0", type=point_flag, required=True)
    p.add_argument("--eps", type=finite_float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=finite_float, default=1e-5)
    p.add_argument("--fd-step", dest="fd_step", type=finite_float, default=1e-5)
    p.add_argument("--newton-tol", dest="newton_tol", type=finite_float, default=1e-12)
    p.set_defaults(fn=cmd_chart)

    p = sub.add_parser("simulate", help="simulate an ensemble to CSV")
    _add_common(p, sim=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("zproc", help="auxiliary process (transport-corrected paths)")
    _add_common(p, sim=True, geom=True)
    p.set_defaults(fn=cmd_zproc, rtol=None)  # None: not given (see cmd_zproc)

    p = sub.add_parser("ranks", help="distribution rank along simulated paths")
    _add_common(p, sim=True, geom=True)
    p.set_defaults(fn=cmd_ranks)

    p = sub.add_parser("malliavin", help="variational paths and covariance checks")
    _add_common(p, sim=True)
    p.add_argument("--split", type=int, required=True)
    p.add_argument("--cond-threshold", dest="cond_threshold", type=finite_float, default=1e10)
    p.set_defaults(fn=cmd_malliavin)

    p = sub.add_parser("converge", help="KS / escape-fraction convergence study")
    _add_common(p, threads=True)
    p.add_argument("--x0", type=point_flag, required=True)
    p.add_argument("--times", type=times_flag, required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=finite_float, default=1e-3)
    p.add_argument("--escape-radius", dest="escape_radius", type=finite_float, default=1e3)
    p.add_argument("--ks-tolerance", dest="ks_tolerance", type=finite_float, default=0.05)
    p.add_argument("--csv", default=None, help="also write time,coordinate,ks,escape_fraction")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("fpresidual", help="stationary Fokker-Planck residual of a density")
    _add_common(p)
    p.add_argument("--density", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    p.set_defaults(fn=cmd_fpresidual)

    p = sub.add_parser("derivative", help="semigroup derivative along a field")
    _add_common(p, threads=True)
    p.add_argument("--f", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--x0", type=point_flag, required=True)
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--h", type=finite_float, default=None)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=finite_float, default=1e-3)
    p.set_defaults(fn=cmd_derivative)

    return ap


# options whose values may legitimately start with "-" (negative coordinates,
# expressions); merged into --opt=value so argparse does not eat them
_DASH_VALUE_OPTS = {
    "--box", "--x0", "--times", "--reference", "--density", "--f",
    "--direction", "--grid", "--phi", "--h", "--c1", "--c2",
}


def _preprocess(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and tok.endswith("=--"):
            # argparse (3.11) strips the "--" and hands the option an empty list
            raise UsageError(f"argument {tok[:-3]}: expected one argument")
        if tok in _DASH_VALUE_OPTS and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and argv[i + 1] not in ("-", "--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def run(argv=None):
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_preprocess(list(argv)))
        return args.fn(args)
    except SystemExit as err:  # --help; usage errors raise UsageError instead
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    except (UsageError, KeyError, ValueError, ex.ParseError, OSError) as err:
        message, code = str(err), EXIT_USAGE
    except (ex.EvalDomainError, RuntimeError, np.linalg.LinAlgError, ArithmeticError) as err:
        message, code = str(err), EXIT_NUMERIC
    print(json.dumps({"error": message, "schema_version": SCHEMA_VERSION}), file=sys.stderr)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
