"""Outside-in tracing of the ufgsim layers, for the benchmark's traced run.

The tracer wraps, from outside the program, every public function of the
layer modules, plus `VectorField.eval_batch`/`jacobian_batch`, the `Chart`
methods and the `_heun_step` that `malliavin` imports.  It rebinds each
wrapper in every module that holds the function: several modules import
names directly (`from .dynamics import flow`), so wrapping only the
defining module would miss their calls.

Coarse stages (`SPANNED`) get one record per call: name, start, end, parent
and job.  Every other function is folded into one record per (parent
record, name) that sums its calls and durations, because kernels such as
`expr.evaluate_array` run up to 10^5 times per job.  A record's self time is
its duration minus the durations of its child records.  Recursive calls of
a function already on the stack are not recorded again.

Step and row counts are derived from the call arguments.  Records stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("expr", "fields", "linalg", "geometry", "dynamics", "malliavin",
          "diagnostics", "catalog", "cli")
METHODS = (("fields", "VectorField", ("eval_batch", "jacobian_batch")),
           ("geometry", "Chart", ("forward", "forward_jacobian", "inverse")))
# private names wrapped at one binding site only: simulate_paths calls the
# dynamics binding, simulate_variational the malliavin one
PRIVATE = (("malliavin", "_heun_step"),)
ALIASES = {"cli.emit": "cli.output", "cli.write_text": "cli.output"}
SPANNED = frozenset({
    "cli.run", "cli.output", "catalog.get", "fields.build_hierarchy",
    "geometry.check_ufg", "geometry.check_hormander", "geometry.check_oac",
    "geometry.check_oac2", "geometry.check_lyapunov", "geometry.build_chart",
    "geometry.verify_chart_structure", "geometry.Chart.inverse",
    "dynamics.simulate_paths", "dynamics.auxiliary_process",
    "malliavin.simulate_variational", "malliavin.malliavin_matrix",
    "malliavin.block_check_ensemble", "diagnostics.convergence_study",
    "diagnostics.semigroup_derivative", "diagnostics.fokker_planck_residual",
})


class Record:
    """A span (one call) or a folded span (all calls under one parent)."""

    __slots__ = ("id", "name", "parent", "job", "start", "end", "calls", "total",
                 "counters")

    def __init__(self, rid, name, parent, job):
        self.id = rid
        self.name = name
        self.parent = parent
        self.job = job
        self.start = None
        self.end = None
        self.calls = 0
        self.total = 0
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def to_dict(self, self_ns):
        return {"id": self.id, "name": self.name, "parent": self.parent, "job": self.job,
                "start_ns": self.start, "end_ns": self.end, "calls": self.calls,
                "total_ns": self.total, "self_ns": self_ns, "counters": self.counters}


class Tracer:
    """Collects records; `job` labels the records of the job being run."""

    def __init__(self):
        self.job = None
        self.records = []
        self._folded = {}
        self._stack = []
        self._active = {}

    def reset(self):
        self.records = []
        self._folded = {}

    def begin(self, name):
        pid = self._stack[-1].id if self._stack else -1
        if name in SPANNED:
            rec = Record(len(self.records), name, pid, self.job)
            self.records.append(rec)
        else:
            key = (pid, name, self.job)
            rec = self._folded.get(key)
            if rec is None:
                rec = Record(len(self.records), name, pid, self.job)
                self.records.append(rec)
                self._folded[key] = rec
        self._stack.append(rec)
        self._active[name] = self._active.get(name, 0) + 1
        return rec

    def end(self, rec, start, stop):
        self._stack.pop()
        self._active[rec.name] -= 1
        rec.calls += 1
        rec.total += stop - start
        if rec.start is None:
            rec.start = start
        rec.end = stop


def self_times(records):
    """Self time of each record: its duration minus its children's durations."""
    out = {r.id: r.total for r in records}
    for r in records:
        if r.parent in out:
            out[r.parent] -= r.total
    return out


# ---------------------------------------------------------------------------
# Counters derived from call arguments and results
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(X):
    shape = np.shape(X)
    return math.prod(shape[:-1]) if shape else 1


def _count_rows(pos, name):
    def count(rec, args, kwargs, out):
        rec.add("rows", _rows(_arg(args, kwargs, pos, name)))
    return count


def _count_flow(default_dt):
    def count(rec, args, kwargs, out):
        x = np.asarray(_arg(args, kwargs, 1, "x"))
        t = _arg(args, kwargs, 2, "t")
        cfg = _arg(args, kwargs, 3, "cfg")
        dt = cfg.dt if cfg is not None else default_dt
        tmax = float(np.max(np.abs(t)))
        n = max(1, math.ceil(tmax / dt)) if tmax > 0 else 0
        rec.add("steps", n)
        rec.add("row_steps", n * (1 if x.ndim == 1 else x.shape[0]))
    return count


def _count_paths(pos_T, pos_dt, pos_paths, default_paths=None):
    def count(rec, args, kwargs, out):
        T = _arg(args, kwargs, pos_T, "T")
        dt = _arg(args, kwargs, pos_dt, "dt")
        paths = _arg(args, kwargs, pos_paths, "n_paths", default_paths)
        n = max(1, int(round(T / dt)))
        rec.add("steps", n)
        rec.add("path_steps", n * paths)
        rec.add("paths", paths)
        rec.add("blown", int(np.sum(out.blown)))
        if hasattr(out, "aborted"):
            rec.add("aborted", int(np.sum(out.aborted)))
            err = float(np.max(out.consistency_error()))
            rec.counters["max_jk_err"] = max(rec.counters.get("max_jk_err", 0.0), err)
    return count


def _count_suspect(default_threshold):
    def count(rec, args, kwargs, out):
        thr = _arg(args, kwargs, 4, "coeff_blowup_threshold", default_threshold)
        rec.add("suspect", sum(1 for r in out.records if r.max_coeff > thr))
    return count


def _count_entries(rec, args, kwargs, out):
    rec.add("entries", len(out.fields))


def _count_bytes(rec, args, kwargs, out):
    path = _arg(args, kwargs, 1, "out")
    if path not in (None, "-"):
        rec.add("bytes", os.path.getsize(path))


def _counters(mods):
    geometry, dynamics = mods["geometry"], mods["dynamics"]
    return {
        "expr.evaluate_array": _count_rows(1, "points"),
        "fields.VectorField.eval_batch": _count_rows(1, "X"),
        "fields.build_hierarchy": _count_entries,
        "geometry.check_ufg": _count_suspect(geometry.DEFAULT_COEFF_BLOWUP),
        "dynamics.flow": _count_flow(dynamics.FlowConfig().dt),
        "dynamics.flow_jacobian": _count_flow(dynamics.FlowConfig().dt),
        "dynamics.simulate_paths": _count_paths(2, 3, 4),
        "malliavin.simulate_variational": _count_paths(2, 3, 5, default_paths=1),
        "cli.emit": _count_bytes,
        "cli.write_text": _count_bytes,
    }


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def _wrap(tracer, name, fn, count):
    active = tracer._active
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if active.get(name):
            return fn(*args, **kwargs)
        rec = tracer.begin(name)
        start = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec, start, clock())
        if count is not None:
            count(rec, args, kwargs, out)
        return out

    return traced


@dataclass
class Installation:
    """The wrappers in place: `wrapped` holds record names, `uninstall` undoes it."""

    wrapped: set
    patches: list

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []


def install(tracer):
    """Wrap the layer functions at every binding site inside `ufgsim`."""
    mods = {}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module(f"ufgsim.{layer}")
        except ImportError:
            continue
    counters = _counters(mods) if {"geometry", "dynamics"} <= mods.keys() else {}
    by_id = {}       # id(original) -> (original, wrapper)
    patches = []
    wrapped = set()

    def wrapper_for(qualname, fn):
        name = ALIASES.get(qualname, qualname)
        wrapped.add(name)
        return _wrap(tracer, name, fn, counters.get(qualname))

    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                by_id[id(obj)] = (obj, wrapper_for(f"{layer}.{attr}", obj))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for layer, cls_name, methods in METHODS:
        cls = getattr(mods.get(layer), cls_name, None)
        for meth in methods:
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                patches.append((cls, meth, fn))
                setattr(cls, meth, wrapper_for(f"{layer}.{cls_name}.{meth}", fn))
    for layer, attr in PRIVATE:
        fn = getattr(mods.get(layer), attr, None)
        if inspect.isfunction(fn):
            patches.append((mods[layer], attr, fn))
            setattr(mods[layer], attr, wrapper_for(f"{layer}.{attr}", fn))
    return Installation(wrapped, patches)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class Summary:
    """Totals per record name over one set of records."""

    def __init__(self, records):
        self.records = list(records)
        self.by_id = {r.id: r for r in self.records}
        selfs = self_times(self.records)
        self.totals = {}
        for r in self.records:
            t = self.totals.setdefault(r.name, {"calls": 0, "ns": 0, "self_ns": 0})
            t["calls"] += r.calls
            t["ns"] += r.total
            t["self_ns"] += selfs[r.id]
            for key, val in r.counters.items():
                t[key] = max(t.get(key, 0), val) if key.startswith("max_") else t.get(key, 0) + val

    def get(self, name, key="calls"):
        return self.totals.get(name, {}).get(key, 0)

    def secs(self, name):
        return self.get(name, "ns") / 1e9

    def under(self, name, ancestor):
        """Calls of `name` made with an `ancestor` record somewhere above them."""
        total = 0
        for r in self.records:
            if r.name != name:
                continue
            p = self.by_id.get(r.parent)
            while p is not None and p.name != ancestor:
                p = self.by_id.get(p.parent)
            if p is not None:
                total += r.calls
        return total


@dataclass(frozen=True)
class Metric:
    """A per-layer metric: `value` returns None where its layer did not run."""

    name: str
    unit: str
    sources: tuple
    value: Callable[[Summary], float | None]


def _ratio(num, den):
    return num / den if den else None


def _calls(src, name=None):
    return Metric(f"{name or src}.calls", "count", (src,), lambda s: s.get(src))


def _secs(src, name=None):
    return Metric(f"{name or src}.s", "s", (src,), lambda s: s.secs(src))


def _self_secs(src):
    return Metric(f"{src}.self_s", "s", (src,), lambda s: s.get(src, "self_ns") / 1e9)


def _counter(name, unit, src, key):
    return Metric(name, unit, (src,), lambda s: s.get(src, key))


EVAL = "fields.VectorField.eval_batch"
JAC = "fields.VectorField.jacobian_batch"
VAR = "malliavin.simulate_variational"
INV = "geometry.Chart.inverse"

METRICS = (
    _calls("expr.evaluate_array"), _secs("expr.evaluate_array"),
    Metric("expr.evaluate_array.rows_per_call", "rows", ("expr.evaluate_array",),
           lambda s: _ratio(s.get("expr.evaluate_array", "rows"),
                            s.get("expr.evaluate_array"))),
    _calls("expr.evaluate"), _secs("expr.evaluate"),
    _calls("expr.differentiate"),
    _calls("expr.simplify"), _secs("expr.simplify"),
    _calls(EVAL, "fields.eval_batch"),
    _counter("fields.eval_batch.rows", "rows", EVAL, "rows"),
    _secs(EVAL, "fields.eval_batch"),
    _calls(JAC, "fields.jacobian_batch"), _secs(JAC, "fields.jacobian_batch"),
    _calls("fields.lie_bracket"),
    _secs("fields.build_hierarchy"),
    _counter("fields.table_entries", "count", "fields.build_hierarchy", "entries"),
    _calls("linalg.svd_rank"), _secs("linalg.svd_rank"),
    _calls("linalg.project_onto_columns"), _secs("linalg.project_onto_columns"),
    _calls("linalg.greedy_independent_columns"), _secs("linalg.greedy_independent_columns"),
    _secs("geometry.check_ufg"), _self_secs("geometry.check_ufg"),
    _secs("geometry.build_chart"),
    _secs("geometry.verify_chart_structure"),
    _secs(INV),
    _calls("geometry.Chart.forward_jacobian"),
    Metric("geometry.newton.trials_per_iter", "ratio",
           (INV, "geometry.Chart.forward", "geometry.Chart.forward_jacobian"),
           lambda s: _ratio(s.under("geometry.Chart.forward", INV),
                            s.under("geometry.Chart.forward_jacobian", INV))),
    _secs("geometry.check_lyapunov"),
    _counter("geometry.suspect_points", "count", "geometry.check_ufg", "suspect"),
    _secs("dynamics.simulate_paths"), _self_secs("dynamics.simulate_paths"),
    Metric("dynamics.simulate_paths.ns_per_path_step", "ns", ("dynamics.simulate_paths",),
           lambda s: _ratio(s.get("dynamics.simulate_paths", "ns"),
                            s.get("dynamics.simulate_paths", "path_steps"))),
    _counter("dynamics.path_steps", "count", "dynamics.simulate_paths", "path_steps"),
    _calls("dynamics.flow"),
    _counter("dynamics.flow.steps", "count", "dynamics.flow", "steps"),
    _counter("dynamics.flow.row_steps", "count", "dynamics.flow", "row_steps"),
    _secs("dynamics.flow"),
    _secs("dynamics.auxiliary_process"),
    _calls("dynamics.flow_jacobian"),
    _counter("dynamics.flow_jacobian.steps", "count", "dynamics.flow_jacobian", "steps"),
    _secs("dynamics.flow_jacobian"),
    Metric("dynamics.blown_frac", "ratio", ("dynamics.simulate_paths",),
           lambda s: _ratio(s.get("dynamics.simulate_paths", "blown"),
                            s.get("dynamics.simulate_paths", "paths"))),
    _secs(VAR), _self_secs(VAR),
    _calls("malliavin.step_matrix"), _secs("malliavin.step_matrix"),
    Metric("malliavin.eval_batch_per_step", "ratio", (VAR, EVAL),
           lambda s: _ratio(s.under(EVAL, VAR), s.get(VAR, "steps"))),
    _secs("malliavin.malliavin_matrix"),
    _secs("malliavin.block_check_ensemble"),
    Metric("malliavin.aborted_frac", "ratio", (VAR,),
           lambda s: _ratio(s.get(VAR, "aborted"), s.get(VAR, "paths"))),
    Metric("malliavin.max_jk_err", "abs", (VAR,),
           lambda s: s.get(VAR, "max_jk_err") if s.get(VAR) else None),
    _secs("diagnostics.convergence_study"),
    _secs("diagnostics.semigroup_derivative"),
    _calls("diagnostics.ks_distance"), _secs("diagnostics.ks_distance"),
    _secs("diagnostics.fokker_planck_residual"),
    _calls("catalog.get"), _secs("catalog.get"),
    _secs("cli.run"),
    _secs("cli.output"),
    _counter("cli.output.bytes", "B", "cli.output", "bytes"),
)


def layer_metrics(records, wrapped):
    """Per-layer values for one set of records.

    Returns (values, not_run, missing).  A metric whose layer did not run is
    reported as 0 and listed in `not_run`; a metric whose source function
    could not be wrapped is left out of `values` and listed in `missing`,
    never reported as a silent zero.
    """
    summary = Summary(records)
    values, not_run, missing = {}, [], []
    for m in METRICS:
        if not set(m.sources) <= wrapped:
            missing.append(m.name)
            continue
        v = m.value(summary)
        if v is None:
            not_run.append(m.name)
            v = 0
        values[m.name] = v
    return values, not_run, missing
