"""Deterministic flows, adjoint pushforwards and Stratonovich path simulation.

The stochastic model is dX = V0 dt + sqrt(2) sum_i V_i o dB^i; the sqrt(2)
factor lives here in the integrators, never in the stored fields, so that
the generator of the simulated process is exactly V0 + sum_i V_i^2.

Flows of single fields use fixed-step RK4, each row of a batch with its own
step count, so that a row's endpoint and flow Jacobian do not depend on the
other rows; paths use the stochastic Heun predictor-corrector, which
integrates the Stratonovich form directly.  Both
steps are kernels compiled from the field trees at first use: the RK4 step
once per VectorField (`_compile_rk4_step`, with a twin that also
writes the four stage Jacobians for `flow_jacobian`), the whole Heun step,
drift and noise fields at the state and at the predictor included, once per
system (`_compile_heun_step`, with a twin that also writes the step's
linearizations at the state and at the predictor for the variational
paths of `malliavin`).  They run over column-major workspaces, one
call per step, with floating-point warnings off, and give the values of the
step as array arithmetic to the bit; a NumericField takes its RK4 step as
that array arithmetic.  Ensembles are reproducible: each path consumes its
own substream derived from the master seed by a SplitMix64 mix, so results
are bit-identical for a given (system, x0, T, dt, n_paths, seed) regardless
of chunking or of how many forked workers share the paths.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .fields import VectorField
from .linalg import RANK_RTOL, svd_rank

SQRT2 = math.sqrt(2.0)
# Brownian increments one chunk's paths draw over their run (paths x steps x
# noises), which bounds the run's length; a longer horizon is rejected before
# anything is allocated
MAX_INCREMENT_BLOCK = 2**26
# float64 entries of the arrays an ensemble returns over all its paths, its
# states and final outputs (1 GiB); a larger one is rejected the same way
MAX_STORED_ENTRIES = 2**27
# paths per chunk of the ensemble loop: the increment block and the workspaces
# hold one chunk's paths; the output does not depend on it
CHUNK_PATHS = 2048
# steps per increment block: a chunk draws its paths' normals this many steps
# at a time; the output does not depend on it
STEP_BLOCK = 250
# weighted path-steps (see _run_ensemble) each worker must get before an
# ensemble forks it (see _worker_count): with fewer, the fork and each
# process's fixed cost per step outweigh the rows it takes over; on a 2-core
# x86-64 VM two workers lost at 400 paths x 1000 steps of simulate_paths and
# won at 600 x 1000, and won by 30 % at malliavin's 250 x 1000 (weight 5)
MIN_PATH_STEPS_PER_WORKER = 300_000
# adjoint_push: the largest gap between its two routes, relative to 1 + |result|
ADJOINT_CONSISTENCY_TOL = 1e-7
# flow_limit: the field norm below which the flow counts as converged, and
# the state norm beyond which it counts as diverged
STALL_TOL = 1e-8
DIVERGENCE_RADIUS = 1e8
# the longest horizon a flow accepts (see _step_plan)
MAX_FLOW_TIME = 1e6

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15


def splitmix64(index, seed=0):
    """Element `index` of the SplitMix64 sequence started at `seed`.

    Reference finalizer (Steele, Lea, Flood); test vectors for seed 0 are
    frozen in the test suite and in the README.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def path_seed(master_seed, path_index):
    """Per-path 64-bit substream seed: SplitMix64 sequence element of the master."""
    return splitmix64(path_index, seed=master_seed & _MASK64)


def _path_seeds(master_seed, paths):
    """path_seed(master_seed, p) for each p of the integer array `paths`, as
    uint64, by the SplitMix64 finalizer in wrapping uint64 arithmetic."""
    z = (np.asarray(paths, dtype=np.uint64) + 1) * np.uint64(_GOLDEN)
    z = z + np.uint64(master_seed & _MASK64)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): hashmix and mix
# multipliers on a pool of four uint32 words, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_seed_words(seeds):
    """SeedSequence(s).generate_state(4, np.uint64) for each s of the uint64
    array `seeds`, as (P, 4) uint64: the words np.random.PCG64(s) seeds from.

    numpy's pool mixing run on whole arrays of uint32, which wrap as its C
    arithmetic does.  A seed's entropy is its low and high 32-bit words; the
    high word of a seed below 2^32 is hashed as the zero numpy puts in an
    empty pool slot.  The running hash constant is the same for every seed.
    """
    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ (value >> 16)
        return hashmix

    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in ((seeds & 0xFFFFFFFF).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_L) - hashmix(pool[src]) * np.uint32(_MIX_R)
                pool[dst] = mixed ^ (mixed >> 16)
    hashmix = hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # uint64 word k is uint32 word 2k below word 2k + 1, as numpy views them
    return np.stack([out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)], axis=1)


def _pcg64_state(words):
    """The state np.random.PCG64(s) starts in, for the four seed words of s
    (a row of _pcg64_seed_words as Python ints): PCG64's set-seed, inc =
    2 seq + 1 and two LCG steps from 0 with the seed state added between."""
    s_hi, s_lo, q_hi, q_lo = words
    inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
    state = ((((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class FlowBlowUp(RuntimeError):
    """An integral curve, or its Jacobian, left the finite range."""

    def __init__(self, time, what="flow state"):
        self.time = time
        super().__init__(f"{what} became non-finite near t = {time:.6g}")


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 settings for deterministic flows."""

    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class SDESystem:
    """Drift V0 and noise fields V1..Vd on R^N (Stratonovich, sqrt(2) noise)."""

    dim: int
    drift: VectorField
    noises: tuple
    name: str = ""

    def __post_init__(self):
        if self.drift.dim != self.dim or any(v.dim != self.dim for v in self.noises):
            raise ValueError("all fields must share the system dimension")
        if len(self.noises) < 1:
            raise ValueError("need at least one noise field")

    @property
    def d(self):
        return len(self.noises)

    def all_fields(self):
        return (self.drift,) + tuple(self.noises)

    @cached_property
    def _heun_kernel(self):
        """The stochastic Heun step compiled at first use (see _compile_heun_step)."""
        return _compile_heun_step(self, linearizations=False)

    @cached_property
    def _variational_kernel(self):
        """The Heun step and its linearizations at X and Xp, compiled at first use."""
        return _compile_heun_step(self, linearizations=True)


class NumericField:
    """A pointwise-defined field (e.g. a tabulated drift component).

    Wraps a batched callable X -> V(X); the Jacobian falls back to central
    finite differences, so symbolic fields should be preferred when exact
    linearizations matter.
    """

    fd_step = 1e-6  # relative central-difference step of jacobian_batch

    def __init__(self, dim, fn, name=""):
        self.dim = dim
        self._fn = fn
        self.name = name

    def eval_batch(self, X):
        X = np.asarray(X, dtype=float)
        return np.asarray(self._fn(X), dtype=float)

    def __call__(self, x):
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian_batch(self, X):
        """Central differences in one field call over the 2N copies of the
        rows, copy (+, i) with h added to column i and copy (-, i) with h
        subtracted, h = fd_step max(1, |x_i|)."""
        X = np.asarray(X, dtype=float)
        n = self.dim
        with np.errstate(all="ignore"):
            h = self.fd_step * np.maximum(1.0, np.abs(X))
            S = np.broadcast_to(X, (2, n) + X.shape).copy()
            for i in range(n):
                S[0, i, ..., i] += h[..., i]
                S[1, i, ..., i] -= h[..., i]
            F = self.eval_batch(S.reshape(-1, n)).reshape(S.shape)
            D = (F[0] - F[1]) / (2 * np.moveaxis(h, -1, 0)[..., None])
        return np.ascontiguousarray(np.moveaxis(D, 0, -1))

    def _rk4_stages(self, W):
        """The RK4 step on the rows of a workspace (see _rk4_workspace) by array
        arithmetic: the new state and the four stage points."""
        N = self.dim
        X = np.ascontiguousarray(W[:, :N])  # the callable gets C-ordered rows, as from a caller
        half_h, h, sixth_h = (W[:, N + i, None] for i in range(3))
        k1 = self.eval_batch(X)
        x2 = X + half_h * k1
        k2 = self.eval_batch(x2)
        x3 = X + half_h * k2
        k3 = self.eval_batch(x3)
        x4 = X + h * k3
        k4 = self.eval_batch(x4)
        return X + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (X, x2, x3, x4)

    def _rk4_kernel(self, W, out):
        """The RK4 step with VectorField._rk4_kernel's workspace and output."""
        with np.errstate(all="ignore"):
            out[...] = self._rk4_stages(W)[0]

    def _rk4_jacobian_kernel(self, W, out):
        """The RK4 step and its stage Jacobians, laid out as
        VectorField._rk4_jacobian_kernel writes them."""
        N = self.dim
        with np.errstate(all="ignore"):
            out[:, 0], points = self._rk4_stages(W)
        DV = self.jacobian_batch(np.stack(points))
        out[:, 1:] = np.swapaxes(DV, 0, 1).reshape(len(W), 4 * N, N)


def _as_numeric(fieldlike):
    if isinstance(fieldlike, (VectorField, NumericField)):
        return fieldlike
    raise TypeError("expected a VectorField or NumericField")


def flow(V, x, t, cfg=None):
    """Integral-curve endpoint e^{tV}(x) by fixed-step RK4.

    Accepts a single point (N,) or a batch (B, N); `t` may be scalar or per
    row.  Negative times integrate backwards.  Each row takes its own step
    plan (see _step_plan), so it ends where a lone flow of that row ends, bit
    for bit, whatever else is in the batch.  Raises FlowBlowUp when a state
    leaves the finite range.
    """
    return _flow_rows(V, x, t, cfg, jacobians=False)[0]


def _step_plan(t, cfg):
    """RK4 step counts and sizes for rows flowing for the times `t`.

    Row i takes ceil(|t_i|/dt) steps (at least one, none for t_i = 0) of
    size t_i/count.  Rejects a non-finite time and a horizon beyond
    MAX_FLOW_TIME.
    """
    a = np.abs(t)
    tmax = float(np.max(a))
    if not math.isfinite(tmax):
        raise ValueError(f"flow horizon {tmax} is not finite")
    if not tmax <= MAX_FLOW_TIME:
        raise ValueError(f"flow horizon {tmax:.3g} exceeds the maximum {MAX_FLOW_TIME:.3g}")
    counts = np.where(a > 0, np.maximum(1, np.ceil(a / cfg.dt)), 0).astype(np.int64)
    return counts, np.divide(t, counts, out=np.zeros_like(t), where=counts > 0)


def _flow_rows(V, x, t, cfg, jacobians):
    """The endpoints of flow(V, x, t, cfg) and, with `jacobians`, their flow
    Jacobians (else None).  The rows run through one RK4 loop (_rk4_rows) in
    ascending step-count order, and come back in the order given.
    """
    V = _as_numeric(V)
    x = np.asarray(x, dtype=float)
    X = x[None, :] if x.ndim == 1 else x
    counts, h = _step_plan(np.broadcast_to(np.asarray(t, dtype=float), (len(X),)),
                           cfg or FlowConfig())
    order = np.argsort(counts, kind="stable")
    X, J = _rk4_rows(V, X[order], h[order], counts[order], jacobians)
    back = 0 if x.ndim == 1 else np.argsort(order)
    return X[back], None if J is None else J[back]


def _rk4_rows(V, X, h, counts, jacobians=False):
    """Row i of X after counts[i] RK4 steps of size h[i] (a new array), and
    with `jacobians` the Jacobian of that map at the row (B, N, N), else None.

    Counts must not decrease down the rows, so the rows still advancing at
    step s are the suffix W[lo:] of the column-major workspace that holds
    the state; each step is one call of the field's RK4 kernel, or of its
    twin that also writes the field's Jacobians at the four stage points,
    on which the Jacobians advance by stacked matrix products.  Raises
    FlowBlowUp when an advancing row's state, and then when its Jacobian,
    turns non-finite, at the time the failing rows have reached.
    """
    W = _rk4_workspace(V, X, h)
    B, N = len(W), V.dim
    if jacobians:
        # row-major, so that each stage's DV is a stack of C-ordered matrices as
        # jacobian_batch returns them and `@` takes the same BLAS route
        out = np.empty((B, 4 * N + 1, N))
        step = V._rk4_jacobian_kernel
        J = np.broadcast_to(np.eye(N), (B, N, N)).copy()
    else:
        out = np.empty((B, N), order="F")
        step = V._rk4_kernel
        J = None
    ends = counts.tolist()
    lo = None
    with np.errstate(all="ignore"):
        for s in range(int(counts.max(initial=0))):
            if lo is None or ends[lo] <= s:  # rows drop out: slice the ones left
                lo = int(np.searchsorted(counts, s, side="right"))
                Ws, outs, hs = W[lo:], out[lo:], h[lo:]
                Y = outs[:, 0] if jacobians else outs
                if jacobians:
                    Js, hj = J[lo:], hs[:, None, None]
                    DV = [outs[:, 1 + k * N:1 + (k + 1) * N] for k in range(4)]
            step(Ws, outs)
            total = Y.sum()
            if jacobians:
                K1 = DV[0] @ Js
                K2 = DV[1] @ (Js + 0.5 * hj * K1)
                K3 = DV[2] @ (Js + 0.5 * hj * K2)
                K4 = DV[3] @ (Js + hj * K3)
                Js += (hj / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
                total += Js.sum()
            # a non-finite entry makes its sum non-finite; an overflowing sum
            # of finite entries only takes the slower look that tells which
            if not math.isfinite(total):
                _raise_blowup(Y, hs, s, "flow state")
                if jacobians:
                    _raise_blowup(Js, hs, s, "flow Jacobian")
            Ws[:, :N] = Y
    return np.ascontiguousarray(W[:, :N]), J


def _raise_blowup(A, h, s, what):
    """Raise FlowBlowUp when a row of A (rows first) is non-finite after step
    s, at the largest time (s + 1)|h| among such rows."""
    bad = ~np.isfinite(A.reshape(len(A), -1)).all(axis=1)
    if bad.any():
        raise FlowBlowUp((s + 1) * float(np.max(np.abs(h[bad]))), what)


def _rk4_workspace(V, X, h):
    """Column-major rows for the RK4 kernels of V: the state X, then 0.5 h, h
    and h/6 for each row's step size h."""
    X = _rows_for(V, X)
    N = V.dim
    W = np.empty((len(X), N + 3), order="F")
    W[:, :N] = X
    W[:, N] = 0.5 * h
    W[:, N + 1] = h
    W[:, N + 2] = h / 6.0
    return W


def _rows_for(V, X):
    """The rows X (B, N) as floats; rejects points of another dimension than V's."""
    X = np.asarray(X, dtype=float)
    if X.shape[1:] != (V.dim,):
        raise ValueError(f"points of dimension {X.shape[-1]} for a field on R^{V.dim}")
    return X


def _compile_rk4_step(V, jacobians):
    """One RK4 step of the flow of V, compiled into one kernel for every step size.

    A VectorField compiles it at its first flow and keeps it (`_rk4_kernel`,
    and `_rk4_jacobian_kernel` with `jacobians`).  kernel(W, out) reads rows
    W (P, N + 3) laid out by _rk4_workspace: the state X in the first N
    columns, then 0.5 h, h and h/6 for the row's step size h.  It writes the
    new state to out (P, N), or, with `jacobians`, to out[:, 0] of out
    (P, 4N + 1, N) and the Jacobians DV at the four stage points to
    out[:, 1 + sN:1 + (s + 1)N].  The trees keep the operation order of the
    array arithmetic

        k1 = V(X), k2 = V(X + (0.5 h) k1), k3 = V(X + (0.5 h) k2), k4 = V(X + h k3)
        Xn = X + (h/6) (((k1 + 2.0 k2) + 2.0 k3) + k4)

    so the values are those of that arithmetic on eval_batch arrays to the
    bit, nan and inf included, and no warning is raised.  The field enters
    at a stage point by substituting its trees for the variables; the
    kernel computes each shared subtree once.  A column-major W makes every
    column the kernel reads contiguous.
    """
    N = V.dim
    X = [ex.Var(j) for j in range(N)]
    half_h, h, sixth_h = (ex.Var(N + i) for i in range(3))
    two = ex.Const(2.0)
    points = [X]
    k = [V.components]
    for step in (half_h, half_h, h):
        points.append([x + step * c for x, c in zip(X, k[-1])])
        k.append(ex.substitute(V.components, points[-1]))
    Xn = [x + sixth_h * (a + two * b + two * c + d) for x, a, b, c, d in zip(X, *k)]
    if not jacobians:
        return ex.compile_exprs(Xn, (N,))
    entries = [e for row in V.jacobian_exprs for e in row]
    stages = [e for Y in points for e in ex.substitute(entries, Y)]
    return ex.compile_exprs(Xn + stages, (4 * N + 1, N))


def flow_jacobian(V, x, t, cfg=None, with_endpoint=False):
    """Jacobian of x -> e^{tV}(x), by joint RK4 on the variational equation.

    The rows take flow's step plans, so each row's Jacobian, and its
    endpoint with `with_endpoint`, are those of a lone flow_jacobian of that
    row, bit for bit.  One kernel call per step moves the states and gives
    the field's Jacobians at the four stage points (see _rk4_rows).  Raises
    FlowBlowUp when a state or a Jacobian turns non-finite.
    """
    X, J = _flow_rows(V, x, t, cfg, jacobians=True)
    return (J, X) if with_endpoint else J


def adjoint_push(V, Y, t, x, cfg=None):
    """(Ad_{tV} Y)(x): push Y through the backward differential of the flow of V.

    Computed two ways, as d(e^{-tV}) at e^{tV}x applied to Y(e^{tV}x) and as
    the inverse forward Jacobian applied to the same vector; the two routes
    must agree to ADJOINT_CONSISTENCY_TOL.
    """
    cfg = cfg or FlowConfig()
    V = _as_numeric(V)
    Y = _as_numeric(Y)
    x = np.asarray(x, dtype=float)
    Jf, y = flow_jacobian(V, x, t, cfg, with_endpoint=True)
    vec = Y.eval_batch(y[None, :])[0]
    back = flow_jacobian(V, y, -t, cfg) @ vec
    try:
        alt = np.linalg.solve(Jf, vec)
    except np.linalg.LinAlgError:
        raise RuntimeError("forward flow Jacobian is numerically singular") from None
    err = np.max(np.abs(back - alt))
    if not err <= ADJOINT_CONSISTENCY_TOL * (1.0 + np.max(np.abs(back))):
        raise RuntimeError(
            f"adjoint consistency check failed: routes differ by {err:.3e}"
        )
    return back


# ---------------------------------------------------------------------------
# Path ensembles
# ---------------------------------------------------------------------------

@dataclass
class PathEnsemble:
    """Seeded Monte Carlo paths stored on a (possibly strided) time grid.

    `states` is (P, K, N) at the K stored `times` and `blown` (P,); an
    ensemble of m coupled starts has a leading start axis on both.  The
    Brownian increments are not kept: path p's are the draws of the
    substream path_seed(seed, p).  Regenerating with the same arguments
    gives bit-identical arrays.
    """

    seed: int
    dt: float
    times: np.ndarray
    states: np.ndarray
    blown: np.ndarray

    @property
    def n_paths(self):
        return self.states.shape[-3]

    @property
    def dim(self):
        return self.states.shape[-1]

    def state_at(self, t):
        """States at the stored time closest to t, plus that grid time."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.times[k], self.states[..., k, :]

    def write_csv(self, fh):
        """One line per path and stored time; rejects an ensemble of coupled
        starts, whose rows the format has no column for."""
        if self.states.ndim != 3:
            raise ValueError("write_csv writes one start's paths: select a start of a "
                             "coupled ensemble first")
        n = self.dim
        fh.write("path_id,time," + ",".join(f"x{j + 1}" for j in range(n)) + "\n")
        times = list(map(repr, self.times.tolist()))
        for p in range(self.n_paths):
            # one path at a time: Python floats take about four times the array's memory
            fh.write("".join(f"{p},{t},{','.join(map(repr, x))}\n"
                             for t, x in zip(times, self.states[p].tolist())))


def _stored_steps(n_steps, stride, store_times=None, dt=None):
    if store_times is not None:
        steps = {0, n_steps}
        for t in store_times:
            steps.add(min(n_steps, max(0, int(round(t / dt)))))
        return np.asarray(sorted(steps), dtype=int)
    idx = np.arange(0, n_steps + 1, stride)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


def _worker_count(workers, n_paths, work):
    """How many processes run an ensemble of `n_paths` paths and `work`
    weighted path-steps when `workers` are asked for.  One when `workers`
    is 1, where os has no fork, and while this process runs other threads,
    since a child forked beside them can inherit a lock one of them holds.
    Otherwise at most the cores this process may run on, the paths and one
    worker per MIN_PATH_STEPS_PER_WORKER of `work`, so that a small ensemble
    runs here alone.  Rejects `workers` < 1."""
    if not workers >= 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(workers, cores, n_paths, work // MIN_PATH_STEPS_PER_WORKER))


def _shared_arrays(specs):
    """Zeroed arrays of the (shape, dtype) `specs` in one anonymous MAP_SHARED
    mapping: what a forked child writes into them, its parent reads."""
    import mmap  # loaded here only: a serial ensemble never maps memory

    offsets, size = [], 0
    for shape, dtype in specs:
        offsets.append(size)
        size += -(-math.prod(shape) * np.dtype(dtype).itemsize // 8) * 8
    buf = mmap.mmap(-1, max(size, 1), mmap.MAP_SHARED)
    return [np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
            for (shape, dtype), offset in zip(specs, offsets)]


def _report(run, lo, hi):
    """run(lo, hi) in a worker, and its outcome as the bytes the parent reads:
    a pickled None, or the pickled exception it raised (as a RuntimeError
    naming its type and message when it does not survive pickling)."""
    try:
        run(lo, hi)
        return pickle.dumps(None)
    except BaseException as err:
        try:
            data = pickle.dumps(err)
            pickle.loads(data)
            return data
        except Exception:
            return pickle.dumps(RuntimeError(f"{type(err).__name__}: {err}"))


def _fork_ranges(run, bounds):
    """run(lo, hi) for every (lo, hi) of `bounds`: the first here, each other
    one in a child forked for it, at the same time.

    `run` writes its results into shared memory (see _shared_arrays).  A
    child sends its outcome (see _report) over a pipe and leaves by
    os._exit, so it never flushes the stdio buffers it inherited nor runs
    atexit handlers.  An exception of the lowest range that raised is
    re-raised here; a child that dies without a report is a RuntimeError.
    On any error or interrupt the children still running are killed; every
    child is reaped before this returns.
    """
    children = []  # [pid, read end of its pipe, lo, hi], in path order
    try:
        for lo, hi in bounds[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        fh.write(_report(run, lo, hi))
                finally:
                    os._exit(0)
            os.close(w)
            children.append([pid, r, lo, hi])
        run(*bounds[0])
        while children:
            pid, r, lo, hi = children[0]
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(r)
            if not data:
                raise RuntimeError(f"the worker for paths {lo} to {hi - 1} ended without a "
                                   f"report (wait status {status})")
            err = pickle.loads(data)
            if err is not None:
                raise err
    except BaseException:
        from signal import SIGKILL  # loaded here only: nothing else signals

        for pid, *_ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, r, *_ in children:
            os.close(r)
            os.waitpid(pid, 0)


def _run_ensemble(system, x0, T, dt, n_paths, seed, advance=None, start=(), store=None,
                  final_shapes=(), store_stride=1, store_times=None, workers=1):
    """The seeded ensemble loop behind simulate_paths and simulate_variational.

    Each path carries a state tuple (X, *rest), rest starting at `start`.
    The system's compiled stochastic Heun step (_compile_heun_step) moves X;
    with `advance` it is the variational twin, and `advance(E, *rest)`
    returns the new rest from the step's linearizations E = [G(X); G(Xp)]
    (P, 2N, N).  A path whose new state or rest has a non-finite entry is
    frozen at its last finite state and flagged blown.
    X is recorded at t = 0 and at each stored step.  There, too,
    `store(S, alive, carry, times, k)` runs on the k-th of the stored
    `times` and returns (carry, bad): what it carries to the next stored
    step (`carry` is None at t = 0) and a mask of paths that failed a
    check (or None), which are frozen and flagged aborted.  At the last
    stored step its carry is the chunk's final outputs, one array per
    path of each of the `final_shapes`.  X in S is a view that the loop
    overwrites, so `store` copies what it keeps of it.  Path p consumes the
    substream seeded by path_seed(seed, p), so no split of the paths, into
    chunks (CHUNK_PATHS paths at a time) or worker ranges, changes the
    output.

    `x0` is one start (N,) or m coupled starts (m, N).  Coupled starts share
    each path's one draw of increments: a chunk of n paths runs as m n rows,
    row j n + i being path i from start j, so every start gets the values a
    run of its own would give, blow-ups frozen and flagged per row.

    Seeding runs once for all paths, and the outputs are allocated, before
    any path runs: path seeds and numpy's SeedSequence mixing are array
    arithmetic (_path_seeds, _pcg64_seed_words).  Each worker keeps one
    generator per path of a chunk and sets it, per chunk, to the state
    np.random.PCG64(path_seed(seed, p)) would start in.  A chunk draws its
    normals STEP_BLOCK steps at a time into the paths' rows of one
    path-major (chunk, STEP_BLOCK, d) block, scaled by sqrt(dt) as drawn; a
    path's generator runs on from one block to the next, so its draws are
    those of one call over the whole horizon.  A chunk's state lives
    column-major in the workspace the kernel reads, beside the current
    step's increments, which are copied in from the block.  While every row
    of the chunk is alive, a step checks the whole new state at once and
    takes it; the per-row freeze runs only from the first step that fails
    that check.

    With `workers` k > 1 (see _worker_count for how many run) the paths
    split into k contiguous ranges, which run at the same time in this
    process and k - 1 forked children (_fork_ranges), each writing its
    slice of the outputs (states, final outputs, flags) in one shared
    mapping.

    Rejects, before allocating anything, a horizon over which a chunk would
    draw more than MAX_INCREMENT_BLOCK increments and an ensemble whose
    states and final outputs exceed MAX_STORED_ENTRIES.

    Returns the stored step indices, the states ((P, n_stored, N), or
    (m, P, n_stored, N) for coupled starts), the final outputs ((P, ...) or
    (m, P, ...)) and the blown and aborted flags ((P,) or (m, P)).
    """
    if not (T > 0 and dt > 0 and n_paths >= 1):
        raise ValueError("need T > 0, dt > 0, n_paths >= 1")
    if T < dt:
        raise ValueError(f"horizon T = {T!r} is shorter than one step dt = {dt!r}")
    if store_stride < 1:
        raise ValueError(f"store stride must be >= 1, got {store_stride!r}")
    x0 = np.asarray(x0, dtype=float)
    starts = np.atleast_2d(x0)
    if x0.ndim > 2 or not starts.size or starts.shape[1] != system.dim:
        raise ValueError(f"x0 must have shape ({system.dim},) or (m, {system.dim})")
    P, N, d, m = n_paths, system.dim, system.d, len(starts)
    draws = min(P, CHUNK_PATHS) * d * (T / dt)
    if not draws <= MAX_INCREMENT_BLOCK:
        raise ValueError(f"horizon T = {T!r} at dt = {dt!r} needs {draws:.3g} Brownian "
                         f"increments per chunk, more than the cap of {MAX_INCREMENT_BLOCK}")
    n_steps = int(round(T / dt))
    n_stored = len(store_times) + 2 if store_times is not None else -(-n_steps // store_stride) + 1
    stored = P * m * (n_stored * N + sum(math.prod(shape) for shape in final_shapes))
    if stored > MAX_STORED_ENTRIES:
        raise ValueError(f"{P} paths stored at {n_stored} times need {stored:.3g} stored "
                         f"values, more than the cap of {MAX_STORED_ENTRIES}")
    # a path-step weighs one for the Heun step and 1 + 2N for the variational
    # step, which also advances J and inverts it at the stored steps
    weight = 1 + 2 * N if advance is not None else 1
    workers = _worker_count(workers, P, m * P * n_steps * weight)
    steps = _stored_steps(n_steps, store_stride, store_times, dt)
    times = steps * dt
    step, rows = _heun_kernel_rows(system, advance is not None)
    # every path's seed words, computed here once for all workers; slices of
    # one chunk bound the temporaries
    words = np.empty((P, 4), dtype=np.uint64)
    for lo in range(0, P, CHUNK_PATHS):
        paths = np.arange(lo, min(P, lo + CHUNK_PATHS))
        words[lo:lo + CHUNK_PATHS] = _pcg64_seed_words(_path_seeds(seed, paths))
    specs = [((m, P, len(steps), N), float)]
    specs += [((m, P) + shape, float) for shape in final_shapes]
    specs += [((m, P), bool)] * 2
    if workers > 1:
        states, *finals, blown, aborted = _shared_arrays(specs)
    else:
        states, *finals, blown, aborted = (np.zeros(shape, dtype) for shape, dtype in specs)

    def run_paths(lo, hi):
        """Paths lo to hi - 1, a chunk at a time, into their slices of the outputs."""
        # one generator per path of a chunk, each set to its path's start
        # state per chunk below; built from one shared SeedSequence, which is
        # cheaper than building one from an int for each
        entropy = np.random.SeedSequence(0)
        rngs = [np.random.Generator(np.random.PCG64(entropy))
                for _ in range(min(hi - lo, CHUNK_PATHS))]
        block = min(n_steps, STEP_BLOCK)
        G = np.empty((len(rngs), block, d))
        for c0 in range(lo, hi, CHUNK_PATHS):
            c1 = min(hi, c0 + CHUNK_PATHS)
            n = c1 - c0
            for rng, w in zip(rngs, words[c0:c1].tolist()):
                rng.bit_generator.state = _pcg64_state(w)
            W = _heun_workspace(m * n, N, d, dt)
            out = np.empty((m * n, rows, N), order="F")
            X = W[:, :N]
            X[...] = np.repeat(starts, n, axis=0)
            dB = W[:, N:N + d]
            dB_starts = dB.reshape(m, n, d)  # a view: the column-major rows split by start
            rest = tuple(np.broadcast_to(a, (m * n,) + np.shape(a)).copy() for a in start)
            alive = np.ones(m * n, dtype=bool)
            intact = True  # no row of the chunk blown or aborted yet
            carry = None
            k = 0  # index of the next stored step
            for s in range(n_steps + 1):
                if s:
                    b = (s - 1) % block
                    if not b:  # the next block of steps, short at the end
                        drawn = G[:n, :n_steps - s + 1]
                        for g, rng in zip(drawn, rngs):
                            rng.standard_normal(out=g)
                        drawn *= math.sqrt(dt)
                    dB_starts[...] = G[:n, b]
                    step(W, out)
                    Xn = out[:, 0]
                    new = advance(out[:, 2:], *rest) if advance else ()
                    if intact and np.isfinite(Xn).all() and all(np.isfinite(a).all() for a in new):
                        X[...] = Xn
                        rest = new
                    else:
                        intact = False
                        ok = alive.copy()
                        for a in (Xn, *new):
                            ok &= np.isfinite(a).reshape(m * n, -1).all(axis=1)
                        blown[:, c0:c1] |= (alive & ~ok).reshape(m, n)
                        alive = ok
                        np.copyto(X, Xn, where=alive[:, None])
                        rest = tuple(np.where(alive.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)
                                     for a, b in zip(new, rest))
                if s != steps[k]:
                    continue
                states[:, c0:c1, k] = X.reshape(m, n, N)
                if store is not None:
                    carry, bad = store((X, *rest), alive, carry, times, k)
                    if bad is not None:
                        aborted[:, c0:c1] |= bad.reshape(m, n)
                        alive &= ~bad
                        intact = intact and bool(alive.all())
                k += 1
            for final, a in zip(finals, carry or ()):
                final[:, c0:c1] = a.reshape((m, n) + a.shape[1:])

    cuts = [P * i // workers for i in range(workers + 1)]
    _fork_ranges(run_paths, list(zip(cuts, cuts[1:])))
    if x0.ndim == 1:
        states, blown, aborted = states[0], blown[0], aborted[0]
        finals = [a[0] for a in finals]
    return steps, states, tuple(finals), blown, aborted


def simulate_paths(system, x0, T, dt, n_paths, seed, store_stride=1, store_times=None,
                   workers=1):
    """Stochastic Heun ensemble for dX = V0 dt + sqrt(2) sum V_i o dB^i.

    Paths whose state turns non-finite are frozen at their last finite value
    and flagged in `blown`.  Path p consumes the substream seeded by
    path_seed(seed, p), so any chunking or scheduling produces identical
    output.  Seeding is one vectorised pass over all paths that gives each
    path the generator state np.random.PCG64(seed_p) starts in, and the
    draws go into a path-major block STEP_BLOCK steps at a time (see
    _run_ensemble); the states are stored at every `store_stride`-th step
    and at the last one, or at the steps nearest `store_times`, 0 and T.

    With m starts x0 (m, N) the starts are coupled: they share each path's
    one draw of increments, and the ensemble holds states (m, P, K, N) and
    blown flags (m, P), start j's equal to those of a run from x0[j] alone.
    Rejects T <= 0, dt <= 0, n_paths < 1, a horizon shorter than one step,
    one over which a chunk would draw more than MAX_INCREMENT_BLOCK
    increments and an ensemble whose stored arrays exceed
    MAX_STORED_ENTRIES; any other horizon is rounded to whole steps.  With
    `workers` > 1 contiguous ranges of the paths run at the same time in
    forked processes, one worker per MIN_PATH_STEPS_PER_WORKER path-steps
    at most, with the same output.
    """
    steps, states, _, blown, _ = _run_ensemble(
        system, x0, T, dt, n_paths, seed, store_stride=store_stride, store_times=store_times,
        workers=workers)
    return PathEnsemble(seed, dt, steps * dt, states, blown)


def _compile_heun_step(system, linearizations):
    """One stochastic Heun step of `system`, compiled into one kernel for every dt.

    kernel(W, out) reads rows W (P, N + d + 2): the state X in the first N
    columns, the step's increments dB in the next d, then dt and dt/2; it
    writes the new state to out[:, 0] and the predictor Xp to out[:, 1] of
    out (P, 2, N).  With `linearizations`, out is (P, 2 + 2N, N) and the
    kernel also writes the step's linearization G(X) to out[:, 2:2 + N] and
    G(Xp) to out[:, 2 + N:], where J_{n+1} = (I + (G(X) + G(Xp) +
    G(Xp) G(X)) / 2) J_n is the Heun step of the variational equation.  The
    trees keep the operation order of the array arithmetic

        g(Y) = 0.0 + V_1(Y) dB^1 + ... + V_d(Y) dB^d
        Xp = (X + V0(X) dt) + sqrt(2) g(X)
        Xn = (X + (dt/2) (V0(X) + V0(Xp))) + (0.5 sqrt(2)) (g(X) + g(Xp))
        G(Y) = dt DV0(Y) + (sqrt(2) dB^1) DV_1(Y) + ... + (sqrt(2) dB^d) DV_d(Y)

    (G summed left to right), so the values are those of that arithmetic on
    eval_batch and jacobian_batch arrays to the bit, nan and inf included,
    and no warning is raised.  The fields and their Jacobians enter at Xp by
    substituting the predictor trees for the variables; the kernel computes
    each shared subtree once.  Column-major W and out make every column it
    reads and writes contiguous.
    """
    N, d = system.dim, system.d
    X = [ex.Var(j) for j in range(N)]
    dB = [ex.Var(N + i) for i in range(d)]
    dt, half_dt = ex.Var(N + d), ex.Var(N + d + 1)
    sqrt2 = ex.Const(SQRT2)

    def fields_at(Y):
        V0, *noises = (ex.substitute(V.components, Y) for V in system.all_fields())
        g = [sum((V[j] * b for V, b in zip(noises, dB)), ex.ZERO) for j in range(N)]
        return V0, g

    a0, g0 = fields_at(X)
    Xp = [x + a * dt + sqrt2 * g for x, a, g in zip(X, a0, g0)]
    a1, g1 = fields_at(Xp)
    Xn = [x + half_dt * (a + b) + ex.Const(0.5 * SQRT2) * (g + h)
          for x, a, b, g, h in zip(X, a0, a1, g0, g1)]
    if not linearizations:
        return ex.compile_exprs(Xn + Xp, (2, N))
    entries = [[e for row in V.jacobian_exprs for e in row] for V in system.all_fields()]
    scales = [sqrt2 * b for b in dB]

    def linearization(Y):
        D0, *noises = (ex.substitute(E, Y) for E in entries)
        G = [dt * e for e in D0]
        for c, D in zip(scales, noises):
            G = [acc + c * e for acc, e in zip(G, D)]
        return G

    return ex.compile_exprs(Xn + Xp + linearization(X) + linearization(Xp), (2 + 2 * N, N))


def _heun_workspace(n, N, d, dt):
    """Column-major rows for the Heun kernel, with the dt and dt/2 columns set."""
    W = np.empty((n, N + d + 2), order="F")
    W[:, N + d] = dt
    W[:, N + d + 1] = 0.5 * dt
    return W


def _heun_kernel_rows(system, linearizations):
    """The system's compiled Heun step, or its variational twin with
    `linearizations`, and the number of rows of N values it writes per path."""
    if linearizations:
        return system._variational_kernel, 2 + 2 * system.dim
    return system._heun_kernel, 2


def _heun_rows(system, X, dB, dt, linearizations=False):
    """What one compiled stochastic Heun step writes from the rows X (P, N)
    with increments dB (P, d): the new state in out[:, 0], the predictor Xp
    in out[:, 1] and, with `linearizations`, G(X) and G(Xp) in out[:, 2:]."""
    N, d = system.dim, system.d
    W = _heun_workspace(len(X), N, d, dt)
    W[:, :N] = X
    W[:, N:N + d] = dB
    kernel, rows = _heun_kernel_rows(system, linearizations)
    out = np.empty((len(X), rows, N), order="F")
    kernel(W, out)
    return out


def _heun_step(system, X, dB, dt):
    """One stochastic Heun step from the rows X (P, N) with increments dB (P, d):
    the new state and the predictor Xp, by the system's compiled step."""
    out = _heun_rows(system, X, dB, dt)
    return out[:, 0], out[:, 1]


def auxiliary_process(ensemble, v0perp):
    """Z_t = e^{-t V0perp}(X_t): undo the drift-orthogonal transport per stored time.

    Each stored state flows backward for its own time t in one flow call at
    the ensemble's step dt, so Z is bit-identical to one flow per stored
    time.  All stored times advance in one RK4 loop, whose rows drop out as
    their count is reached: the cost is that of the longest flow, not the
    K(K+1)/2 steps of restarting from t = 0.  The supplied field is the
    drift-orthogonal one; catalog systems provide it in closed form.
    Blown-up paths stay flagged and are carried through unchanged.
    """
    P, K, N = ensemble.states.shape
    rows = ensemble.states.transpose(1, 0, 2).reshape(K * P, N)
    Z = flow(v0perp, rows, np.repeat(-ensemble.times, P), FlowConfig(dt=ensemble.dt))
    Z = Z.reshape(K, P, N).transpose(1, 0, 2)
    return PathEnsemble(ensemble.seed, ensemble.dt, ensemble.times.copy(),
                        np.ascontiguousarray(Z), ensemble.blown.copy())


@dataclass(frozen=True)
class FlowLimitResult:
    status: str  # converged | diverged | not_converged
    point: np.ndarray
    residual: float
    time: float


def flow_limit(v0perp, x, t_max):
    """Limit of e^{t V0perp}(x) as t grows, when it exists.

    Takes flow's steps for the horizon t_max (see _step_plan; a negative
    one is rejected too), so an unconverged run ends where
    flow(v0perp, x, t_max) ends, bit for bit.  Converged: the field norm is
    below STALL_TOL at the start, every 20 steps or at t_max.  Diverged:
    else the state norm exceeds DIVERGENCE_RADIUS, or a state turns
    non-finite (residual inf, the last state checked).
    """
    V = _as_numeric(v0perp)
    y = _rows_for(V, np.array(x, dtype=float)[None, :])
    if t_max < 0:
        raise ValueError(f"flow_limit horizon {t_max} is negative")
    counts, h = _step_plan(np.array([t_max], dtype=float), FlowConfig())
    count, step = int(counts[0]), float(h[0])
    s, res = 0, float(np.linalg.norm(V.eval_batch(y)[0]))
    while not res < STALL_TOL:
        if s == count:
            return FlowLimitResult("not_converged", y[0], res, s * step)
        k = min(20, count - s)
        try:
            y = _rk4_rows(V, y, h, np.array([k]))[0]
        except FlowBlowUp as err:
            return FlowLimitResult("diverged", y[0], math.inf, s * step + err.time)
        s += k
        res = float(np.linalg.norm(V.eval_batch(y)[0]))
        if not res < STALL_TOL and float(np.linalg.norm(y[0])) > DIVERGENCE_RADIUS:
            return FlowLimitResult("diverged", y[0], res, s * step)
    return FlowLimitResult("converged", y[0], res, s * step)


def rank_along_path(states, table, rtol=RANK_RTOL):
    """Tolerance rank of the drift-augmented frame at each stored state: an
    array (P, T) for the states (P, T, N) of an ensemble.
    """
    states = np.asarray(states, dtype=float)
    frames = np.concatenate([table.frame(table.r_m(), states),
                             table.drift.eval_batch(states)[..., None]], axis=-1)
    return svd_rank(frames, rtol=rtol)
