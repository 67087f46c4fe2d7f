"""Deterministic flows, adjoint pushforwards and Stratonovich path simulation.

The stochastic model is dX = V0 dt + sqrt(2) sum_i V_i o dB^i; the sqrt(2)
factor lives here in the integrators, never in the stored fields, so that
the generator of the simulated process is exactly V0 + sum_i V_i^2.

Flows of single fields use fixed-step RK4; paths use the stochastic Heun
predictor-corrector, which integrates the Stratonovich form directly.
Ensembles are reproducible: each path consumes its own substream derived
from the master seed by a SplitMix64 mix, so results are bit-identical for
a given (system, x0, T, dt, n_paths, seed) regardless of chunking or
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .fields import VectorField
from .linalg import svd_rank

SQRT2 = math.sqrt(2.0)
# float64 entries of one chunk's (paths, steps, noises) Brownian increment block
# (512 MiB); a longer horizon is rejected before anything is allocated
MAX_INCREMENT_BLOCK = 2**26

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


class FlowBlowUp(RuntimeError):
    """An integral curve left the finite range."""

    def __init__(self, time):
        self.time = time
        super().__init__(f"flow state became non-finite near t = {time:.6g}")


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 settings for deterministic flows."""

    dt: float = 1e-3
    max_time: float = 1e6

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
    params: dict = field(default_factory=dict)

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


class NumericField:
    """A pointwise-defined field (e.g. a tabulated drift component).

    Wraps a batched callable X -> V(X); the Jacobian falls back to central
    finite differences, so symbolic fields should be preferred when exact
    linearizations matter.
    """

    def __init__(self, dim, fn, name="", fd_step=1e-6):
        self.dim = dim
        self._fn = fn
        self.name = name
        self.fd_step = fd_step

    def eval_batch(self, X):
        X = np.asarray(X, dtype=float)
        return np.asarray(self._fn(X), dtype=float)

    def __call__(self, x):
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian_batch(self, X):
        X = np.asarray(X, dtype=float)
        n = self.dim
        out = np.empty(X.shape[:-1] + (n, n), dtype=float)
        with np.errstate(all="ignore"):
            for i in range(n):
                h = self.fd_step * np.maximum(1.0, np.abs(X[..., i]))
                xp = X.copy()
                xm = X.copy()
                xp[..., i] += h
                xm[..., i] -= h
                out[..., :, i] = (self.eval_batch(xp) - self.eval_batch(xm)) / (2 * h[..., None])
        return out


def _as_numeric(fieldlike):
    if hasattr(fieldlike, "eval_batch"):
        return fieldlike
    raise TypeError("expected a VectorField or NumericField")


def _normalize_xt(x, t):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    t = np.broadcast_to(np.asarray(t, dtype=float), (X.shape[0],)).copy()
    return X, t, single


def flow(V, x, t, cfg=None):
    """Integral-curve endpoint e^{tV}(x) by fixed-step RK4.

    Accepts a single point (N,) or a batch (B, N); `t` may be scalar or per
    row.  Negative times integrate backwards.  All rows share one step count,
    ceil(max|t|/dt), so row i steps by t_i/count.  Raises FlowBlowUp when any
    state leaves the finite range.
    """
    cfg = cfg or FlowConfig()
    X, t, single = _normalize_xt(x, t)
    counts, h = _step_plan(t, cfg, shared=True)
    X = _rk4_rows(_as_numeric(V), X, h, counts)
    return X[0] if single else X


def _step_plan(t, cfg, shared=False):
    """RK4 step counts and sizes for rows flowing for the times `t`.

    A row takes ceil(|t|/dt) steps (at least one, none for t = 0) of size
    t/count, where |t| is the row's own or, when `shared`, the largest over
    all rows.  Rejects a horizon beyond cfg.max_time.
    """
    a = np.abs(t)
    tmax = float(np.max(a))
    if not tmax <= cfg.max_time:
        raise ValueError(f"flow horizon {tmax:.3g} exceeds the configured maximum")
    if shared:
        a = np.full_like(a, tmax)
    counts = np.where(a > 0, np.maximum(1, np.ceil(a / cfg.dt)), 0).astype(np.int64)
    return counts, np.divide(t, counts, out=np.zeros_like(t), where=counts > 0)


def _flow_each(V, X, t, cfg):
    """Row i of X flowed for t[i], bit for bit as a lone flow(V, X[i], t[i], cfg).

    Every row keeps its own step count and size (see _step_plan); the rows
    run through one RK4 loop in ascending count order, and come back in the
    order given.
    """
    counts, h = _step_plan(t, cfg)
    order = np.argsort(counts, kind="stable")
    X = _rk4_rows(_as_numeric(V), X[order], h[order], counts[order])
    return X[np.argsort(order)]


def _rk4_rows(V, X, h, counts):
    """Row i of X after counts[i] RK4 steps of size h[i] (a new array).

    Counts must not decrease down the rows, so the rows still advancing at
    step s are the suffix X[lo:].  Raises FlowBlowUp when an advancing row
    turns non-finite, at the time that row has reached.
    """
    X = np.array(X, dtype=float)
    for s in range(int(counts.max(initial=0))):
        lo = int(np.searchsorted(counts, s, side="right"))
        Y = _rk4_step(V, X[lo:], h[lo:])
        bad = ~np.isfinite(Y).all(axis=1)
        if bad.any():
            raise FlowBlowUp((s + 1) * float(np.max(np.abs(h[lo:][bad]))))
        X[lo:] = Y
    return X


def _rk4_step(V, X, h):
    hc = h[:, None]
    k1 = V.eval_batch(X)
    k2 = V.eval_batch(X + 0.5 * hc * k1)
    k3 = V.eval_batch(X + 0.5 * hc * k2)
    k4 = V.eval_batch(X + hc * k3)
    return X + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_jacobian(V, x, t, cfg=None, with_endpoint=False):
    """Jacobian of x -> e^{tV}(x), by joint RK4 on the variational equation."""
    cfg = cfg or FlowConfig()
    V = _as_numeric(V)
    X, t, single = _normalize_xt(x, t)
    B, n = X.shape
    J = np.broadcast_to(np.eye(n), (B, n, n)).copy()
    counts, h = _step_plan(t, cfg, shared=True)
    for k in range(int(counts[0])):
        hc = h[:, None]
        hj = h[:, None, None]
        k1 = V.eval_batch(X)
        K1 = V.jacobian_batch(X) @ J
        x2 = X + 0.5 * hc * k1
        k2 = V.eval_batch(x2)
        K2 = V.jacobian_batch(x2) @ (J + 0.5 * hj * K1)
        x3 = X + 0.5 * hc * k2
        k3 = V.eval_batch(x3)
        K3 = V.jacobian_batch(x3) @ (J + 0.5 * hj * K2)
        x4 = X + hc * k3
        k4 = V.eval_batch(x4)
        K4 = V.jacobian_batch(x4) @ (J + hj * K3)
        X = X + (hc / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        J = J + (hj / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
        if not np.all(np.isfinite(X)):
            raise FlowBlowUp((k + 1) * float(np.max(np.abs(h))))
    if with_endpoint:
        return (J[0], X[0]) if single else (J, X)
    return J[0] if single else J


def adjoint_push(V, Y, t, x, cfg=None, consistency_tol=1e-7):
    """(Ad_{tV} Y)(x): push Y through the backward differential of the flow of V.

    Computed two ways, as d(e^{-tV}) at e^{tV}x applied to Y(e^{tV}x) and as
    the inverse forward Jacobian applied to the same vector; the two routes
    must agree to consistency_tol.
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
    if err > consistency_tol * (1.0 + np.max(np.abs(back))):
        raise RuntimeError(
            f"adjoint consistency check failed: routes differ by {err:.3e}"
        )
    return back


def stratonovich_to_ito(system):
    """Ito drift b = V0 + sum_i (DV_i) V_i for the sqrt(2)-noise convention.

    The diffusion part is unchanged (columns sqrt(2) V_i); only the drift
    needs the correction when converting for generator or Fokker-Planck work.
    """
    n = system.dim
    comps = []
    for j in range(n):
        acc = system.drift.components[j]
        for V in system.noises:
            for i in range(n):
                acc = ex.Binary(
                    "add",
                    acc,
                    ex.Binary("mul", V.components[i], ex.differentiate(V.components[j], i)),
                )
        comps.append(ex.simplify(acc))
    return VectorField(n, tuple(comps), name=f"{system.name}-ito-drift")


# ---------------------------------------------------------------------------
# Path ensembles
# ---------------------------------------------------------------------------

@dataclass
class PathEnsemble:
    """Seeded Monte Carlo paths stored on a (possibly strided) time grid.

    `increments` holds the Brownian increments aggregated over each stored
    interval; with stride 1 these are the raw per-step increments with
    variance dt per component.  Regenerating with the same arguments gives
    bit-identical arrays.
    """

    seed: int
    dt: float
    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray
    blown: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[2]

    def state_at(self, t):
        """States at the stored time closest to t, plus that grid time."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.times[k], self.states[:, k, :]

    def write_csv(self, fh, stride=1):
        n = self.dim
        fh.write("path_id,time," + ",".join(f"x{j + 1}" for j in range(n)) + "\n")
        idx = list(range(0, len(self.times), stride))
        if idx[-1] != len(self.times) - 1:
            idx.append(len(self.times) - 1)
        for p in range(self.n_paths):
            for k in idx:
                row = ",".join(repr(float(v)) for v in self.states[p, k])
                fh.write(f"{p},{float(self.times[k])!r},{row}\n")


def _stored_steps(n_steps, stride, store_times=None, dt=None):
    if store_times is not None:
        steps = {0, n_steps}
        for t in store_times:
            steps.add(min(n_steps, max(0, int(round(t / dt)))))
        return np.asarray(sorted(steps), dtype=int)
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx, dtype=int)


def _record_state(S, alive, last):
    return S, None


def _run_ensemble(system, x0, T, dt, n_paths, seed, advance, start=(),
                  store=_record_state, store_stride=1, store_times=None, chunk_size=2048):
    """The seeded ensemble loop behind simulate_paths and simulate_variational.

    Each path carries a state tuple (X, *start) that `advance(S, dB)` moves by
    one step.  A path whose new state has a non-finite entry is frozen at its
    last finite state and flagged blown.  At t = 0 and at each stored step,
    `store(S, alive, last)` returns the arrays to record and a mask of paths
    that failed a check (or None), which are frozen and flagged aborted;
    `last` is what it returned at the previous stored step, None at t = 0.
    Path p consumes the substream seeded by path_seed(seed, p), so the
    chunking never changes the output.

    Returns the stored step indices, the recorded arrays (each of shape
    (P, n_stored, ...)), the Brownian increments summed over each stored
    interval, and the blown and aborted flags.
    """
    if not (T > 0 and dt > 0 and n_paths >= 1):
        raise ValueError("need T > 0, dt > 0, n_paths >= 1")
    if T < dt:
        raise ValueError(f"horizon T = {T!r} is shorter than one step dt = {dt!r}")
    if store_stride < 1:
        raise ValueError(f"store stride must be >= 1, got {store_stride!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ValueError(f"x0 must have shape ({system.dim},)")
    block = min(n_paths, chunk_size) * system.d * (T / dt)
    if not block <= MAX_INCREMENT_BLOCK:
        raise ValueError(f"horizon T = {T!r} at dt = {dt!r} needs {block:.3g} Brownian "
                         f"increments per chunk, more than the cap of {MAX_INCREMENT_BLOCK}")
    n_steps = int(round(T / dt))
    steps = _stored_steps(n_steps, store_stride, store_times, dt)
    stored_pos = {int(s): k for k, s in enumerate(steps)}
    P, d = n_paths, system.d

    records = None
    increments = np.zeros((P, len(steps) - 1, d))
    blown = np.zeros(P, dtype=bool)
    aborted = np.zeros(P, dtype=bool)
    for lo in range(0, P, chunk_size):
        hi = min(P, lo + chunk_size)
        dB = np.empty((hi - lo, n_steps, d))
        for p in range(lo, hi):
            rng = np.random.Generator(np.random.PCG64(path_seed(seed, p)))
            dB[p - lo] = rng.standard_normal((n_steps, d)) * math.sqrt(dt)
        S = tuple(np.broadcast_to(a, (hi - lo,) + np.shape(a)).copy() for a in (x0, *start))
        alive = np.ones(hi - lo, dtype=bool)
        row = None
        for step in range(n_steps + 1):
            if step:
                Sn = advance(S, dB[:, step - 1, :])
                ok = alive.copy()
                for a in Sn:
                    ok &= np.isfinite(a).reshape(len(a), -1).all(axis=1)
                blown[lo:hi] |= alive & ~ok
                alive = ok
                S = tuple(np.where(alive.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)
                          for a, b in zip(Sn, S))
                increments[lo:hi, seg, :] += dB[:, step - 1, :]
            pos = stored_pos.get(step)
            if pos is None:
                continue
            row, bad = store(S, alive, row)
            if bad is not None:
                aborted[lo:hi] |= bad
                alive &= ~bad
            if records is None:
                records = tuple(np.empty((P, len(steps)) + a.shape[1:]) for a in row)
            for rec, a in zip(records, row):
                rec[lo:hi, pos] = a
            seg = min(pos, len(steps) - 2)
    return steps, records, increments, blown, aborted


def simulate_paths(system, x0, T, dt, n_paths, seed, store_stride=1, chunk_size=2048,
                   store_times=None):
    """Stochastic Heun ensemble for dX = V0 dt + sqrt(2) sum V_i o dB^i.

    Paths whose state turns non-finite are frozen at their last finite value
    and flagged; the blow-up count lands in `meta`.  Path p consumes the
    substream seeded by path_seed(seed, p), so any chunking or scheduling
    produces identical output.  Rejects T <= 0, dt <= 0, n_paths < 1, a
    horizon shorter than one step and one whose increment block exceeds
    MAX_INCREMENT_BLOCK; any other is rounded to whole steps.
    """
    steps, (states,), increments, blown, _ = _run_ensemble(
        system, x0, T, dt, n_paths, seed,
        lambda S, dB: (_heun_step(system, S[0], dB, dt)[0],),
        store_stride=store_stride, store_times=store_times, chunk_size=chunk_size)
    meta = {
        "system": system.name,
        "x0": np.asarray(x0, dtype=float).tolist(),
        "T": float(T),
        "dt": float(dt),
        "n_steps": int(steps[-1]),
        "store_stride": int(store_stride),
        "blowups": int(blown.sum()),
    }
    return PathEnsemble(seed, dt, steps * dt, states, increments, blown, meta)


def _heun_step(system, X, dB, dt):
    """One stochastic Heun step: the new state and the predictor Xp."""
    a0 = system.drift.eval_batch(X)
    g0 = np.zeros_like(X)
    for i, V in enumerate(system.noises):
        g0 += V.eval_batch(X) * dB[:, i:i + 1]
    Xp = X + a0 * dt + SQRT2 * g0
    a1 = system.drift.eval_batch(Xp)
    g1 = np.zeros_like(X)
    for i, V in enumerate(system.noises):
        g1 += V.eval_batch(Xp) * dB[:, i:i + 1]
    return X + 0.5 * dt * (a0 + a1) + 0.5 * SQRT2 * (g0 + g1), Xp


def auxiliary_process(ensemble, v0perp, cfg=None):
    """Z_t = e^{-t V0perp}(X_t): undo the drift-orthogonal transport per stored time.

    Each stored state flows backward for its own time t with the step count
    and size a lone flow(v0perp, X_t, -t) would use, ceil(t/dt) steps of
    -t/ceil(t/dt), so Z is bit-identical to one flow per stored time.  All
    stored times advance in one RK4 loop, whose rows drop out as their
    count is reached: the cost is that of the longest flow, not the K(K+1)/2
    steps of restarting from t = 0.  The supplied field is the
    drift-orthogonal one; catalog systems provide it in closed form.
    Blown-up paths stay flagged and are carried through unchanged.
    """
    cfg = cfg or FlowConfig(dt=ensemble.dt)
    P, K, N = ensemble.states.shape
    rows = ensemble.states.transpose(1, 0, 2).reshape(K * P, N)
    Z = _flow_each(v0perp, rows, np.repeat(-ensemble.times, P), cfg)
    Z = Z.reshape(K, P, N).transpose(1, 0, 2)
    meta = dict(ensemble.meta)
    meta["transform"] = "auxiliary-process"
    return PathEnsemble(
        ensemble.seed, ensemble.dt, ensemble.times.copy(), np.ascontiguousarray(Z),
        ensemble.increments.copy(), ensemble.blown.copy(), meta,
    )


@dataclass(frozen=True)
class FlowLimitResult:
    status: str  # converged | diverged | not_converged | rank_unstable
    point: np.ndarray
    residual: float
    time: float


def flow_limit(v0perp, x, t_max, stall_tol=1e-8, divergence_radius=1e8,
               cfg=None, rank_probe=None):
    """Limit of e^{t V0perp}(x) as t grows, when it exists.

    Integrates until the field norm falls below stall_tol (converged), the
    state norm exceeds divergence_radius (diverged) or t_max is exhausted
    (not_converged).  When rank_probe is given (a callable x -> rank of the
    bracket distribution), a rank change along the curve stops integration
    with status 'rank_unstable': the flow of the orthogonal drift component
    is not trusted across rank-unstable sets.
    """
    cfg = cfg or FlowConfig()
    V = _as_numeric(v0perp)
    y = np.asarray(x, dtype=float).copy()
    t = 0.0
    rank0 = rank_probe(y) if rank_probe is not None else None
    check_every = 20
    res = float(np.linalg.norm(V.eval_batch(y[None, :])[0]))
    if res < stall_tol:
        return FlowLimitResult("converged", y, res, 0.0)
    Y = y[None, :]
    h = np.array([cfg.dt])
    steps = 0
    while t < t_max:
        Y = _rk4_step(V, Y, h)
        t += cfg.dt
        steps += 1
        if not np.all(np.isfinite(Y)):
            return FlowLimitResult("diverged", Y[0], float("inf"), t)
        if steps % check_every == 0 or t >= t_max:
            res = float(np.linalg.norm(V.eval_batch(Y)[0]))
            if res < stall_tol:
                return FlowLimitResult("converged", Y[0], res, t)
            if float(np.linalg.norm(Y[0])) > divergence_radius:
                return FlowLimitResult("diverged", Y[0], res, t)
            if rank_probe is not None and rank_probe(Y[0]) != rank0:
                return FlowLimitResult("rank_unstable", Y[0], res, t)
    res = float(np.linalg.norm(V.eval_batch(Y)[0]))
    return FlowLimitResult("not_converged", Y[0], res, t)


def rank_along_path(times, states, table, rtol=1e-8):
    """Tolerance rank of the drift-augmented frame at each stored time.

    `states` is (T, N) for one path or (P, T, N) for an ensemble; returns a
    list of (t, rank) pairs, or an array (P, T) in the ensemble case.
    """
    states = np.asarray(states, dtype=float)
    frames = table.evaluate_frame_batch("brackets+drift", states)
    ranks = svd_rank(frames, rtol=rtol)
    if states.ndim == 2:
        return list(zip(np.asarray(times, dtype=float).tolist(), np.atleast_1d(ranks).tolist()))
    return ranks
