"""Distribution ranks, drift decomposition, pointwise condition checkers and charts.

Pointwise tests stand in for the "for every x" quantifiers of the underlying
conditions, so a passing verdict is always qualified: `satisfied_on_samples`.
A numeric test also cannot certify that regression coefficients extend to
globally bounded smooth functions, hence the third verdict `suspect` for
points where the algebra works but the coefficients blow up.

Alignment conditions ("obtuse angle"): the requirement

    (Uf)(Wf) <= -lam |Wf|^2   for all smooth f, at a fixed point x,

with Uf = <u, grad f> and Wf = <w, grad f>, is a quadratic form in g = grad f:
<u,g><w,g> + lam <w,g>^2 = g^T sym((u + lam w) w^T) g <= 0 for all g, which
holds iff the symmetric rank-<=2 matrix sym((u + lam w) w^T) is negative
semidefinite.  That is the whole quantifier elimination; the second-order
variant is the same statement with g replaced by the (Hessian, gradient)
jet and u, w by operator coefficient vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .dynamics import FlowBlowUp, FlowConfig, NumericField, _flow_each, flow, flow_jacobian
from .fields import VectorField
from .linalg import (
    RANK_RTOL,
    alignment_certificate,
    greedy_independent_columns,
    pivoted_columns,
    project_onto_columns,
    rank_from_singular_values,
    svd_rank,
    sym_outer_max_eig,
    vecnorm,
)

DEFAULT_COEFF_BLOWUP = 1e6
# check_lyapunov's margin allowance, relative to 1 + |C1| + |C2|
LYAPUNOV_TOL = 1e-9
# a chart accepts coordinates up to this multiple of its radius, which leaves
# room for Newton iterates just outside the cube
CHART_SLACK = 1.5
# Chart.inverse: the Newton iterations before it gives up
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class SamplePlan:
    """Where a pointwise checker looks: a box grid or an explicit point list."""

    box: tuple = ()
    grid: int = 32
    points: np.ndarray | None = None

    def sample(self, dim=None):
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        else:
            if not self.box:
                raise ValueError("sample plan needs a box or explicit points")
            axes = []
            for lo, hi in self.box:
                if not lo < hi:
                    raise ValueError(f"box axis [{lo}, {hi}] is empty")
                axes.append(np.linspace(lo, hi, self.grid))
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([m.ravel() for m in mesh])
        if dim is not None and pts.shape[1] != dim:
            raise ValueError(f"plan points have dimension {pts.shape[1]}, expected {dim}")
        if len(pts) < 1:
            raise ValueError("sample plan produced no points")
        return pts


@dataclass
class PointRecord:
    point: list
    residual: float
    max_coeff: float = float("nan")
    min_eig: float = float("nan")
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "point": [float(v) for v in self.point],
            "residual": float(self.residual),
        }
        if not math.isnan(self.max_coeff):
            out["max_coeff"] = float(self.max_coeff)
        if not math.isnan(self.min_eig):
            out["min_eig"] = float(self.min_eig)
        out.update(self.extra)
        return out


@dataclass
class ConditionReport:
    """Per-point residuals and a three-state verdict for one checked condition."""

    condition: str
    level: int | None
    lambda0: float | None
    records: list
    verdict: str
    worst_point: list | None
    singular_points: list = field(default_factory=list)
    skipped_points: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "satisfied_on_samples"

    def to_dict(self):
        out = {
            "condition": self.condition,
            "verdict": self.verdict,
            "worst_point": self.worst_point,
            "records": [r.to_dict() for r in self.records],
            "singular_points": self.singular_points,
            "skipped_points": self.skipped_points,
        }
        if self.level is not None:
            out["level"] = self.level
        if self.lambda0 is not None:
            out["lambda0"] = self.lambda0
        out.update(self.notes)
        return out


def _finish_report(condition, level, lambda0, records, singular, skipped,
                   residual_tol, coeff_threshold=None, notes=None):
    """Derive the three-state verdict and the worst point from records in point order."""
    violated = [r for r in records if r.residual > residual_tol]
    verdict = "satisfied_on_samples"
    worst = None
    if violated:
        verdict = "violated"
        worst = max(violated, key=lambda r: r.residual).point
    elif coeff_threshold is not None:
        hot = [r for r in records if not math.isnan(r.max_coeff) and r.max_coeff > coeff_threshold]
        if hot:
            verdict = "suspect"
            worst = max(hot, key=lambda r: r.max_coeff).point
    if worst is None and records:
        worst = max(records, key=lambda r: r.residual).point
    return ConditionReport(condition, level, lambda0, records, verdict, worst,
                           singular, skipped, notes or {})


# ---------------------------------------------------------------------------
# Drift decomposition
# ---------------------------------------------------------------------------

def decompose_drift_rows(table, X, rtol=RANK_RTOL):
    """Split the drift at each row of X (P, N) into bracket-span and orthogonal parts.

    The frames and the drift are evaluated once over all rows under the
    domain check (a frame failure names its bracket) and split by
    `_drift_split`; returns one (v_par, v_perp, residual) per row.
    """
    v_par, v_perp, residual = _drift_split(table.evaluate_frame("brackets", X),
                                           table.drift(X), rtol)
    return list(zip(v_par, v_perp, map(float, residual)))


def _drift_split(frames, drifts, rtol):
    """Stacked split of drifts (..., N) against frames (..., N, k): (v_par, v_perp, residual).

    The in-span part is the least-squares projection onto the frame's columns
    (`project_onto_columns`, cutoff rtol); the residual is
    max_beta |<v_perp, column_beta>| / (1 + |v_perp|), 0 for a frame without
    columns.
    """
    v_par = project_onto_columns(frames, drifts, rtol=rtol)
    v_perp = drifts - v_par
    residual = np.zeros(frames.shape[:-2])
    if frames.shape[-1]:
        dots = (np.swapaxes(frames, -1, -2) @ v_perp[..., None])[..., 0]
        residual = np.max(np.abs(dots), axis=-1) / (1.0 + vecnorm(v_perp))
    return v_par, v_perp, residual


def drift_orthogonal_field(table, rtol=RANK_RTOL):
    """The pointwise drift-orthogonal component as a numeric field.

    Catalog systems carry closed-form versions; this fallback recomputes the
    projection at every evaluation point and is correct wherever the bracket
    frame has locally constant rank.
    """
    def fn(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        drifts = table.drift.eval_batch(X)
        return drifts - project_onto_columns(table.evaluate_frame_batch("brackets", X),
                                             drifts, rtol=rtol)

    return NumericField(table.dim, fn, name="drift-orthogonal")


# ---------------------------------------------------------------------------
# UFG / Hoermander / Kalman checks
# ---------------------------------------------------------------------------

def _positive_max(a):
    """Largest entry of a that exceeds 0.0, else 0.0: NaNs are ignored, as a
    running `max(best, x)` started at 0.0 ignores them."""
    return float(np.max(np.where(a > 0.0, a, 0.0), initial=0.0))


def check_ufg(table, plan, m=None, residual_tol=1e-8,
              coeff_blowup_threshold=DEFAULT_COEFF_BLOWUP, rtol=RANK_RTOL):
    """Pointwise finite-generation test at level m.

    At each sample point every bracket field with m < length <= m+2 is
    regressed onto the level-m frame.  The residual is measured against the
    full frame span; the reported coefficients come from a deterministic
    independent sub-frame selected in canonical order, so collinear columns
    cannot hide a blow-up of the representation (the `suspect` verdict).
    One least-squares solve per point takes all targets as right-hand sides;
    its records equal those of one solve per (point, target) to the bit while
    each nonzero target's largest entry lies between about 2e-292 and 5e291,
    outside which LAPACK's gelsd rescales the whole right-hand-side block.
    """
    m = table.m if m is None else m
    if m > table.m:
        raise ValueError(f"table was built at level {table.m}, cannot check level {m}")
    frame_idx = table.indices(m)
    targets = [a for a in table.indices() if m < a.length <= m + 2]
    pts = plan.sample(table.dim)
    frames = table.evaluate_frame_batch("brackets", pts)[:, :, : len(frame_idx)]
    # V[i, t] is target t at point i: the rows the norms below run over are contiguous
    V = np.empty((len(pts), len(targets), table.dim))
    for t, a in enumerate(targets):
        V[:, t] = table.field(a).eval_batch(pts)
    finite = np.isfinite(frames).all(axis=(1, 2)) & np.isfinite(V).all(axis=(1, 2))
    singular = finite & ~frames.any(axis=(1, 2))
    regular = np.flatnonzero(finite & ~singular)

    records = []
    # non-finite points are skipped; overflow at the others is reported, not warned
    with np.errstate(all="ignore"):
        for i in regular:
            F, Vi = frames[i], V[i]
            sel = greedy_independent_columns(F, rtol=rtol)
            R, max_coeff = Vi, 0.0
            if sel:
                B = F[:, sel]
                C = np.linalg.lstsq(B, Vi.T, rcond=None)[0]
                # one matrix-vector product per target, as B @ c for a single c
                R = Vi - (B @ np.ascontiguousarray(C.T)[:, :, None])[..., 0]
                max_coeff = _positive_max(np.max(np.abs(C), axis=0))
            resid = vecnorm(R) / (1.0 + vecnorm(Vi))
            records.append(PointRecord(list(map(float, pts[i])), _positive_max(resid),
                                       max_coeff=max_coeff))
    return _finish_report("ufg", m, None, records,
                          [[float(v) for v in x] for x in pts[singular]],
                          int(np.sum(~finite)), residual_tol, coeff_blowup_threshold)


def check_hormander(table, plan, variant="HC", rtol=RANK_RTOL):
    """Full-rank test of the bracket frame (PHC) or drift-augmented frame (HC)."""
    variant = variant.upper()
    if variant not in ("HC", "PHC"):
        raise ValueError("variant must be 'HC' or 'PHC'")
    subset = "brackets+drift" if variant == "HC" else "brackets"
    pts = plan.sample(table.dim)
    frames = table.evaluate_frame_batch(subset, pts)
    N = table.dim
    finite = np.flatnonzero(np.isfinite(frames).all(axis=(1, 2)))
    s = np.linalg.svd(frames[finite], compute_uv=False)
    ranks = rank_from_singular_values(s, rtol=rtol)
    records = [PointRecord(
        list(map(float, pts[i])), float(N - r),
        min_eig=float(sv[N - 1]) if len(sv) >= N else 0.0,
        extra={"rank": int(r)},
    ) for i, sv, r in zip(finite, s, ranks)]
    return _finish_report(variant.lower(), table.m, None, records, [],
                          len(pts) - len(finite), residual_tol=0.0)


def check_kalman(A, Q, rtol=RANK_RTOL):
    """Controllability-matrix rank test: rank [Q, AQ, ..., A^{N-1}Q] == N."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.asarray(Q, dtype=float)
    if Q.ndim == 1:
        Q = Q[:, None]
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape[0] != n:
        raise ValueError("A must be square and Q must have matching rows")
    blocks, P = [], Q
    for _ in range(n):
        blocks.append(P)
        P = A @ P
    rank = svd_rank(np.hstack(blocks), rtol=rtol)
    return rank == n, rank


# ---------------------------------------------------------------------------
# Obtuse-angle conditions
# ---------------------------------------------------------------------------

def _alignment_records(pts, U, W, lambda0, tol):
    """One alignment record per regular point, from pairs (u, w) stacked (P, K, n).

    Point i is skipped when any entry of U[i] or W[i] is not finite and is
    singular when every W[i] vanishes.  Elsewhere, with
    tau_k = tol (1 + |u_k||w_k|), the record holds the worst margin
    max_k max-eig sym((u_k + lambda0 w_k) w_k^T) - tau_k and the
    certificate min_k alignment_certificate(u_k, w_k, tau_k).  The folds
    over k keep Python's max/min rule: a nan entry is passed over and the
    first of equal entries is kept.  Overflow is reported in the records,
    not warned.  Returns (records, singular points, skipped count).
    """
    finite = np.isfinite(U).all(axis=(1, 2)) & np.isfinite(W).all(axis=(1, 2))
    singular = finite & ~W.any(axis=(1, 2))
    regular = np.flatnonzero(finite & ~singular)
    u, w = U[regular], W[regular]
    with np.errstate(all="ignore"):
        tau = tol * (1.0 + vecnorm(u) * vecnorm(w))
        margin = sym_outer_max_eig(u + lambda0 * w, w) - tau
    cert = alignment_certificate(u, w, tau)
    worst = np.full(len(regular), -np.inf)
    best = np.full(len(regular), np.inf)
    for k in range(U.shape[1]):
        worst = np.where(margin[:, k] > worst, margin[:, k], worst)
        best = np.where(cert[:, k] < best, cert[:, k], best)
    records = [PointRecord(list(map(float, pts[i])), float(m),
                           extra={"lambda0_certified": float(c)})
               for i, m, c in zip(regular, worst, best)]
    return records, [[float(v) for v in x] for x in pts[singular]], int(np.sum(~finite))


def _alignment_report(condition, table, pts, U, W, lambda0, tol, notes=None):
    rep = _finish_report(condition, table.m, lambda0,
                         *_alignment_records(pts, U, W, lambda0, tol),
                         residual_tol=0.0, notes=notes)
    if rep.records:
        rep.notes["lambda0_certified_min"] = float(
            min(r.extra["lambda0_certified"] for r in rep.records)
        )
    return rep


def check_oac(table, plan, lambda0, tol=1e-9):
    """First-order alignment test, see the module docstring.

    For every level-m index the pair (u, w) = (bracket with the drift, the
    field itself) must satisfy max-eig sym((u + lambda0 w) w^T) <= tol
    (1 + |u||w|).  The largest certifiable lambda0 at each point is solved in
    closed form from the aligned component and reported.  All points and
    indices go through one stacked pass (_alignment_records).
    """
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    alphas = table.r_m()
    pts = plan.sample(table.dim)
    W = np.empty((len(pts), len(alphas), table.dim))
    U = np.empty_like(W)
    for k, a in enumerate(alphas):
        W[:, k] = table.field(a).eval_batch(pts)
        U[:, k] = table.field(a.extend(0)).eval_batch(pts)
    return _alignment_report("oac", table, pts, U, W, lambda0, tol)


def _second_order_coefficients(a_field, b_field):
    """Symbolic coefficients (S, w) of the composition a.b as an operator.

    (a b) f = <S, Hess f> + <w, grad f> with S = sym(a b^T) and
    w_j = sum_i a_i d_i b_j.
    """
    n = a_field.dim
    a, b, db = a_field.components, b_field.components, b_field.jacobian_exprs
    half = ex.Const(0.5)
    S = [[ex.simplify(half * (a[i] * b[j] + a[j] * b[i])) for j in range(n)] for i in range(n)]
    w = [ex.simplify(sum((a[i] * db[j][i] for i in range(n)), ex.ZERO)) for j in range(n)]
    return S, w


def _commutator_with_field(S, w, v_field):
    """Coefficients of [P, V] for P = <S, Hess> + <w, grad> and vector field V.

    Third-order terms cancel; what remains is
      S2 = 2 sym(S G) - (v . grad) S, with G_{ik} = d_i v_k,
      w2_k = <S, Hess v_k> + (w . grad) v_k - (v . grad) w_k.
    """
    n = v_field.dim
    v, dv = v_field.components, v_field.jacobian_exprs

    def transport(e):  # (v . grad) e
        return sum((v[i] * ex.differentiate(e, i) for i in range(n)), ex.ZERO)

    SG = [[sum((S[j][i] * dv[k][i] for i in range(n)), ex.ZERO) for k in range(n)]
          for j in range(n)]
    S2 = [[ex.simplify(SG[j][k] + SG[k][j] - transport(S[j][k])) for k in range(n)]
          for j in range(n)]
    w2 = []
    for k in range(n):
        acc = sum((S[i][j] * ex.differentiate(dv[k][i], j)
                   for i in range(n) for j in range(n)), ex.ZERO)
        for j in range(n):
            acc = acc + w[j] * dv[k][j] - v[j] * ex.differentiate(w[k], j)
        w2.append(ex.simplify(acc))
    return S2, w2


def _eval_operator_coeffs(S, w, pts, out):
    """Write the (Hessian, gradient) jet coefficients S, w at pts to out (P, n*n + n)."""
    n = len(w)
    ex.compile_exprs([*(e for row in S for e in row), *w], (n * n + n,))(pts, out)


def check_oac2(table, plan, lambda0, tol=1e-9):
    """Second-order alignment test over admissible index pairs.

    Pairs (alpha, beta) from the level-m set with alpha != beta and neither a
    bare noise singleton; each composition and its drift commutator are
    reduced to coefficient vectors over the (Hessian, gradient) jet, then
    tested exactly like the first-order condition, in the same stacked pass.
    """
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    alphas = [a for a in table.r_m() if len(a.entries) >= 2]
    pairs = [(a, b) for a in alphas for b in alphas if a != b]
    pts = plan.sample(table.dim)
    if not pairs:
        recs = [PointRecord(list(map(float, x)), -tol,
                            extra={"lambda0_certified": float("inf")})
                for x in pts]
        rep = _finish_report("oac2", table.m, lambda0, recs, [], 0, residual_tol=0.0)
        rep.notes["pairs"] = 0
        return rep

    n = table.dim * table.dim + table.dim
    W = np.empty((len(pts), len(pairs), n))  # w: the composition's coefficients
    U = np.empty_like(W)  # u: its commutator with the drift
    for k, (a, b) in enumerate(pairs):
        S, w = _second_order_coefficients(table.field(a), table.field(b))
        S2, w2 = _commutator_with_field(S, w, table.drift)
        _eval_operator_coeffs(S, w, pts, W[:, k])
        _eval_operator_coeffs(S2, w2, pts, U[:, k])
    return _alignment_report("oac2", table, pts, U, W, lambda0, tol,
                             notes={"pairs": len(pairs)})


# ---------------------------------------------------------------------------
# Lyapunov certificate
# ---------------------------------------------------------------------------

def ode_block_start(system):
    """First coordinate of the trailing deterministic block.

    The block consists of the trailing coordinates on which every noise field
    vanishes identically and whose drift components involve only the block.
    """
    N = system.dim
    n = N
    while n > 0:
        j = n - 1
        if any(V.components[j] != ex.ZERO for V in system.noises):
            break
        if ex.min_variable_index(system.drift.components[j]) < n - 1:
            break
        n -= 1
    return n


def generator_apply(system, phi):
    """Symbolic generator action V0 phi + sum_i V_i (V_i phi)."""
    N = system.dim

    def first_order(V, f):
        return ex.simplify(sum((V.components[i] * ex.differentiate(f, i) for i in range(N)),
                               ex.ZERO))

    out = sum((first_order(V, first_order(V, phi)) for V in system.noises),
              first_order(system.drift, phi))
    return ex.simplify(out)


def check_lyapunov(system, phi, plan, c1, c2, ode_solution_times):
    """Drift-condition test L_t phi <= C1 - C2 phi along the deterministic block.

    Sample points supply both the z-grid and the deterministic initial values;
    each requested time t > 0 advances the trailing block along its flow for t
    (all (time, point) rows in one RK4 loop) before the symbolic generator
    expression is evaluated.
    """
    N = system.dim
    n = ode_block_start(system)
    if n == N:
        raise ValueError("system has no trailing deterministic block")
    if ex.max_variable_index(phi) >= n:
        raise ValueError("the test function must depend only on the leading coordinates")
    Lphi = generator_apply(system, phi)
    pts = plan.sample(N)
    ode_field = VectorField(N - n, tuple(ex.substitute(system.drift.components[n:],
                                                       [ex.Var(i - n) for i in range(N)])))
    times = [float(t) for t in ode_solution_times]
    # every (time, point) row with its block moved along the flow; t <= 0 leaves it
    X = np.tile(pts, (len(times), 1))
    X[:, n:] = _flow_each(ode_field, X[:, n:], np.repeat(np.maximum(times, 0.0), len(pts)),
                         FlowConfig())
    X = X.reshape(len(times), len(pts), N)  # (time, point, N)
    check = ex.DomainCheck(X.shape[:-1])
    vals = np.empty(X.shape[:-1] + (2,))
    ex.compile_exprs([Lphi, phi], (2,), check=True)(X, vals, check)
    margins = vals[..., 0] - (c1 - c2 * vals[..., 1])
    skip = check.bad.any(axis=0)  # a point is skipped when any time fails
    worst = np.full(len(pts), -np.inf)
    worst_t = np.full(len(pts), times[0])
    for t, margin in zip(times, margins):  # the first time at which the margin is largest
        larger = margin > worst
        worst[larger], worst_t[larger] = margin[larger], t
    records = [PointRecord(list(map(float, pts[i])), float(worst[i]),
                           extra={"worst_time": float(worst_t[i])})
               for i in np.flatnonzero(~skip)]
    skipped = int(skip.sum())
    scale = LYAPUNOV_TOL * (1.0 + abs(c1) + abs(c2))
    return _finish_report("lyapunov", None, None, records, [], skipped,
                          residual_tol=scale,
                          notes={"c1": float(c1), "c2": float(c2), "times": times})


# ---------------------------------------------------------------------------
# Local charts
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    """Local straightening coordinates built from flow compositions.

    forward(t) composes the coordinate flows right to left:
    t -> e^{t_1 X_1} ... e^{t_N X_N}(center); the first n fields span the
    bracket distribution at the center, the optional next one is the
    drift-orthogonal direction, and the rest are constant completions.
    """

    center: np.ndarray
    n: int
    basis_indices: list
    coord_fields: list
    uses_drift_orthogonal: bool
    radius: float
    newton_tol: float
    flow_cfg: FlowConfig

    @property
    def dim(self):
        return len(self.center)

    def _check_domain(self, T):
        if np.max(np.abs(T)) > self.radius * CHART_SLACK + 1e-12:
            raise ValueError("coordinates outside the chart domain")

    def forward(self, t):
        """Map chart coordinates to state space."""
        T = np.atleast_2d(np.asarray(t, dtype=float))
        self._check_domain(T)
        Y = np.broadcast_to(self.center, (T.shape[0], self.dim)).copy()
        for j in range(self.dim - 1, -1, -1):
            Y = flow(self.coord_fields[j], Y, T[:, j], self.flow_cfg)
        return Y[0] if np.ndim(t) == 1 else Y

    def forward_jacobian(self, t):
        """Forward map and its Jacobian in the chart coordinates."""
        T = np.atleast_2d(np.asarray(t, dtype=float))
        self._check_domain(T)
        B = T.shape[0]
        Y = np.broadcast_to(self.center, (B, self.dim)).copy()
        cols = np.zeros((B, self.dim, 0))
        for j in range(self.dim - 1, -1, -1):
            fieldj = self.coord_fields[j]
            tangent = fieldj.eval_batch(Y)[:, :, None]
            J, Y = flow_jacobian(fieldj, Y, T[:, j], self.flow_cfg, with_endpoint=True)
            cols = np.concatenate([J @ cols, J @ tangent], axis=2)
        JPsi = cols[:, :, ::-1]
        if np.ndim(t) == 1:
            return Y[0], JPsi[0]
        return Y, JPsi

    def inverse(self, x):
        """Damped Newton inversion of the forward map; starts from the origin.

        Each line-search trial evaluates forward_jacobian, so the accepted
        trial's (Y, J) is that of the next iterate and is not recomputed.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        B = X.shape[0]
        T = np.zeros((B, self.dim))
        lim = 1.4 * self.radius
        known = None  # forward_jacobian(T), when the accepted trial gave it
        for _ in range(NEWTON_MAX_ITER):
            Y, J = known or self.forward_jacobian(T)
            R = Y - X
            rn = np.linalg.norm(R, axis=1)
            if np.all(rn <= self.newton_tol):
                break
            try:
                step = np.linalg.solve(J, R[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise RuntimeError(
                    f"Newton inversion hit a singular Jacobian; residual {float(np.max(rn)):.3e}"
                ) from None
            lam = np.ones(B)
            for _ in range(8):
                cand = np.clip(T - lam[:, None] * step, -lim, lim)
                try:
                    Yc, Jc = self.forward_jacobian(cand)
                except FlowBlowUp:  # forward raises its own report when the state blew up
                    Yc, Jc = self.forward(cand), None
                better = np.linalg.norm(Yc - X, axis=1) <= rn * (1 - 0.25 * lam) + self.newton_tol
                if np.all(better):
                    T, known = cand, None if Jc is None else (Yc, Jc)
                    break
                lam = np.where(better, lam, lam * 0.5)
            else:
                T, known = np.clip(T - lam[:, None] * step, -lim, lim), None
        else:
            Y, _ = known or self.forward_jacobian(T)
            rn = np.linalg.norm(Y - X, axis=1)
            if np.any(rn > self.newton_tol * 100):
                raise RuntimeError(
                    f"Newton inversion did not converge; last residual {float(np.max(rn)):.3e}"
                )
        return T[0] if np.ndim(x) == 1 else T


def build_chart(table, x0, eps, rtol=RANK_RTOL, newton_tol=1e-12, v0perp=None):
    """Construct straightening coordinates around a regular point.

    The leading basis is the n0 columns of the bracket frame at x0 that
    column-pivoted Gram-Schmidt picks first (`pivoted_columns`: the pivots
    of a pivoted QR), kept in canonical table order; the next coordinate uses the
    drift-orthogonal direction when it is non-negligible, and any remaining
    directions are constant fields spanning the orthogonal complement.
    Regularity is probed at x0 and at 2N nearby points before construction.
    """
    x0 = np.asarray(x0, dtype=float)
    N = table.dim
    if x0.shape != (N,):
        raise ValueError(f"x0 must have shape ({N},)")

    # the frame at x0 (row 0) and at x0 -+ delta e_i, in one checked evaluation
    delta = max(eps, 1e-4) / 2.0
    probes = np.tile(x0, (2 * N + 1, 1))
    axes = np.arange(N)
    probes[1 + 2 * axes, axes] -= delta
    probes[2 + 2 * axes, axes] += delta
    frames = table.evaluate_frame("brackets", probes)
    ranks = svd_rank(frames, rtol=rtol)
    n0 = int(ranks[0])
    if np.any(ranks != n0):
        raise RuntimeError(
            f"rank of the bracket distribution is unstable near {x0.tolist()}; "
            "not a regular point"
        )

    F = frames[0]
    chosen = pivoted_columns(F, n0)  # in canonical order among the pivoted columns
    r_m = table.r_m()
    basis_indices = [r_m[j] for j in chosen]
    coord_fields = [table.field(a) for a in basis_indices]

    if v0perp is None:
        v0perp = drift_orthogonal_field(table, rtol=rtol)
    _, vperp_x0, _ = _drift_split(F, table.drift(x0), rtol)
    span = F[:, chosen]
    uses_perp = bool(np.linalg.norm(vperp_x0) > rtol)
    if uses_perp:
        coord_fields.append(v0perp)
        span = np.column_stack([span, vperp_x0])

    if span.shape[1] < N:
        u, s, _ = np.linalg.svd(span, full_matrices=True)
        k = int(rank_from_singular_values(s, rtol)) if s.size else 0
        for j in range(k, N):
            direction = u[:, j]
            comps = tuple(ex.Const(float(v)) for v in direction)
            coord_fields.append(VectorField(N, comps, name=f"completion{j - k + 1}"))
    if len(coord_fields) != N:
        raise RuntimeError("chart construction produced a degenerate basis")

    return Chart(x0, n0, basis_indices, coord_fields, uses_perp,
                 float(eps), newton_tol, FlowConfig())


def verify_chart_structure(chart, table, samples_in_domain, fd_step=1e-5, tol=1e-5):
    """Check the straightening identities on sampled chart coordinates.

    (i) pushforwards of the noise fields and of every bracket-frame field
    must have vanishing components past the leading n chart directions;
    (ii) the trailing components of the pushed-forward drift must be
    insensitive (by central differences) to the leading n coordinates.
    """
    samples = np.atleast_2d(np.asarray(samples_in_domain, dtype=float))
    if np.max(np.abs(samples)) > chart.radius + 1e-12:
        raise ValueError("samples outside the chart domain")
    n, N = chart.n, chart.dim
    check_fields = list(table.base_fields[1:]) + [table.field(a) for a in table.r_m()]

    def pushforward_all(T, fields_to_push):
        Y, J = chart.forward_jacobian(T)
        vals = np.stack([V.eval_batch(Y) for V in fields_to_push], axis=2)
        return np.linalg.solve(J, vals)  # (B, N, n_fields)

    pushed = pushforward_all(samples, check_fields)
    tails = pushed[:, n:, :]
    max_tail = float(np.max(np.abs(tails))) if tails.size else 0.0

    max_sens = 0.0
    if N > n:
        for i in range(n):
            Tp = samples.copy()
            Tm = samples.copy()
            Tp[:, i] += fd_step
            Tm[:, i] -= fd_step
            dp = pushforward_all(Tp, [table.drift])[:, n:, 0]
            dm = pushforward_all(Tm, [table.drift])[:, n:, 0]
            max_sens = max(max_sens, float(np.max(np.abs(dp - dm) / (2 * fd_step))))

    return {
        "n": n,
        "samples": int(samples.shape[0]),
        "max_tail_component": max_tail,
        "max_drift_tail_sensitivity": max_sens,
        "tail_ok": max_tail <= tol,
        "drift_sensitivity_ok": max_sens <= tol,
        "passed": (max_tail <= tol) and (max_sens <= tol),
    }
