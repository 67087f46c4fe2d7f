"""The variational Heun step as array arithmetic on jacobian_batch values, and
the variational path loop built on it, kept as the tests' reference for the
compiled variational kernel (`SDESystem._variational_kernel`) and for
`malliavin.simulate_variational`.

`step_linearization` and `step_matrix` are the step as `ufgsim.malliavin`
computed it before the kernel: 2(1 + d) `jacobian_batch` calls per step,
at the state and at the Heun predictor.  `refresh_inverse` is the stored
inverse one row at a time in Python floats, with its copy of K on every
call, and `block_and_rank_check` the block check one matrix at a time.
`simulate_variational` runs all paths in one batch, checks every row at
every step and records J and K at every stored time.  `reduced_covariance`
and `consistency_error` are the whole-grid formulas on those records: one
(P, T, N, N) integrand and one np.trapezoid over it, and one (P, T, N, N)
product J K.  `malliavin` accumulates both during the run instead, one
stored step at a time, and keeps only J_T, C_T and the worst |J K - I|; the
trapezoid terms are summed in numpy's order, one after another in t for
N >= 2 and pairwise for N = 1.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np

from ufgsim import dynamics as dyn


def step_linearization(system, X, dB, dt):
    """dt DV0(X) + sqrt(2) sum_i dB^i DV_i(X), per row."""
    G = dt * system.drift.jacobian_batch(X)
    for i, V in enumerate(system.noises):
        G += dyn.SQRT2 * dB[:, i, None, None] * V.jacobian_batch(X)
    return G


def step_matrix(system, X, dB, dt, Xp):
    """One-step linear update M with J_{n+1} = M J_n, from the predictor Xp."""
    G = step_linearization(system, X, dB, dt)
    Gp = step_linearization(system, Xp, dB, dt)
    return np.eye(X.shape[1]) + 0.5 * (G + Gp + Gp @ G)


def refresh_inverse(J, K, alive):
    """inv(J) on the alive rows; other rows, and singular ones, keep K.

    For N <= 2 each alive row is adj(J) / det(J) in Python floats, written
    out entry by entry.  A row whose det is not a normal float (0,
    subnormal or not finite), and every row for N > 2, goes to LAPACK on
    its own.
    """
    N = J.shape[-1]
    out = K.copy()
    for p in np.flatnonzero(alive):
        if N <= 2:
            adj, det = _adjugate(J[p].tolist())
            if sys.float_info.min <= abs(det) <= sys.float_info.max:
                out[p] = [[a / det for a in row] for row in adj]
                continue
        try:
            out[p] = np.linalg.inv(J[p])
        except np.linalg.LinAlgError:
            pass
    return out


def _adjugate(m):
    """The adjugate and determinant of the matrix with rows m, N <= 2."""
    if len(m) == 1:
        return [[1.0]], m[0][0]
    (a, b), (c, d) = m
    return [[d, -b], [-c, a]], a * d - b * c


def block_and_rank_check(matrix, n, cond_threshold):
    """(off_block_max, off_block_rel, upper_cond, block_ok, invertible) of one
    matrix, computed on its own as `malliavin.block_and_rank_check` did
    before the batched `block_check_ensemble`; the off-block maximum is one
    max over every entry off the upper block, so a nan anywhere there is kept."""
    M = np.asarray(matrix, dtype=float)
    N = M.shape[0]
    upper = M[:n, :n]
    scale = float(np.max(np.abs(upper)))
    if n < N:
        off = float(np.max(np.abs(np.r_[M[n:, :].ravel(), M[:, n:].ravel()])))
    else:
        off = 0.0
    off_rel = off / scale if scale > 0 else (0.0 if off == 0.0 else np.inf)
    s = np.linalg.svd(upper, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return (off, float(off_rel), cond, bool(off_rel <= 1e-6),
            bool(np.isfinite(cond) and cond <= cond_threshold))


def simulate_variational(system, x0, T, dt, seed, n_paths, store_stride, consistency_tol):
    """The run's times, states, blown and aborted flags, as
    `malliavin.simulate_variational` returns them in a VariationalPath, and
    its Jacobians and inverses (P, T, N, N) on the stored grid."""
    n_steps = round(T / dt)
    steps = list(range(0, n_steps + 1, store_stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    N, d = system.dim, system.d
    dB = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        rng = np.random.Generator(np.random.PCG64(dyn.path_seed(seed, p)))
        dB[p] = rng.standard_normal((n_steps, d)) * math.sqrt(dt)
    I = np.eye(N)
    X = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, N)).copy()
    J = np.broadcast_to(I, (n_paths, N, N)).copy()
    K = J
    states = np.empty((n_paths, len(steps), N))
    jacobians = np.empty((n_paths, len(steps), N, N))
    inverses = np.empty((n_paths, len(steps), N, N))
    alive = np.ones(n_paths, dtype=bool)
    blown = np.zeros(n_paths, dtype=bool)
    aborted = np.zeros(n_paths, dtype=bool)
    states[:, 0], jacobians[:, 0], inverses[:, 0] = X, J, K
    for step in range(1, n_steps + 1):
        Xn, Xp = dyn._heun_step(system, X, dB[:, step - 1], dt)
        with np.errstate(all="ignore"):
            Jn = step_matrix(system, X, dB[:, step - 1], dt, Xp) @ J
        ok = alive & np.isfinite(Xn).all(axis=1) & np.isfinite(Jn).all(axis=(1, 2))
        blown |= alive & ~ok
        alive = ok
        X = np.where(alive[:, None], Xn, X)
        J = np.where(alive[:, None, None], Jn, J)
        if step in steps:
            k = steps.index(step)
            K = refresh_inverse(J, K, alive)
            err = np.max(np.abs(J @ K - I), axis=(1, 2))
            bad = alive & ~(err <= consistency_tol)
            aborted |= bad
            alive &= ~bad
            states[:, k], jacobians[:, k], inverses[:, k] = X, J, K
    return SimpleNamespace(times=np.asarray(steps) * dt, states=states, jacobians=jacobians,
                           inverses=inverses, blown=blown, aborted=aborted)


def reduced_covariance(vpath, system):
    """The trapezoidal covariance quadrature on the whole (P, T, N, N)
    integrand of a run of `simulate_variational` here."""
    P, T, N = vpath.states.shape
    integrand = np.zeros((P, T, N, N))
    for V in system.noises:
        vals = V.eval_batch(vpath.states)                       # (P, T, N)
        A = (vpath.inverses @ vals[..., None])[..., 0]          # (P, T, N)
        integrand += A[..., :, None] * A[..., None, :]
    C = np.trapezoid(integrand, x=vpath.times, axis=1)
    return 0.5 * (C + np.swapaxes(C, -1, -2))


def consistency_error(vpath):
    """max |J K - I| over stored times, per path, on the whole grid."""
    prod = vpath.jacobians @ vpath.inverses
    return np.max(np.abs(prod - np.eye(vpath.states.shape[2])), axis=(1, 2, 3))
