"""Variational (Jacobian) path simulation and Malliavin covariance checks.

For the Stratonovich system dX = V0 dt + sqrt(2) sum_i V_i o dB^i the state
Jacobian J_t = dX_t/dx_0 obeys the linearized equation dJ = DV0(X) J dt +
sqrt(2) sum_i DV_i(X) J o dB^i.  One stochastic Heun step is linear in J,
J_{n+1} = M_n J_n, with M_n built from the field Jacobians at the current
state and at the Heun predictor.  One compiled kernel call per step
(`SDESystem._variational_kernel`) gives the new state together with the
step's linearizations at the state and at the predictor; M_n and M_n J_n are
stacked matrix products on them.  The inverse K = J^{-1} is needed only on
the stored grid, so it is computed there by a direct batched inverse, and
every path is checked for |J K - I| within the 1e-6 consistency budget.

The reduced covariance follows the convention without the sqrt(2) factor on
the noise columns:  C_t = sum_k int_0^t J_s^{-1} V_k V_k^T (J_s^{-1})^T ds,
and M_t = J_t C_t J_t^T; this fixes the overall constant relative to texts
that absorb the noise scaling into the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _heun_step is not called here: the name stays bound for perfbench's tracer,
# which wraps it at this binding site
from .dynamics import _heun_step  # noqa: F401
from .dynamics import PathEnsemble, _ensemble_meta, _heun_rows, _run_ensemble

DEFAULT_CONSISTENCY_TOL = 1e-6
DEFAULT_COND_THRESHOLD = 1e10


@dataclass(kw_only=True)
class VariationalPath(PathEnsemble):
    """A path ensemble with Jacobians and inverse Jacobians on the stored grid."""

    jacobians: np.ndarray    # (P, T, N, N)
    inverses: np.ndarray     # (P, T, N, N)
    aborted: np.ndarray      # (P,) inverse-consistency failures

    def consistency_error(self):
        """max |J K - I| over stored times, per path."""
        I = np.eye(self.dim)
        prod = self.jacobians @ self.inverses
        return np.max(np.abs(prod - I), axis=(1, 2, 3))


def step_matrix(system, X, dB, dt):
    """One-step linear update M with J_{n+1} = M J_n under stochastic Heun,
    per row of X (P, N) with increments dB (P, d)."""
    E = _heun_rows(system, X, dB, dt, linearizations=True)[:, 2:]
    return _heun_matrix(np.eye(system.dim), E)


def _heun_matrix(I, E):
    """I + (G + Gp + Gp G) / 2 from the linearizations E = [G; Gp] (P, 2N, N)
    that the variational kernel writes."""
    N = len(I)
    G, Gp = E[:, :N], E[:, N:]
    return I + 0.5 * (G + Gp + Gp @ G)


def simulate_variational(system, x0, T, dt, seed, n_paths=1, store_stride=1,
                         consistency_tol=DEFAULT_CONSISTENCY_TOL, workers=1):
    """Joint Heun integration of the state and its variational Jacobian.

    Runs the ensemble loop of `simulate_paths` on the same per-path
    substreams, so the states coincide bit for bit with a plain ensemble
    run; its kernel is the system's variational twin of the Heun step, so a
    step is one kernel call.  At each stored time K = J^{-1} is computed
    directly; a path is flagged `aborted` when |J K - I| is not within
    consistency_tol (singular or near-singular Jacobian).  A frozen path
    keeps its last stored K.  `workers` splits the paths over forked
    processes as in `simulate_paths`.
    """
    N = system.dim
    I = np.eye(N)

    def advance(E, J):
        return (_heun_matrix(I, E) @ J,)

    def store(S, alive, last):
        X, J = S
        if last is None:  # J_0 = I is its own inverse
            return (X, J, J), None
        K = _refresh_inverse(J, last[2], alive)
        err = np.max(np.abs(J @ K - I), axis=(1, 2))
        return (X, J, K), alive & ~(err <= consistency_tol)

    # warnings off: a path whose J overflows is flagged blown, one whose
    # |J K - I| is not finite aborted
    with np.errstate(all="ignore"):
        steps, (states, jacs, invs), blown, aborted = _run_ensemble(
            system, x0, T, dt, n_paths, seed, advance, start=(I,), store=store,
            store_stride=store_stride, record_shapes=((N,), (N, N), (N, N)), workers=workers)
    meta = _ensemble_meta(system, x0, T, dt, steps, store_stride, blown)
    meta["aborted"] = int(aborted.sum())
    return VariationalPath(seed, dt, steps * dt, states, blown, meta,
                           jacobians=jacs, inverses=invs, aborted=aborted)


def _refresh_inverse(J, K, alive):
    """inv(J) on the alive rows; other rows, and singular ones, keep K.

    While every row is alive this is inv(J), with no copy of K; LAPACK
    inverts each matrix on its own, so the rows are the same either way.
    """
    try:
        if alive.all():
            return np.linalg.inv(J)
        out = K.copy()
        out[alive] = np.linalg.inv(J[alive])
        return out
    except np.linalg.LinAlgError:
        out = K.copy()
        for idx in np.flatnonzero(alive):
            try:
                out[idx] = np.linalg.inv(J[idx])
            except np.linalg.LinAlgError:
                pass
        return out


def reduced_covariance(vpath, system):
    """Trapezoidal quadrature of sum_k (J^{-1} V_k)(J^{-1} V_k)^T on the grid.

    Returns one symmetric PSD-enforced matrix per path, shape (P, N, N).
    """
    P, T, N = vpath.states.shape
    integrand = np.zeros((P, T, N, N))
    for V in system.noises:
        vals = V.eval_batch(vpath.states)                       # (P, T, N)
        A = (vpath.inverses @ vals[..., None])[..., 0]          # (P, T, N)
        integrand += A[..., :, None] * A[..., None, :]
    C = np.trapezoid(integrand, x=vpath.times, axis=1)
    return 0.5 * (C + np.swapaxes(C, -1, -2))


def malliavin_matrix(vpath, system):
    """M_T = J_T C_T J_T^T per path, shape (P, N, N)."""
    C = reduced_covariance(vpath, system)
    JT = vpath.jacobians[:, -1]
    M = JT @ C @ np.swapaxes(JT, -1, -2)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@dataclass
class MalliavinReport:
    """Block structure and invertibility verdicts for one covariance matrix."""

    matrix: np.ndarray
    split: int
    off_block_max: float
    off_block_rel: float
    upper_cond: float
    block_ok: bool
    invertible: bool

    def to_dict(self):
        return {
            "split": self.split,
            "off_block_max": float(self.off_block_max),
            "off_block_rel": float(self.off_block_rel),
            "upper_cond": float(self.upper_cond),
            "block_ok": bool(self.block_ok),
            "invertible": bool(self.invertible),
            "matrix": [float(v) for v in np.asarray(self.matrix).ravel(order="C")],
            "shape": [int(s) for s in np.asarray(self.matrix).shape],
        }


def block_and_rank_check(matrix, n, cond_threshold=DEFAULT_COND_THRESHOLD,
                         block_tol=1e-6):
    """Check the (n, N-n) block form and the conditioning of the upper block.

    Off-block magnitudes are reported relative to the largest upper-block
    entry; `invertible` means the upper block's condition number stays below
    cond_threshold.
    """
    M = np.asarray(matrix, dtype=float)
    N = M.shape[0]
    if not (0 < n <= N) or M.shape != (N, N):
        raise ValueError("need a square matrix and a split 0 < n <= N")
    upper = M[:n, :n]
    scale = float(np.max(np.abs(upper))) if upper.size else 0.0
    if n < N:
        off = max(float(np.max(np.abs(M[n:, :]))), float(np.max(np.abs(M[:, n:]))))
    else:
        off = 0.0
    off_rel = off / scale if scale > 0 else (0.0 if off == 0.0 else np.inf)
    s = np.linalg.svd(upper, compute_uv=False) if upper.size else np.array([0.0])
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return MalliavinReport(
        matrix=M,
        split=int(n),
        off_block_max=off,
        off_block_rel=float(off_rel),
        upper_cond=cond,
        block_ok=bool(off_rel <= block_tol),
        invertible=bool(np.isfinite(cond) and cond <= cond_threshold),
    )


def block_check_ensemble(matrices, n, cond_threshold=DEFAULT_COND_THRESHOLD,
                         block_tol=1e-6):
    """Per-path block checks plus pass frequencies (the a.s. surrogate)."""
    reports = [block_and_rank_check(M, n, cond_threshold, block_tol) for M in matrices]
    P = len(reports)
    return reports, {
        "paths": P,
        "block_ok_fraction": sum(r.block_ok for r in reports) / P,
        "invertible_fraction": sum(r.invertible for r in reports) / P,
    }
