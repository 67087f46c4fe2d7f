"""Variational (Jacobian) path simulation and Malliavin covariance checks.

For the Stratonovich system dX = V0 dt + sqrt(2) sum_i V_i o dB^i the state
Jacobian J_t = dX_t/dx_0 obeys the linearized equation dJ = DV0(X) J dt +
sqrt(2) sum_i DV_i(X) J o dB^i.  One stochastic Heun step is linear in J,
J_{n+1} = M_n J_n, with M_n built from the field Jacobians at the current
state and at the Heun predictor that the state step already computes.  The
inverse K = J^{-1} is needed only on the stored grid, so it is computed there
by a direct batched inverse, and every path is checked for |J K - I| within
the 1e-6 consistency budget.

The reduced covariance follows the convention without the sqrt(2) factor on
the noise columns:  C_t = sum_k int_0^t J_s^{-1} V_k V_k^T (J_s^{-1})^T ds,
and M_t = J_t C_t J_t^T; this fixes the overall constant relative to texts
that absorb the noise scaling into the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SQRT2, _heun_step, _run_ensemble

DEFAULT_CONSISTENCY_TOL = 1e-6
DEFAULT_COND_THRESHOLD = 1e10


@dataclass
class VariationalPath:
    """States with Jacobians and inverse Jacobians on the stored grid."""

    seed: int
    dt: float
    times: np.ndarray
    states: np.ndarray       # (P, T, N)
    jacobians: np.ndarray    # (P, T, N, N)
    inverses: np.ndarray     # (P, T, N, N)
    increments: np.ndarray   # (P, T-1, d)
    blown: np.ndarray        # (P,)
    aborted: np.ndarray      # (P,) inverse-consistency failures
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[2]

    def consistency_error(self):
        """max |J K - I| over stored times, per path."""
        I = np.eye(self.dim)
        prod = self.jacobians @ self.inverses
        return np.max(np.abs(prod - I), axis=(1, 2, 3))


def step_matrix(system, X, dB, dt, Xp=None):
    """One-step linear update M with J_{n+1} = M J_n under stochastic Heun.

    `Xp` is the Heun predictor that `_heun_step` returns for (X, dB); it is
    computed here when not given.
    """
    if Xp is None:
        Xp = _heun_step(system, X, dB, dt)[1]
    G = _step_linearization(system, X, dB, dt)
    Gp = _step_linearization(system, Xp, dB, dt)
    return np.eye(X.shape[1]) + 0.5 * (G + Gp + Gp @ G)


def _step_linearization(system, X, dB, dt):
    """dt DV0(X) + sqrt(2) sum_i dB^i DV_i(X), per row."""
    G = dt * system.drift.jacobian_batch(X)
    for i, V in enumerate(system.noises):
        G += SQRT2 * dB[:, i, None, None] * V.jacobian_batch(X)
    return G


def simulate_variational(system, x0, T, dt, seed, n_paths=1, store_stride=1,
                         consistency_tol=DEFAULT_CONSISTENCY_TOL):
    """Joint Heun integration of the state and its variational Jacobian.

    Runs the ensemble loop of `simulate_paths` on the same per-path
    substreams, so the states coincide bit for bit with a plain ensemble
    run.  At each stored time K = J^{-1} is computed directly; a path is
    flagged `aborted` when |J K - I| is not within consistency_tol (singular
    or near-singular Jacobian).  A frozen path keeps its last stored K.
    """
    I = np.eye(system.dim)

    def advance(S, dB):
        X, J = S
        Xn, Xp = _heun_step(system, X, dB, dt)
        return Xn, step_matrix(system, X, dB, dt, Xp) @ J

    def store(S, alive, last):
        X, J = S
        if last is None:  # J_0 = I is its own inverse
            return (X, J, J), None
        K = _refresh_inverse(J, last[2], alive)
        err = np.max(np.abs(J @ K - I), axis=(1, 2))
        return (X, J, K), alive & ~(err <= consistency_tol)

    steps, (states, jacs, invs), increments, blown, aborted = _run_ensemble(
        system, x0, T, dt, n_paths, seed, advance, start=(I,), store=store,
        store_stride=store_stride)
    meta = {
        "system": system.name,
        "x0": np.asarray(x0, dtype=float).tolist(),
        "T": float(T),
        "dt": float(dt),
        "blowups": int(blown.sum()),
        "aborted": int(aborted.sum()),
    }
    return VariationalPath(seed, dt, steps * dt, states, jacs, invs, increments,
                           blown, aborted, meta)


def _refresh_inverse(J, K, alive):
    """inv(J) on the alive rows; other rows, and singular ones, keep K."""
    out = K.copy()
    if np.any(alive):
        try:
            out[alive] = np.linalg.inv(J[alive])
        except np.linalg.LinAlgError:
            for idx in np.where(alive)[0]:
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
