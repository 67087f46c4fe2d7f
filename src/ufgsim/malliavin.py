"""Variational (Jacobian) path simulation and Malliavin covariance checks.

For the Stratonovich system dX = V0 dt + sqrt(2) sum_i V_i o dB^i the state
Jacobian J_t = dX_t/dx_0 obeys the linearized equation dJ = DV0(X) J dt +
sqrt(2) sum_i DV_i(X) J o dB^i.  One stochastic Heun step is linear in J,
J_{n+1} = M_n J_n, with M_n built from the field Jacobians at the current
state and at the Heun predictor.  One compiled kernel call per step
(`SDESystem._variational_kernel`) gives the new state together with the
step's linearizations at the state and at the predictor; M_n and M_n J_n are
stacked matrix products on them.  The inverse K = J^{-1} is needed only on
the stored grid, so it is computed there, as adj(J) / det(J) for N <= 2 and
by LAPACK otherwise, and every path is checked for |J K - I| within the
1e-6 consistency budget.

The reduced covariance follows the convention without the sqrt(2) factor on
the noise columns:  C_t = sum_k int_0^t J_s^{-1} V_k V_k^T (J_s^{-1})^T ds,
and M_t = J_t C_t J_t^T; this fixes the overall constant relative to texts
that absorb the noise scaling into the covariance.

The quadrature of C_T runs during the simulation, one stored step at a
time, and no Jacobian or inverse is kept per stored time: a path ends with
its J_T, its C_T and its worst |J K - I| over the stored times.  C_T is the
trapezoid rule np.trapezoid applies to the whole stored integrand, to the
bit: each step's term is numpy's d * (y_k + y_{k-1}) / 2.0, in that
operation order, and the terms are summed as numpy sums them along t.  For
N >= 2, where t is not the contiguous axis, that is one after another in t
order, the first term being the start value.  For N = 1 numpy sums the
contiguous terms pairwise, so a chunk keeps its per-step terms, as many
floats as its stored states, and sums them at the last stored step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _heun_step is not called here: the name stays bound for perfbench's tracer,
# which wraps it at this binding site
from .dynamics import _heun_step  # noqa: F401
from .dynamics import PathEnsemble, _heun_rows, _run_ensemble

DEFAULT_CONSISTENCY_TOL = 1e-6
DEFAULT_COND_THRESHOLD = 1e10
# block_and_rank_check: the largest off-block entry relative to the largest
# upper-block entry that still counts as the block form
BLOCK_TOL = 1e-6


@dataclass(kw_only=True)
class VariationalPath(PathEnsemble):
    """A path ensemble with each path's final Jacobian J_T, reduced
    covariance C_T (symmetrised) and worst |J K - I| over the stored times."""

    aborted: np.ndarray      # (P,) inverse-consistency failures
    jacobian: np.ndarray     # (P, N, N) J_T
    covariance: np.ndarray   # (P, N, N) C_T
    worst_jk_error: np.ndarray  # (P,) max |J K - I| over the stored times

    def consistency_error(self):
        """max |J K - I| over the stored times, per path."""
        return self.worst_jk_error


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


def simulate_variational(system, x0, T, dt, seed, n_paths=1, store_stride=1, workers=1):
    """Joint Heun integration of the state and its variational Jacobian.

    Runs the ensemble loop of `simulate_paths` on the same per-path
    substreams, so the states coincide bit for bit with a plain ensemble
    run; its kernel is the system's variational twin of the Heun step, so a
    step is one kernel call.  At each stored time K = J^{-1} is computed
    directly; a path is flagged `aborted` when |J K - I| is not within
    DEFAULT_CONSISTENCY_TOL (singular or near-singular Jacobian).  A frozen path
    keeps its last stored K.  The same stored step adds its trapezoid term
    of the reduced covariance (see the module docstring for the order of
    the sum) and takes the running max of |J K - I|; the path keeps J_T,
    C_T and that max, not the Jacobians along the grid.  `workers` splits
    the paths over forked processes as in `simulate_paths`.
    """
    N = system.dim
    I = np.eye(N)

    def advance(E, J):
        return (_heun_matrix(I, E) @ J,)

    def store(S, alive, carry, times, k):
        X, J = S
        if carry is None:  # J_0 = I is its own inverse
            terms = np.empty((len(X), len(times) - 1)) if N == 1 else None
            return (_integrand(system, X, J), terms, J, np.zeros(len(X))), None
        y_last, C, K, worst = carry
        K = _refresh_inverse(J, K, alive)
        err = np.abs(J @ K - I).max(axis=(1, 2))
        worst = np.maximum(worst, err)
        bad = alive & ~(err <= DEFAULT_CONSISTENCY_TOL)
        y = _integrand(system, X, K)
        term = (times[k] - times[k - 1]) * (y + y_last) / 2.0
        if N == 1:  # summed pairwise at the last stored step
            C[:, k - 1] = term[:, 0, 0]
        elif C is None:  # the start value, as in numpy: 0.0 + -0.0 is 0.0
            C = term
        else:
            C += term
        if k < len(times) - 1:
            return (y, C, K, worst), bad
        if N == 1:
            C = C.sum(axis=1)[:, None, None]
        return (C, J, worst), bad

    # warnings off: a path whose J overflows is flagged blown, one whose
    # |J K - I| is not finite aborted
    with np.errstate(all="ignore"):
        steps, states, (C, JT, worst), blown, aborted = _run_ensemble(
            system, x0, T, dt, n_paths, seed, advance, start=(I,), store=store,
            final_shapes=((N, N), (N, N), ()), store_stride=store_stride, workers=workers)
    return VariationalPath(seed, dt, steps * dt, states, blown, aborted=aborted,
                           jacobian=JT, covariance=0.5 * (C + np.swapaxes(C, -1, -2)),
                           worst_jk_error=worst)


def _refresh_inverse(J, K, alive):
    """inv(J) on the alive rows; other rows, and singular ones, keep K.

    For N <= 2 this is the closed form adj(J) / det(J), column arithmetic
    over all rows at once.  It runs under the caller's errstate, as a
    singular row divides by zero.  Alive rows whose det is not a normal
    float (0, subnormal, or not finite) go to LAPACK as larger N does: LU
    is scale-invariant, while a subnormal det has lost precision.
    """
    P, N = J.shape[:2]
    if N > 2:
        return _lapack_inverse(J, K, alive)
    Jf = J.reshape(P, N * N)
    if N == 1:
        adj, det = np.ones_like(Jf), Jf[:, 0]
    else:
        adj = Jf[:, _ADJ2]
        np.negative(adj[:, 1:3], out=adj[:, 1:3])
        det = Jf[:, 0] * Jf[:, 3] - Jf[:, 1] * Jf[:, 2]
    # C order, as LAPACK's: `@` on K takes the BLAS route of its layout
    out = np.empty(J.shape)
    np.divide(adj, det[:, None], out=out.reshape(P, N * N))
    size = np.abs(det)
    ok = alive & (size >= _TINY) & (size <= _HUGE)
    if ok.all():
        return out
    np.copyto(out, K, where=~ok[:, None, None])
    redo = alive & ~ok
    return _lapack_inverse(J, out, redo) if redo.any() else out


def _lapack_inverse(J, K, rows):
    """inv(J) by LAPACK on the given rows; other rows, and singular ones,
    keep K.  LAPACK inverts each matrix on its own, so while every row is
    taken the result is inv(J), with no copy of K."""
    try:
        if rows.all():
            return np.linalg.inv(J)
        out = K.copy()
        out[rows] = np.linalg.inv(J[rows])
        return out
    except np.linalg.LinAlgError:
        out = K.copy()
        for idx in np.flatnonzero(rows):
            try:
                out[idx] = np.linalg.inv(J[idx])
            except np.linalg.LinAlgError:
                pass
        return out


# adj(J) of a 2 x 2 J is [[d, -b], [-c, a]]: flat indices of d, b, c, a
_ADJ2 = np.array([3, 1, 2, 0])
# the normal floats, the dets the closed form takes
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _integrand(system, X, K):
    """sum_k (K V_k)(K V_k)^T per row of the states X (P, N) and inverses K (P, N, N)."""
    out = np.zeros(K.shape)
    for V in system.noises:
        A = (K @ V.eval_batch(X)[..., None])[..., 0]            # (P, N)
        out += A[..., :, None] * A[..., None, :]
    return out


def malliavin_matrix(vpath):
    """M_T = J_T C_T J_T^T per path, shape (P, N, N)."""
    JT = vpath.jacobian
    M = JT @ vpath.covariance @ np.swapaxes(JT, -1, -2)
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


def block_and_rank_check(matrix, n, cond_threshold=DEFAULT_COND_THRESHOLD):
    """Check the (n, N-n) block form and the conditioning of the upper block.

    Off-block magnitudes are reported relative to the largest upper-block
    entry, and `block_ok` means they stay within BLOCK_TOL (a nan off the
    block fails it); `invertible` means the upper block's condition number
    stays below cond_threshold.  The one-matrix view of `block_check_ensemble`.
    """
    reports, _ = block_check_ensemble(np.asarray(matrix, dtype=float)[None], n, cond_threshold)
    return reports[0]


def block_check_ensemble(matrices, n, cond_threshold=DEFAULT_COND_THRESHOLD):
    """`block_and_rank_check` on each of the matrices (P, N, N), computed for
    all of them at once, plus the pass frequencies (the a.s. surrogate)."""
    M = np.asarray(matrices, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2] or not 0 < n <= M.shape[1]:
        raise ValueError("need a square matrix and a split 0 < n <= N")
    P, N = M.shape[:2]
    A = np.abs(M)
    scale = np.max(A[:, :n, :n], axis=(1, 2))
    if n < N:
        lower, right = np.max(A[:, n:, :], axis=(1, 2)), np.max(A[:, :, n:], axis=(1, 2))
        off = np.maximum(lower, right)  # a nan on either side is kept
    else:
        off = np.zeros(P)
    s = np.linalg.svd(M[:, :n, :n], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        off_rel = np.where(scale > 0, off / scale, np.where(off == 0.0, 0.0, np.inf))
        cond = np.where(s[:, -1] > 0, s[:, 0] / s[:, -1], np.inf)
    block_ok = off_rel <= BLOCK_TOL
    invertible = np.isfinite(cond) & (cond <= cond_threshold)
    reports = [MalliavinReport(matrix=M[p], split=int(n), off_block_max=float(off[p]),
                               off_block_rel=float(off_rel[p]), upper_cond=float(cond[p]),
                               block_ok=bool(block_ok[p]), invertible=bool(invertible[p]))
               for p in range(P)]
    return reports, {
        "paths": P,
        "block_ok_fraction": int(block_ok.sum()) / P,
        "invertible_fraction": int(invertible.sum()) / P,
    }
