"""Small numeric helpers shared by the geometry and dynamics layers."""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-8
RANK_FLOOR = 1e-12


def svd_rank(frame, rtol=RANK_RTOL, floor=RANK_FLOOR):
    """Tolerance rank of one frame or a batch of frames (..., N, k).

    Counts singular values above rtol times the largest one; a frame whose
    largest singular value is below the absolute floor has rank 0.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2:
        raise ValueError("frame must have at least two dimensions")
    if frame.shape[-1] == 0:
        return np.zeros(frame.shape[:-2], dtype=int) if frame.ndim > 2 else 0
    counts = rank_from_singular_values(np.linalg.svd(frame, compute_uv=False), rtol, floor)
    return counts if frame.ndim > 2 else int(counts)


def rank_from_singular_values(s, rtol=RANK_RTOL, floor=RANK_FLOOR):
    """`svd_rank`'s count from singular values s (..., k), k >= 1, sorted descending."""
    top = s[..., 0]
    counts = np.sum(s > rtol * np.maximum(top, RANK_FLOOR)[..., None], axis=-1)
    return np.where(top < floor, 0, counts)


def project_onto_columns(frame, v, rtol=RANK_RTOL):
    """Least-squares projection of v onto the column space of frame.

    Uses the SVD pseudo-inverse with relative cutoff rtol; returns the
    projected vector (the component inside the span).
    """
    if frame.shape[1] == 0:
        return np.zeros_like(v)
    u, s, _ = np.linalg.svd(frame, full_matrices=False)
    keep = s > rtol * max(s[0], RANK_FLOOR) if s.size else np.zeros(0, dtype=bool)
    if s.size and s[0] < RANK_FLOOR:
        keep[:] = False
    basis = u[:, keep]
    return basis @ (basis.T @ v)


def greedy_independent_columns(frame, rtol=RANK_RTOL, floor=RANK_FLOOR):
    """Indices of a maximal independent column subset, scanned in given order.

    A column joins the subset when its residual against the span of the
    already selected columns exceeds rtol times its own norm.  Scanning in
    canonical table order keeps the selection deterministic.
    """
    n, k = frame.shape
    selected = []
    basis = np.zeros((n, 0))
    for j in range(k):
        col = frame[:, j]
        norm = np.linalg.norm(col)
        if norm <= floor:
            continue
        resid = col - basis @ (basis.T @ col)
        if np.linalg.norm(resid) > rtol * norm:
            selected.append(j)
            q = resid / np.linalg.norm(resid)
            basis = np.column_stack([basis, q])
    return selected


def sym_outer_max_eig(a, b):
    """Largest non-negative eigenvalue of sym(a b^T) = (a b^T + b a^T)/2.

    The matrix has rank at most two and its nonzero eigenvalues are
    (<a,b> +- |a||b|)/2, so (<a,b> + |a||b|)/2 (which is >= 0 by
    Cauchy-Schwarz) bounds the whole spectrum from above.  Vectors run along
    the last axis of a and b; leading axes are stacked, and 1-D vectors give
    a scalar.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.5 * (np.vecdot(a, b) + vecnorm(a) * vecnorm(b))


def alignment_certificate(a, b, tol_scaled):
    """Largest lam with max-eig(sym((a + lam b) b^T)) <= tol_scaled.

    Writing a = p b/|b|^2 ... splitting a into the component along b and the
    orthogonal remainder a_perp, the eigenvalue bound reduces to the scalar
    inequality  lam |b|^2 + <a,b> <= tau - B^2/tau  with  B = |a_perp||b|/2,
    which this solves exactly.  Returns +inf where b vanishes (the condition
    is vacuous there).  Stacked over leading axes like sym_outer_max_eig;
    tau = max(tol_scaled, RANK_FLOOR) by Python's `max` rule, nan kept.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):  # the rows with bb == 0 are replaced below
        bb = np.vecdot(b, b)
        ab = np.vecdot(a, b)
        a_perp = a - (ab / bb)[..., None] * b
        tau = np.where(RANK_FLOOR > tol_scaled, RANK_FLOOR, tol_scaled)
        B = 0.5 * vecnorm(a_perp) * np.sqrt(bb)
        return np.where(bb == 0.0, np.inf, (tau - B * B / tau - ab) / bb)[()]


def vecnorm(v):
    """Euclidean norm along the last axis: sqrt(<v, v>), as np.linalg.norm of a 1-D v."""
    return np.sqrt(np.vecdot(v, v))
