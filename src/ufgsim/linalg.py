"""Small numeric helpers shared by the geometry and dynamics layers."""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-8
RANK_FLOOR = 1e-12


def svd_rank(frame, rtol=RANK_RTOL):
    """Tolerance rank of one frame or a batch of frames (..., N, k).

    Counts singular values above rtol times the largest one; a frame whose
    largest singular value is below the absolute floor RANK_FLOOR has rank 0.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2:
        raise ValueError("frame must have at least two dimensions")
    if frame.shape[-1] == 0:
        return np.zeros(frame.shape[:-2], dtype=int) if frame.ndim > 2 else 0
    counts = rank_from_singular_values(np.linalg.svd(frame, compute_uv=False), rtol)
    return counts if frame.ndim > 2 else int(counts)


def rank_from_singular_values(s, rtol=RANK_RTOL):
    """`svd_rank`'s count from singular values s (..., k), k >= 1, sorted descending."""
    top = s[..., 0]
    counts = np.sum(s > rtol * np.maximum(top, RANK_FLOOR)[..., None], axis=-1)
    return np.where(top < RANK_FLOOR, 0, counts)


def project_onto_columns(frame, v, rtol=RANK_RTOL):
    """Least-squares projection of v (..., N) onto the column space of frame (..., N, k).

    One stacked SVD; the left singular vectors u_j kept are those `svd_rank`
    counts (s_j above rtol times max(s_0, RANK_FLOOR), none when s_0 is below
    RANK_FLOOR).  The result sum_j <u_j, v> u_j is accumulated in index order
    with elementwise operations, so a frame's projection has the same bits
    alone as in any stack.  Leading axes are stacked; one (N, k) frame with
    an (N,) vector gives an (N,) vector.
    """
    frame = np.asarray(frame, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    if frame.shape[-1] == 0:
        return out
    u, s, _ = np.linalg.svd(frame, full_matrices=False)
    kept = rank_from_singular_values(s, rtol)[..., None]
    coeff = u[..., 0, :] * v[..., 0, None]  # <u_j, v> for every j, summed over i in order
    for i in range(1, u.shape[-2]):
        coeff = coeff + u[..., i, :] * v[..., i, None]
    for j in range(s.shape[-1]):
        out = np.where(j < kept, out + coeff[..., j, None] * u[..., j], out)
    return out


def greedy_independent_columns(frame, rtol=RANK_RTOL):
    """Indices of a maximal independent column subset, scanned in given order.

    A nonzero column joins the subset when its residual against the span of
    the already selected columns exceeds rtol times its own norm.  Scanning in
    canonical table order keeps the selection deterministic.
    """
    n, k = frame.shape
    selected = []
    basis = np.zeros((n, 0))
    for j in range(k):
        col = frame[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:  # most columns of a deep table vanish at a given point
            continue
        resid = col - basis @ (basis.T @ col)
        if np.linalg.norm(resid) > rtol * norm:
            selected.append(j)
            q = resid / np.linalg.norm(resid)
            basis = np.column_stack([basis, q])
    return selected


def pivoted_columns(frame, count):
    """Sorted first `count` pivots of column-pivoted Gram-Schmidt, as a pivoted QR's.

    Each step takes the column of largest residual norm, the first on ties in
    LAPACK dgeqp3's order (the pivot swaps places with the step's column), and
    projects it out of the rest.
    """
    R = np.array(frame, dtype=float)
    order = np.arange(R.shape[1])
    for i in range(count):
        p = i + int(np.argmax(vecnorm(R[:, order[i:]].T)))
        order[[i, p]] = order[[p, i]]
        q = R[:, order[i]] / np.linalg.norm(R[:, order[i]])
        R -= np.outer(q, q @ R)
    return sorted(order[:count].tolist())


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
