"""The per-point alignment loop that `check_oac` and `check_oac2` ran before the
stacked pass, kept as the tests' reference for `geometry._alignment_records`.

`sym_outer_max_eig` and `alignment_certificate` are the 1-D formulas as
`ufgsim.linalg` had them: dot products and `np.linalg.norm` of one vector at a
time, folded with Python's `max` and `min`.
"""

import numpy as np

from ufgsim.linalg import RANK_FLOOR


def sym_outer_max_eig(a, b):
    return 0.5 * (float(a @ b) + np.linalg.norm(a) * np.linalg.norm(b))


def alignment_certificate(a, b, tol_scaled):
    bb = float(b @ b)
    if bb == 0.0:
        return np.inf
    ab = float(a @ b)
    a_perp = a - (ab / bb) * b
    tau = max(tol_scaled, RANK_FLOOR)
    B = 0.5 * np.linalg.norm(a_perp) * np.sqrt(bb)
    return (tau - B * B / tau - ab) / bb


def alignment_records(pts, us, ws, lambda0, tol):
    """(records, singular, skipped) from one (P, n) array per index in us and ws.

    Returns the records as (point, worst margin, certificate, index) tuples.
    """
    records, singular, skipped = [], [], 0
    for i, x in enumerate(pts):
        rows = [(u[i], w[i]) for u, w in zip(us, ws)]
        if not all(np.all(np.isfinite(u)) and np.all(np.isfinite(w)) for u, w in rows):
            skipped += 1
            continue
        if max(np.max(np.abs(w)) for _, w in rows) == 0.0:
            singular.append([float(v) for v in x])
            continue
        worst, cert = -np.inf, np.inf
        for u, w in rows:
            tau = tol * (1.0 + np.linalg.norm(u) * np.linalg.norm(w))
            worst = max(worst, sym_outer_max_eig(u + lambda0 * w, w) - tau)
            cert = min(cert, alignment_certificate(u, w, tau))
        records.append((list(map(float, x)), float(worst), float(cert), i))
    return records, singular, skipped
