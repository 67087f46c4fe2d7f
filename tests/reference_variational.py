"""The variational Heun step as array arithmetic on jacobian_batch values, and
the variational path loop built on it, kept as the tests' reference for the
compiled variational kernel (`SDESystem._variational_kernel`) and for
`malliavin.simulate_variational`.

`step_linearization` and `step_matrix` are the step as `ufgsim.malliavin`
computed it before the kernel: 2(1 + d) `jacobian_batch` calls per step,
at the state and at the Heun predictor.  `refresh_inverse` is the stored
inverse with its copy of K and fancy-indexed alive rows on every call.
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
