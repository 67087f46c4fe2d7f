"""The variational Heun step as array arithmetic on jacobian_batch values, and
the variational path loop built on it, kept as the tests' reference for the
compiled variational kernel (`SDESystem._variational_kernel`) and for
`malliavin.simulate_variational`.

`step_linearization` and `step_matrix` are the step as `ufgsim.malliavin`
computed it before the kernel: 2(1 + d) `jacobian_batch` calls per step,
at the state and at the Heun predictor.  `refresh_inverse` is the stored
inverse with its copy of K and fancy-indexed alive rows on every call.
`simulate_variational` runs all paths in one batch and checks every row at
every step.
"""

import math

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
    """(times, states, jacobians, inverses, increments, blown, aborted) as
    `malliavin.simulate_variational` returns them in a VariationalPath."""
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
    increments = np.zeros((n_paths, len(steps) - 1, d))
    alive = np.ones(n_paths, dtype=bool)
    blown = np.zeros(n_paths, dtype=bool)
    aborted = np.zeros(n_paths, dtype=bool)
    states[:, 0], jacobians[:, 0], inverses[:, 0] = X, J, K
    seg = 0
    for step in range(1, n_steps + 1):
        Xn, Xp = dyn._heun_step(system, X, dB[:, step - 1], dt)
        with np.errstate(all="ignore"):
            Jn = step_matrix(system, X, dB[:, step - 1], dt, Xp) @ J
        ok = alive & np.isfinite(Xn).all(axis=1) & np.isfinite(Jn).all(axis=(1, 2))
        blown |= alive & ~ok
        alive = ok
        X = np.where(alive[:, None], Xn, X)
        J = np.where(alive[:, None, None], Jn, J)
        increments[:, seg] += dB[:, step - 1]
        if step in steps:
            k = steps.index(step)
            K = refresh_inverse(J, K, alive)
            err = np.max(np.abs(J @ K - I), axis=(1, 2))
            bad = alive & ~(err <= consistency_tol)
            aborted |= bad
            alive &= ~bad
            states[:, k], jacobians[:, k], inverses[:, k] = X, J, K
            seg = min(k, len(steps) - 2)
    return (np.asarray(steps) * dt, states, jacobians, inverses, increments, blown, aborted)
