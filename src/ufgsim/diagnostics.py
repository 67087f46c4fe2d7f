"""Statistical and PDE-residual verification for simulated ensembles.

Kolmogorov-Smirnov distances here are deterministic given seeds; thresholds
in the callers are calibrated against sample size (DKW scale ~ 1.36/sqrt(n)),
not asymptotic p-values.  The escape fraction outside a fixed radius is a
numerical stand-in for non-tightness, documented as a proxy rather than a
theorem check.  1-D Wasserstein-1 distances are included alongside KS: the
sup-distance of any continuous sample to a point mass saturates near 1/2, so
the transport distance is the informative number for Dirac references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dynamics import simulate_paths

_SQRT1_2 = 0.70710678118654752440


@dataclass(frozen=True)
class GaussianRef:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")

    def cdf(self, x):
        """Normal CDF by cephes' ndtr branches on libm: with t the standardized x over
        sqrt(2), 0.5 + 0.5 erf(t) where |t| < 1/sqrt(2), else 0.5 erfc(|t|), or one
        minus that for t > 0.
        """
        t = (np.asarray(x, dtype=float) - self.mean) / math.sqrt(self.variance) * _SQRT1_2
        z = np.abs(t)
        near = z < _SQRT1_2
        out = np.empty(t.shape)
        out[near] = 0.5 + 0.5 * np.frompyfunc(math.erf, 1, 1)(t[near]).astype(float)
        tail = 0.5 * np.frompyfunc(math.erfc, 1, 1)(z[~near]).astype(float)
        out[~near] = np.where(t[~near] > 0, 1.0 - tail, tail)
        return out[()]


@dataclass(frozen=True)
class DiracRef:
    location: float


def gaussian(mean, variance):
    return GaussianRef(float(mean), float(variance))


def dirac(location):
    return DiracRef(float(location))


def ks_distance(samples, reference):
    """Sup-norm distance between the empirical CDF and the reference CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 2:
        raise ValueError("need at least two samples")
    if isinstance(reference, DiracRef):
        a = reference.location
        below = np.searchsorted(s, a, side="left") / n
        at_or_below = np.searchsorted(s, a, side="right") / n
        return float(max(below, 1.0 - at_or_below))
    F = reference.cdf(s)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F))))


def wasserstein1_to_point(samples, location):
    """Transport distance to a point mass: mean |x - a|."""
    return float(np.mean(np.abs(np.asarray(samples, dtype=float) - location)))


@dataclass
class ConvergenceReport:
    times: list
    ks: dict           # coordinate -> list of KS per time
    w1: dict           # coordinate -> list of W1-to-point per time (Dirac refs only)
    escape_fraction: list
    decay_rates: dict  # coordinate -> fitted exponential rate of the KS series
    passed: dict       # coordinate -> final KS below tolerance
    blowups: int       # paths that turned non-finite

    def to_dict(self):
        return {
            "times": self.times,
            "ks": {str(k): v for k, v in self.ks.items()},
            "w1": {str(k): v for k, v in self.w1.items()},
            "escape_fraction": self.escape_fraction,
            "decay_rates": {str(k): v for k, v in self.decay_rates.items()},
            "passed": {str(k): v for k, v in self.passed.items()},
            "blowups": self.blowups,
        }


def _fit_decay_rate(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > 0
    if keep.sum() < 2:
        return 0.0
    slope = np.polyfit(t[keep], np.log(v[keep]), 1)[0]
    return float(-slope)


def convergence_study(system, x0, times, references, n_paths, seed,
                      escape_radius, dt=1e-3, ks_tolerance=0.05, workers=1):
    """Simulate once and track per-coordinate KS distances and escape fractions.

    `references` maps coordinate index -> reference spec; coordinates without
    an entry are skipped.  The escape fraction is the share of paths outside
    the given radius at each time.  `workers` splits the paths over forked
    processes (see simulate_paths).
    """
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    ens = simulate_paths(system, x0, max(times), dt, n_paths, seed, store_times=times,
                         workers=workers)
    ks = {c: [] for c in references}
    w1 = {c: [] for c in references if isinstance(references[c], DiracRef)}
    escape = []
    grid_times = []
    for t in times:
        tg, X = ens.state_at(t)
        grid_times.append(float(tg))
        escape.append(float(np.mean(np.linalg.norm(X, axis=1) > escape_radius)))
        for c, ref in references.items():
            ks[c].append(ks_distance(X[:, c], ref))
            if isinstance(ref, DiracRef):
                w1[c].append(wasserstein1_to_point(X[:, c], ref.location))
    rates = {c: _fit_decay_rate(grid_times, v) for c, v in ks.items()}
    passed = {c: bool(v[-1] <= ks_tolerance) for c, v in ks.items()}
    return ConvergenceReport(grid_times, ks, w1, escape, rates, passed, int(ens.blown.sum()))


def _apply_observable(kernel, X):
    vals = np.empty(X.shape[:-1])
    kernel(X, vals)
    return np.where(np.isfinite(vals), vals, 0.0)


def semigroup_derivative(system, f, direction, x, t, n_paths, h=None, seed=0, dt=1e-3,
                         workers=1):
    """Derivative of the semigroup along a vector field, by coupled differences.

    Uses central differences between starts x +- h u with u the unit vector
    of the direction field at x and shared Brownian increments; the result is
    scaled by |direction(x)| so it estimates the derivative along the field
    itself (a plain unit-direction derivative would miss that factor).  The
    two starts are coupled in one ensemble (see simulate_paths).  Returns
    (estimate, standard error), arrays when `t` is a sequence.  Rejects
    fewer than two paths and a step h that is zero or not finite.  `workers`
    is passed to simulate_paths.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"x0 must have shape ({system.dim},)")
    if n_paths < 2:
        raise ValueError(f"need at least two paths for a standard error, got {n_paths}")
    if h is not None and not (math.isfinite(h) and h != 0):
        raise ValueError(f"difference step h = {h!r} must be a nonzero finite number")
    vdir = direction(x)
    norm = float(np.linalg.norm(vdir))
    if norm == 0.0:
        raise ValueError("direction field vanishes at the base point")
    if h is None:
        h = 1e-3 * (1.0 + float(np.linalg.norm(x)))
    u = vdir / norm
    times = [float(s) for s in np.atleast_1d(np.asarray(t, dtype=float))]
    ens = simulate_paths(system, np.array([x + h * u, x - h * u]), max(times), dt, n_paths,
                         seed, store_times=times, workers=workers)
    kernel = ex.compile_exprs([f], ())  # compiled once for every time and start
    est = np.empty(len(times))
    err = np.empty(len(times))
    for i, s in enumerate(times):
        Xa, Xb = ens.state_at(s)[1]
        d = (_apply_observable(kernel, Xa) - _apply_observable(kernel, Xb)) * (norm / (2.0 * h))
        est[i] = np.mean(d)
        err[i] = np.std(d, ddof=1) / math.sqrt(len(d))
    if np.ndim(t) == 0:
        return float(est[0]), float(err[0])
    return est, err


@dataclass
class FokkerPlanckResidual:
    max_abs: float
    max_abs_normalized: float
    profile: list          # (z, residual) pairs
    skipped_points: int
    density_sup: float

    def to_dict(self):
        return {
            "max_abs": float(self.max_abs),
            "max_abs_normalized": float(self.max_abs_normalized),
            "skipped_points": self.skipped_points,
            "density_sup": float(self.density_sup),
            "profile": [[float(a), float(b)] for a, b in self.profile],
        }


def stationary_fp_operator(system, rho):
    """Symbolic adjoint-generator action -d(V0 rho) + d(V1 d(V1 rho)) in 1-D."""
    if system.dim != 1 or system.d != 1:
        raise ValueError("the stationary residual is implemented for dim 1, one noise")
    v0 = system.drift.components[0]
    v1 = system.noises[0].components[0]

    inner = ex.differentiate(v1 * rho, 0)
    flux = ex.differentiate(v1 * inner, 0)
    return ex.simplify(flux - ex.differentiate(v0 * rho, 0))


def fokker_planck_residual(system, rho, grid):
    """Evaluate the stationary adjoint-generator residual of a candidate density.

    Fully symbolic differentiation through the expression layer; grid points
    where the density leaves its domain are skipped and counted.
    """
    resid = stationary_fp_operator(system, rho)
    Z = np.asarray(grid, dtype=float).reshape(-1, 1)
    check = ex.DomainCheck(Z.shape[:-1])
    vals = np.empty(Z.shape[:-1] + (2,))
    ex.compile_exprs([resid, rho], (2,), check=True)(Z, vals, check)
    r, rho_abs = vals[:, 0], np.abs(vals[:, 1])
    ok = ~check.bad
    skipped = int(check.bad.sum())
    profile = list(zip(Z[ok, 0].tolist(), r[ok].tolist()))
    if not profile:
        raise ValueError("no usable grid points for the residual")
    sup_rho = float(rho_abs[ok].max())
    max_abs = max(abs(r) for _, r in profile)
    norm = max_abs / sup_rho if sup_rho > 0 else math.inf
    return FokkerPlanckResidual(max_abs, norm, profile, skipped, sup_rho)
