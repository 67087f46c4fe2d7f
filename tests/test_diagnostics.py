import math

import numpy as np
import pytest

from ufgsim import catalog, diagnostics as dg, dynamics as dyn, expr as ex, fields as vf
from conftest import assert_same_bits


def coupled_differences(system, starts, f, times, n_paths, seed):
    """f at the first start minus f at the second, per path and requested time,
    written out on one coupled simulate_paths run: (grid time, differences)
    pairs, with non-finite values of f counted as 0."""
    ens = dyn.simulate_paths(system, np.array(starts, dtype=float), max(times), 1e-3, n_paths,
                             seed, store_times=list(times))
    kernel = ex.compile_exprs([f], ())
    out = []
    for t in times:
        tg, starts_X = ens.state_at(t)
        vals = []
        for X in starts_X:
            v = np.empty(X.shape[:-1])
            kernel(X, v)
            vals.append(np.where(np.isfinite(v), v, 0.0))
        out.append((float(tg), vals[0] - vals[1]))
    return out


class TestKS:
    def test_self_sample_scale(self, rng):
        s = rng.standard_normal(10000)
        assert dg.ks_distance(s, dg.gaussian(0, 1)) < 0.02

    def test_dirac_exact_zero(self):
        assert dg.ks_distance(np.full(50, 2.5), dg.dirac(2.5)) == 0.0

    def test_dirac_off_mass(self):
        assert dg.ks_distance(np.full(50, 2.5), dg.dirac(0.0)) == 1.0

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            dg.gaussian(0, 0.0)

    def test_sine_ou_marginal_moderate_horizon(self, sine_ou_k2):
        # reduced-scale version of the long-horizon law: by t = 6 the
        # deterministic coordinate has essentially converged to 2 pi
        rep = dg.convergence_study(sine_ou_k2.system, [0.0, 4.0], [2.0, 6.0],
                                   {0: dg.gaussian(0.0, (2 * math.pi) ** 2 / 2.0)},
                                   2000, seed=31, escape_radius=100.0)
        assert rep.ks[0][-1] < 0.1


class TestGaussianCdf:
    def test_special_values_equal_ndtr(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        z = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
        got = dg.gaussian(0, 1).cdf(z)
        assert np.array_equal(got, ndtr(z), equal_nan=True)
        assert dg.gaussian(0, 1).cdf(0.0) == 0.5

    def test_close_to_ndtr_above_minus_20(self, rng):
        ndtr = pytest.importorskip("scipy.special").ndtr
        # both branches, the switch at |z| = 1 and the far left tail
        z = np.concatenate([rng.uniform(-8, 8, 20000), rng.uniform(-20, -8, 5000),
                            np.linspace(-1.01, 1.01, 2021), [-20.0, 40.0]])
        x = 2.0 + 3.0 * z
        want = ndtr((x - 2.0) / 3.0)
        assert np.all(np.abs(dg.gaussian(2.0, 9.0).cdf(x) - want) <= 2e-14 * want)


class TestConvergenceStudy:
    def test_sine_ou_ode_coordinate_to_dirac(self, sine_ou_k2):
        rep = dg.convergence_study(sine_ou_k2.system, [0.0, 4.0], [1.0, 4.0, 8.0],
                                   {1: dg.dirac(2 * math.pi)}, 200, seed=17,
                                   escape_radius=100.0, ks_tolerance=0.05)
        # the coordinate approaches its limit strictly from one side, so the
        # sup-distance to the point mass stays saturated while the transport
        # distance tracks the actual convergence
        assert rep.ks[1][-1] == 1.0
        assert rep.w1[1] == sorted(rep.w1[1], reverse=True)
        assert rep.w1[1][-1] < 1e-2

    def test_contracting_z_coordinate_w1(self, sine_ou_k2):
        # started inside the basin of the zero line: transport distance of the
        # leading coordinate to the point mass shrinks (the sup distance to a
        # point mass cannot, for a continuous law)
        rep = dg.convergence_study(sine_ou_k2.system, [0.0, 1.0], [1.0, 4.0, 8.0],
                                   {0: dg.dirac(0.0)}, 400, seed=18,
                                   escape_radius=100.0)
        assert rep.w1[0][-1] < rep.w1[0][0]
        assert rep.w1[0][-1] < 0.05
        assert rep.ks[0][-1] > 0.4  # saturation of KS against a point mass

    def test_grushin_escape_fraction(self):
        entry = catalog.get("grushin", {"k": 1.0})
        rep = dg.convergence_study(entry.system, [0.0, 1.0], [1.0, 4.0, 7.0],
                                   {0: dg.gaussian(0.0, 1.0)}, 300, seed=19,
                                   escape_radius=10.0)
        assert rep.escape_fraction[-1] > 0.95
        assert rep.escape_fraction == sorted(rep.escape_fraction)

    def test_times_must_increase(self, sine_ou_k2):
        with pytest.raises(ValueError):
            dg.convergence_study(sine_ou_k2.system, [0.0, 4.0], [2.0, 1.0],
                                 {0: dg.dirac(0.0)}, 10, seed=0, escape_radius=10.0)


class TestCoupledEstimatorBits:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.5, [0.25, 0.5]])
    def test_semigroup_derivative(self, forking, t, workers):
        entry = catalog.get("grushin", {"k": 0.5})
        system, direction = entry.system, entry.system.noises[0]
        f = ex.parse_expression("sin(z)", ["z", "zeta"])
        x = np.array([0.3, 2.0])
        got = dg.semigroup_derivative(system, f, direction, x, t, 200, seed=5, workers=workers)
        assert len(forking) == workers - 1
        norm = float(np.linalg.norm(direction(x)))
        h = 1e-3 * (1.0 + float(np.linalg.norm(x)))
        u = direction(x) / norm
        est, err = [], []
        for _, d in coupled_differences(system, [x + h * u, x - h * u], f,
                                        np.atleast_1d(t).tolist(), 200, 5):
            d = d * (norm / (2.0 * h))
            est.append(np.mean(d))
            err.append(np.std(d, ddof=1) / math.sqrt(len(d)))
        assert np.ndim(got[0]) == np.ndim(t)
        assert_same_bits(got, np.reshape([est, err], (2,) + np.shape(t)))


class TestSemigroupDerivative:
    def test_constant_observable(self, grushin_minus1):
        f = ex.parse_expression("3", ["z", "zeta"])
        est, err = dg.semigroup_derivative(grushin_minus1.system, f,
                                           grushin_minus1.system.noises[0],
                                           [0.0, 1.0], 0.5, 500, seed=2)
        assert est == 0.0 and err == 0.0

    def test_grushin_closed_form(self):
        # base point with |direction| != 1 pins the field scaling
        k = 0.5
        entry = catalog.get("grushin", {"k": k})
        f = ex.parse_expression("sin(z)", ["z", "zeta"])
        x = np.array([0.3, 2.0])
        est, err = dg.semigroup_derivative(entry.system, f, entry.system.noises[0],
                                           x, [0.5, 1.0], 8000, seed=5)
        for t, e, se in zip([0.5, 1.0], est, err):
            want = x[1] * math.cos(x[0]) * math.exp(-x[1] ** 2 * (math.exp(2 * k * t) - 1)
                                                    / (2 * k))
            assert abs(e - want) <= 3 * se

    def test_circle_line_decay(self, circle_line):
        f = ex.parse_expression("sin(z)", ["z"])
        est, err = dg.semigroup_derivative(circle_line.system, f,
                                           circle_line.system.noises[0],
                                           [3.0], [1.0, 2.0, 4.0], 4000, seed=6)
        mags = np.abs(est)
        assert mags[0] > mags[1] > mags[2]

    def test_crn_variance_reduction(self, grushin_minus1):
        f = ex.parse_expression("sin(z)", ["z", "zeta"])
        system = grushin_minus1.system
        direction = system.noises[0]
        x = np.array([0.0, 1.0])
        _, err_crn = dg.semigroup_derivative(system, f, direction, x, 1.0, 2000, seed=7)
        # independent-streams estimator: two ensembles with unrelated seeds
        h = 1e-3 * (1 + np.linalg.norm(x))
        u = direction(x) / np.linalg.norm(direction(x))
        ep = dyn.simulate_paths(system, x + h * u, 1.0, 1e-3, 2000, seed=100)
        em = dyn.simulate_paths(system, x - h * u, 1.0, 1e-3, 2000, seed=200)
        fp = ex.evaluate_array(f, ep.states[:, -1, :])
        fm = ex.evaluate_array(f, em.states[:, -1, :])
        scale = np.linalg.norm(direction(x)) / (2 * h)
        err_indep = math.sqrt(fp.var(ddof=1) + fm.var(ddof=1)) * scale / math.sqrt(2000)
        assert err_crn < err_indep

    @pytest.mark.parametrize("kw", [dict(n_paths=1), dict(n_paths=10, h=0.0),
                                    dict(n_paths=10, h=math.nan)])
    def test_degenerate_estimate_rejected(self, grushin_minus1, kw):
        f = ex.parse_expression("z", ["z", "zeta"])
        with pytest.raises(ValueError):
            dg.semigroup_derivative(grushin_minus1.system, f, grushin_minus1.system.noises[0],
                                    [0.0, 1.0], 0.5, seed=0, **kw)

    def test_zero_direction_rejected(self, grushin_minus1):
        f = ex.parse_expression("z", ["z", "zeta"])
        with pytest.raises(ValueError):
            dg.semigroup_derivative(grushin_minus1.system, f,
                                    grushin_minus1.system.noises[0],
                                    [0.0, 0.0], 0.5, 10, seed=0)


class TestFokkerPlanck:
    def test_invariant_density_annihilated(self, circle_line):
        rho = catalog.stationary_density_expr()
        grid = np.linspace(0.2, 2 * math.pi - 0.2, 400)
        res = dg.fokker_planck_residual(circle_line.system, rho, grid)
        assert res.max_abs <= 1e-8
        assert res.skipped_points == 0

    def test_wrong_density_detected(self, circle_line):
        rho = ex.parse_expression("exp(-(z-3)*(z-3)/2)", ["z"])
        grid = np.linspace(0.2, 2 * math.pi - 0.2, 400)
        res = dg.fokker_planck_residual(circle_line.system, rho, grid)
        assert res.max_abs >= 1e-2

    def test_ou_gaussian(self):
        k = 2.0
        V0 = vf.make_field(1, [f"-{k!r}*x"], ["x"])
        V1 = vf.make_field(1, ["1"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "ou")
        rho = ex.parse_expression(f"exp(-{k!r}*x*x/2)", ["x"])
        res = dg.fokker_planck_residual(system, rho, np.linspace(-4, 4, 200))
        assert res.max_abs <= 1e-8

    def test_rescaling_invariance(self, circle_line):
        # scaling the density scales the raw residual linearly and leaves the
        # normalized one fixed; use a density with an O(1) residual so the
        # comparison is not dominated by cancellation roundoff
        rho = ex.parse_expression("exp(-(z-3)*(z-3)/2)", ["z"])
        grid = np.linspace(0.5, 5.5, 100)
        base = dg.fokker_planck_residual(circle_line.system, rho, grid)
        for c in (2.0, 10.0, 0.125):
            scaled = dg.fokker_planck_residual(
                circle_line.system, ex.Binary("mul", ex.Const(c), rho), grid)
            assert scaled.max_abs == pytest.approx(c * base.max_abs, rel=1e-12)
            assert scaled.max_abs_normalized == pytest.approx(
                base.max_abs_normalized, rel=1e-12)

    def test_domain_errors_skipped(self, circle_line):
        rho = ex.parse_expression("log(z - 3)/(1 + z*z)", ["z"])
        res = dg.fokker_planck_residual(circle_line.system, rho,
                                        np.linspace(1.0, 5.0, 9))
        assert res.skipped_points > 0

    def test_profile_matches_pointwise_reference(self, circle_line):
        rho = ex.parse_expression("log(z - 3)/(1 + z*z)", ["z"])
        grid = np.linspace(1.0, 5.0, 9)
        res = dg.fokker_planck_residual(circle_line.system, rho, grid)
        resid = dg.stationary_fp_operator(circle_line.system, rho)
        want = []
        for z in grid:
            try:
                want.append((z, ex.evaluate(resid, [z]), abs(ex.evaluate(rho, [z]))))
            except ex.EvalDomainError:
                continue
        assert res.profile == [(z, r) for z, r, _ in want]
        assert res.skipped_points == len(grid) - len(want) == 5
        assert res.density_sup == max(p for _, _, p in want)

    def test_requires_one_dimension(self, circles):
        rho = ex.parse_expression("exp(-x*x)", ["x", "y"])
        with pytest.raises(ValueError):
            dg.fokker_planck_residual(circles.system, rho, [0.0])
