import numpy as np
import pytest

from ufgsim import catalog, expr as ex, fields as vf, geometry as geo
from ufgsim.dynamics import SDESystem, flow
from ufgsim.linalg import sym_outer_max_eig
from conftest import sample_points


def table_for(entry, level=None):
    return vf.build_hierarchy(entry.system.all_fields(), level or entry.level)


class TestSamplePlan:
    def test_grid(self):
        pts = geo.SamplePlan(box=((0, 1), (0, 2)), grid=3).sample(2)
        assert pts.shape == (9, 2)

    def test_exclusion(self):
        plan = geo.SamplePlan(box=((-1, 1),), grid=5, exclude=lambda p: abs(p[0]) < 0.1)
        assert all(abs(p[0]) >= 0.1 for p in plan.sample(1))

    def test_explicit_points(self):
        pts = geo.SamplePlan(points=[[1.0, 2.0]]).sample(2)
        assert pts.shape == (1, 2)

    def test_bad_box(self):
        with pytest.raises(ValueError):
            geo.SamplePlan(box=((1, 1),)).sample(1)


class TestRank:
    def test_heisenberg_profile(self, heisenberg):
        tab = table_for(heisenberg)
        assert geo.rank_at(tab, "brackets+drift", [1, 0, 0]) == 3
        assert geo.rank_at(tab, "brackets+drift", [0, 1, 1]) == 2
        assert geo.rank_at(tab, "brackets", [1, 0, 0]) == 2

    def test_circles_profile(self, circles):
        tab = table_for(circles)
        assert geo.rank_at(tab, "brackets", [1, 0]) == 1
        assert geo.rank_at(tab, "brackets+drift", [1, 0]) == 2
        assert geo.rank_at(tab, "brackets", [0, 0]) == 0
        assert geo.rank_at(tab, "brackets+drift", [0, 0]) == 0

    def test_rank_inequality(self, rng, heisenberg, circles, sine_ou_k2):
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            for x in sample_points(entry, 15, rng):
                r = geo.rank_at(tab, "brackets", x)
                r0 = geo.rank_at(tab, "brackets+drift", x)
                assert r <= r0 <= r + 1


class TestDecompose:
    def test_circles_orthogonal_drift(self, rng, circles):
        tab = table_for(circles)
        for x in sample_points(circles, 10, rng):
            v_par, v_perp, resid = geo.decompose_drift(tab, x)
            assert np.allclose(v_perp, [-x[1], x[0]], atol=1e-10)
            assert np.linalg.norm(v_par) <= 1e-10
            assert resid <= 1e-9

    def test_heisenberg_known_component(self, rng, heisenberg):
        tab = table_for(heisenberg)
        for x in sample_points(heisenberg, 10, rng):
            _, v_perp, _ = geo.decompose_drift(tab, x)
            assert np.allclose(v_perp, [-x[0], 0.0, 0.0], atol=1e-9)

    def test_drift_inside_span(self, rng):
        # drift equal to the noise field: nothing orthogonal remains
        V1 = vf.make_field(2, ["x", "y"], ["x", "y"])
        tab = vf.build_hierarchy([V1, V1], 1)
        for _ in range(5):
            x = rng.uniform(0.3, 2.0, size=2)
            v_par, v_perp, _ = geo.decompose_drift(tab, x)
            assert np.linalg.norm(v_perp) <= 1e-10

    def test_orthogonality_property(self, rng, heisenberg, circles, sine_ou_k2):
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            for x in sample_points(entry, 10, rng):
                _, v_perp, _ = geo.decompose_drift(tab, x)
                for a in tab.r_m():
                    col = tab.field(a)(x)
                    bound = 1e-9 * (1 + np.linalg.norm(v_perp) * np.linalg.norm(col))
                    assert abs(col @ v_perp) <= bound

    def test_idempotence(self, rng, heisenberg):
        # replace the drift by its orthogonal component; nothing projects back
        tab = table_for(heisenberg)
        v0perp = heisenberg.v0perp
        fields2 = (v0perp,) + tuple(heisenberg.system.noises)
        tab2 = vf.build_hierarchy(fields2, heisenberg.level)
        for x in sample_points(heisenberg, 10, rng):
            v_par, _, resid = geo.decompose_drift(tab2, x)
            assert np.linalg.norm(v_par) <= 1e-9
            assert resid <= 1e-9

    def test_rows_match_pointwise_reference(self, rng, heisenberg, circles, sine_ou_k2):
        # reference: one checked frame and drift evaluation per point
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            pts = sample_points(entry, 9, rng)
            for x, got in zip(pts, geo.decompose_drift_rows(tab, pts)):
                F = tab.evaluate_frame("brackets", x)
                v0 = tab.drift(x)
                v_par = geo.project_onto_columns(F, v0, rtol=geo.DEFAULT_RTOL)
                v_perp = v0 - v_par
                resid = float(np.max(np.abs(F.T @ v_perp)) / (1.0 + np.linalg.norm(v_perp)))
                assert np.array_equal(got[0], v_par) and np.array_equal(got[1], v_perp)
                assert got[2] == resid

    def test_rows_name_the_failing_bracket(self):
        V0 = vf.make_field(1, ["1"], ["x"])
        V1 = vf.make_field(1, ["log(x)"], ["x"])
        tab = vf.build_hierarchy([V0, V1], 1)
        with pytest.raises(ex.EvalDomainError, match=r"bracket \(1\): log of non-positive"):
            geo.decompose_drift_rows(tab, np.array([[1.0], [2.0], [-1.0]]))
        V0 = vf.make_field(1, ["sqrt(x)"], ["x"])
        V1 = vf.make_field(1, ["1"], ["x"])
        tab = vf.build_hierarchy([V0, V1], 1)
        with pytest.raises(ex.EvalDomainError, match=r"^sqrt of negative value -1.0"):
            geo.decompose_drift_rows(tab, np.array([[1.0], [-1.0]]))


class TestUFG:
    def test_sinfields_level1(self):
        entry = catalog.get("sinfields")
        rep = geo.check_ufg(table_for(entry), geo.SamplePlan(box=((-3, 3), (-3, 3)), grid=32))
        assert rep.verdict == "satisfied_on_samples"
        assert max(r.residual for r in rep.records) <= 1e-10

    def test_linear_random_draws(self, rng):
        for _ in range(5):
            N = int(rng.integers(2, 5))
            A = rng.standard_normal((N, N))
            C = rng.standard_normal((1, N))
            entry = catalog.get("linear", {"A": A, "D": rng.standard_normal(N), "C": C})
            tab = table_for(entry)  # level 2N-1
            plan = geo.SamplePlan(points=rng.uniform(-2, 2, size=(8, N)))
            rep = geo.check_ufg(tab, plan)
            assert rep.verdict == "satisfied_on_samples", rep.worst_point

    def test_psi_suspect(self):
        entry = catalog.get("non-ufg-psi")
        rep = geo.check_ufg(table_for(entry),
                            geo.SamplePlan(box=((0.01, 1.0), (-1, 1)), grid=16))
        assert rep.verdict == "suspect"
        assert max(r.max_coeff for r in rep.records) > 1e6

    def test_level_above_table_rejected(self, circles):
        tab = table_for(circles)
        with pytest.raises(ValueError):
            geo.check_ufg(tab, geo.SamplePlan(points=[[1.0, 0.0]]), m=5)


class TestHormander:
    def test_circles_phc_violated(self, circles):
        rep = geo.check_hormander(table_for(circles),
                                  geo.SamplePlan(box=((0.3, 2), (0.3, 2)), grid=5), "PHC")
        assert rep.verdict == "violated"
        assert all(r.extra["rank"] == 1 for r in rep.records)

    def test_gbm_hc_depends_on_origin(self):
        entry = catalog.get("gbm")
        tab = table_for(entry)
        off = geo.check_hormander(tab, geo.SamplePlan(box=((0.5, 2.0),), grid=8), "HC")
        assert off.verdict == "satisfied_on_samples"
        on = geo.check_hormander(tab, geo.SamplePlan(points=[[0.0], [1.0]]), "HC")
        assert on.verdict == "violated"
        assert on.worst_point == [0.0]

    def test_heisenberg_phc_violated(self, heisenberg):
        rep = geo.check_hormander(table_for(heisenberg),
                                  geo.SamplePlan(box=((0.5, 2), (-1, 1), (-1, 1)), grid=4),
                                  "PHC")
        assert rep.verdict == "violated"
        assert all(r.extra["rank"] == 2 for r in rep.records)


class TestKalman:
    def test_integrator_chain(self):
        ok, rank = geo.check_kalman([[0, 1], [0, 0]], [0, 1])
        assert ok and rank == 2

    def test_zero_matrix(self):
        ok, rank = geo.check_kalman(np.zeros((2, 2)), [1, 0])
        assert not ok and rank == 1

    def test_full_rank_noise(self, rng):
        A = rng.standard_normal((3, 3))
        ok, rank = geo.check_kalman(A, np.eye(3))
        assert ok and rank == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            geo.check_kalman(np.zeros((2, 2)), np.zeros(3))


def apply_operator(field, f):
    """First-order operator action sum_i V^i d_i f, symbolically."""
    acc = ex.ZERO
    for i, comp in enumerate(field.components):
        acc = ex.Binary("add", acc, ex.Binary("mul", comp, ex.differentiate(f, i)))
    return ex.simplify(acc)


class TestOAC:
    def test_circle_line_certificate(self, circle_line):
        tab = table_for(circle_line)
        plan = geo.SamplePlan(box=((0.2, 2 * np.pi - 0.2),), grid=200)
        rep = geo.check_oac(tab, plan, 1.0, tol=1e-10)
        assert rep.verdict == "satisfied_on_samples"
        assert rep.notes["lambda0_certified_min"] == pytest.approx(1.0, abs=1e-6)

    def test_sine_ou_certificate(self, sine_ou_k2):
        tab = table_for(sine_ou_k2)
        plan = geo.SamplePlan(box=sine_ou_k2.sample_box, grid=15)
        rep = geo.check_oac(tab, plan, 1.0, tol=1e-10)
        assert rep.verdict == "satisfied_on_samples"
        # certified limit is k - 1 = 1 in the worst direction
        assert rep.notes["lambda0_certified_min"] >= 1.0 - 1e-9

    def test_grushin_flip(self):
        for k in (-1.0, -0.1, 0.1, 1.0):
            entry = catalog.get("grushin", {"k": k})
            rep = geo.check_oac(table_for(entry),
                                geo.SamplePlan(box=((-3, 3), (-3, 3)), grid=9),
                                1e-3, tol=1e-10)
            assert (rep.verdict == "satisfied_on_samples") == (k > 0)

    def test_linear_reduction_matches_eigensolver(self, rng):
        # the closed-form maximal eigenvalue of sym((A b + lam b) b^T) must
        # match a dense eigensolver on 20 random draws
        lam = 0.7
        for _ in range(20):
            N = int(rng.integers(2, 5))
            A = rng.standard_normal((N, N))
            b = rng.standard_normal(N)
            a = A @ b
            direct = np.linalg.eigvalsh(0.5 * (np.outer(a + lam * b, b)
                                               + np.outer(b, a + lam * b))).max()
            closed = sym_outer_max_eig(a + lam * b, b)
            assert closed == pytest.approx(direct, abs=1e-10 * (1 + abs(direct)))

    def test_singular_points_reported(self, grushin_minus1):
        tab = table_for(grushin_minus1)
        rep = geo.check_oac(tab, geo.SamplePlan(points=[[1.0, 0.0], [0.0, 1.0]]),
                            1e-3, tol=1e-10)
        assert rep.singular_points == [[1.0, 0.0]]


class TestOAC2:
    def test_no_pairs_is_trivially_satisfied(self, circles):
        rep = geo.check_oac2(table_for(circles, 1),
                             geo.SamplePlan(points=[[1.0, 0.0]]), 1.0)
        assert rep.verdict == "satisfied_on_samples"
        assert rep.notes["pairs"] == 0

    def test_linear_threshold_at_two(self):
        entry = catalog.get("linear", {"A": -np.eye(2), "C": [[1.0, 0.0]]})
        tab = vf.build_hierarchy(entry.system.all_fields(), 3)
        plan = geo.SamplePlan(box=((-2, 2), (-2, 2)), grid=5)
        assert geo.check_oac2(tab, plan, 1.9).verdict == "satisfied_on_samples"
        assert geo.check_oac2(tab, plan, 2.5).verdict == "violated"

    def test_circle_line_report_and_certificate(self, circle_line):
        tab = vf.build_hierarchy(circle_line.system.all_fields(), 3)
        plan = geo.SamplePlan(box=((0.2, 2 * np.pi - 0.2),), grid=200)
        rep = geo.check_oac2(tab, plan, 1.0, tol=1e-9)
        assert rep.verdict == "satisfied_on_samples"
        assert rep.notes["pairs"] > 0
        assert rep.notes["lambda0_certified_min"] == pytest.approx(2.0, abs=1e-6)

    def test_operator_coefficients_against_symbolic_application(self, rng, circle_line,
                                                                sine_ou_k2):
        # oracle: apply V_a V_b and its drift commutator to random quadratics
        # symbolically and compare with the coefficient-vector pairing
        for entry in (circle_line, sine_ou_k2):
            tab = vf.build_hierarchy(entry.system.all_fields(), 3)
            alphas = [a for a in tab.r_m() if len(a.entries) >= 2][:2]
            n = entry.system.dim
            names = list(entry.variables)
            for a_idx in alphas:
                for b_idx in alphas:
                    if a_idx == b_idx:
                        continue
                    S, w = geo._second_order_coefficients(tab.field(a_idx), tab.field(b_idx))
                    S2, w2 = geo._commutator_with_field(S, w, tab.drift)
                    for _ in range(5):
                        H = rng.standard_normal((n, n))
                        H = H + H.T
                        g = rng.standard_normal(n)
                        terms = []
                        for i in range(n):
                            for j in range(n):
                                terms.append(f"{float(H[i, j]) / 2!r}*{names[i]}*{names[j]}")
                            terms.append(f"{float(g[i])!r}*{names[i]}")
                        f = ex.parse_expression(" + ".join(terms), names)
                        Pf = apply_operator(tab.field(a_idx), apply_operator(tab.field(b_idx), f))
                        V0Pf = apply_operator(tab.drift, Pf)
                        PV0f = apply_operator(tab.field(a_idx),
                                              apply_operator(tab.field(b_idx),
                                                             apply_operator(tab.drift, f)))
                        x = sample_points(entry, 1, rng)[0]
                        jet_S = np.array([[ex.evaluate(S[i][j], x) for j in range(n)]
                                          for i in range(n)])
                        jet_w = np.array([ex.evaluate(w[j], x) for j in range(n)])
                        grad = H @ x + g
                        want = float(np.sum(jet_S * H) + jet_w @ grad)
                        got = ex.evaluate(Pf, x)
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                        jet_S2 = np.array([[ex.evaluate(S2[i][j], x) for j in range(n)]
                                           for i in range(n)])
                        jet_w2 = np.array([ex.evaluate(w2[j], x) for j in range(n)])
                        want2 = float(np.sum(jet_S2 * H) + jet_w2 @ grad)
                        got2 = ex.evaluate(PV0f, x) - ex.evaluate(V0Pf, x)
                        assert got2 == pytest.approx(want2, rel=1e-8, abs=1e-8)


class TestLyapunov:
    def test_sine_ou_quadratic(self, sine_ou_k2):
        phi = ex.parse_expression("z*z", ["z", "zeta"])
        plan = geo.SamplePlan(box=((-3, 3), (0.5, 6.0)), grid=8)
        rep = geo.check_lyapunov(sine_ou_k2.system, phi, plan,
                                 c1=2 * (2 * np.pi) ** 2, c2=4.0,
                                 ode_solution_times=[0.0, 1.0, 5.0])
        assert rep.passed

    def test_ou_explicit_constants(self):
        # L phi = -2k z^2 + 2 zeta_t^2 <= c1 - c2 phi with c2 = 2k
        k = 1.5
        entry = catalog.get("grushin", {"k": -1.0})  # zeta decays, bounded by start
        V0 = vf.make_field(2, [f"-{k}*z", "-1*zeta"], ["z", "zeta"])
        V1 = vf.make_field(2, ["1", "0"], ["z", "zeta"])
        system = SDESystem(2, V0, (V1,), "ou+ode")
        phi = ex.parse_expression("z*z", ["z", "zeta"])
        rep = geo.check_lyapunov(system, phi, geo.SamplePlan(box=((-4, 4), (0.1, 2)), grid=6),
                                 c1=2.0, c2=2 * k, ode_solution_times=[0.0, 2.0])
        assert rep.passed

    def test_zero_fields_trivial(self):
        V0 = vf.make_field(2, ["0", "0"], ["z", "zeta"])
        V1 = vf.make_field(2, ["1", "0"], ["z", "zeta"])
        system = SDESystem(2, V0, (V1,), "flat")
        phi = ex.parse_expression("z*z", ["z", "zeta"])
        # L phi = V1 (V1 phi) = 2 everywhere; any c1 >= 2 with c2 = 0 passes
        rep = geo.check_lyapunov(system, phi, geo.SamplePlan(box=((-1, 1), (0, 1)), grid=4),
                                 c1=2.0, c2=0.0, ode_solution_times=[0.0, 1.0])
        assert rep.passed

    def test_violation_detected(self, sine_ou_k2):
        phi = ex.parse_expression("z*z", ["z", "zeta"])
        rep = geo.check_lyapunov(sine_ou_k2.system, phi,
                                 geo.SamplePlan(box=((-3, 3), (0.5, 6.0)), grid=6),
                                 c1=0.0, c2=4.0, ode_solution_times=[0.0])
        assert rep.verdict == "violated"

    def test_batched_records_match_pointwise_reference(self, sine_ou_k2):
        system = sine_ou_k2.system
        phi = ex.parse_expression("log(z*z)", ["z", "zeta"])  # undefined at z = 0
        plan = geo.SamplePlan(box=((-3, 3), (0.5, 6.0)), grid=5)
        times = [0.0, 0.5, 1.0]
        rep = geo.check_lyapunov(system, phi, plan, c1=80.0, c2=4.0,
                                 ode_solution_times=times)
        Lphi = geo.generator_apply(system, phi)
        ode = vf.make_field(1, ["-sin(zeta)"], ["zeta"])
        want, skipped = [], 0
        for x in plan.sample(2):
            margins = []
            try:
                for t in times:
                    pt = np.concatenate([x[:1], flow(ode, x[1:], t) if t > 0 else x[1:]])
                    margins.append(ex.evaluate(Lphi, pt) - (80.0 - 4.0 * ex.evaluate(phi, pt)))
            except ex.EvalDomainError:
                skipped += 1
                continue
            k = int(np.argmax(margins))
            want.append((list(x), margins[k], times[k]))
        assert [(r.point, r.residual, r.extra["worst_time"]) for r in rep.records] == want
        assert rep.skipped_points == skipped == 5

    def test_unsorted_repeated_and_negative_times(self, sine_ou_k2):
        system = sine_ou_k2.system
        phi = ex.parse_expression("z*z", ["z", "zeta"])
        plan = geo.SamplePlan(box=((-3, 3), (0.5, 6.0)), grid=4)
        times = [1.0, -0.5, 0.25, 1.0, 0.0]
        rep = geo.check_lyapunov(system, phi, plan, c1=80.0, c2=4.0,
                                 ode_solution_times=times)
        Lphi = geo.generator_apply(system, phi)
        ode = vf.make_field(1, ["-sin(zeta)"], ["zeta"])
        pts = plan.sample(2)
        margins = []
        for t in times:  # one flow per time, each from 0
            X = np.concatenate([pts[:, :1], flow(ode, pts[:, 1:], t) if t > 0 else pts[:, 1:]],
                               axis=1)
            margins.append(ex.evaluate_array(Lphi, X) - (80.0 - 4.0 * ex.evaluate_array(phi, X)))
        k = np.argmax(margins, axis=0)
        want = [(list(x), margins[k[i]][i], times[k[i]]) for i, x in enumerate(pts)]
        assert [(r.point, r.residual, r.extra["worst_time"]) for r in rep.records] == want

    def test_phi_must_use_leading_block(self, sine_ou_k2):
        phi = ex.parse_expression("zeta*zeta", ["z", "zeta"])
        with pytest.raises(ValueError):
            geo.check_lyapunov(sine_ou_k2.system, phi,
                               geo.SamplePlan(box=((-1, 1), (0.5, 1)), grid=3),
                               c1=1.0, c2=1.0, ode_solution_times=[0.0])


class TestChart:
    def test_circles_chart(self, rng, circles):
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.3, v0perp=circles.v0perp)
        assert chart.n == 1 and chart.uses_drift_orthogonal
        # first coordinate radial, second angular: matches log-polar closed form
        T = rng.uniform(-0.3, 0.3, size=(30, 2))
        X = chart.forward(T)
        assert np.allclose(X[:, 0], np.exp(T[:, 0]) * np.cos(T[:, 1]), atol=1e-8)
        assert np.allclose(X[:, 1], np.exp(T[:, 0]) * np.sin(T[:, 1]), atol=1e-8)
        assert np.max(np.abs(chart.inverse(X) - T)) <= 1e-8
        rep = geo.verify_chart_structure(chart, tab, T, tol=1e-5)
        assert rep["passed"]

    def test_translation_chart_single_newton_step(self, rng):
        C1 = vf.make_field(2, ["1", "0"], ["x", "y"])
        C2 = vf.make_field(2, ["0", "1"], ["x", "y"])
        tab = vf.build_hierarchy([C2, C1], 1)
        chart = geo.build_chart(tab, [0.5, -0.5], eps=0.4,
                                newton_cfg=geo.NewtonConfig(tol=1e-12, max_iter=1))
        T = rng.uniform(-0.4, 0.4, size=(10, 2))
        X = chart.forward(T)
        assert np.max(np.abs(chart.inverse(X) - T)) <= 1e-12
        rep = geo.verify_chart_structure(chart, tab, T, tol=1e-10)
        assert rep["passed"] and rep["max_tail_component"] == 0.0

    def test_heisenberg_chart(self, rng, heisenberg):
        tab = table_for(heisenberg)
        chart = geo.build_chart(tab, [1.0, 0.0, 0.0], eps=0.25, v0perp=heisenberg.v0perp)
        assert chart.n == 2
        T = rng.uniform(-0.25, 0.25, size=(25, 3))
        rep = geo.verify_chart_structure(chart, tab, T, fd_step=1e-5, tol=1e-5)
        assert rep["passed"]
        assert rep["max_drift_tail_sensitivity"] <= 1e-5

    def test_not_regular_point(self, circles):
        tab = table_for(circles)
        with pytest.raises(RuntimeError, match="not a regular point"):
            geo.build_chart(tab, [0.0, 0.0], eps=0.1, v0perp=circles.v0perp)

    def test_domain_violation(self, circles):
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        with pytest.raises(ValueError, match="domain"):
            geo.verify_chart_structure(chart, tab, [[0.5, 0.5]])
