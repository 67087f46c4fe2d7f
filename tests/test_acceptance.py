"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  Two clauses are asserted exactly as
specified even though the required bound is unattainable for structural
reasons (see the assertion messages); the geometric content they aim at is
verified alongside through a scale-correct metric, and the strict clauses
are expected to fail rather than being weakened.
"""

import io
import contextlib
import math

import numpy as np
import pytest

from ufgsim import catalog, cli, diagnostics as dg, dynamics as dyn, expr as ex
from ufgsim import fields as vf, geometry as geo, malliavin as mal
from ufgsim.linalg import svd_rank, sym_outer_max_eig
from conftest import hc_frame


def verdict_line(num, ok, text):
    print(f"[ACCEPTANCE] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def circles_ensemble():
    entry = catalog.get("random-circles")
    times = [math.pi / 4, math.pi / 2, math.pi]
    ens = dyn.simulate_paths(entry.system, [1.0, 0.0], math.pi, 1e-3, 10000,
                             seed=424242, store_times=times)
    return entry, ens


def test_criterion_01_bracket_identities(rng):
    cases = []
    gbm = catalog.get("gbm")
    cases.append((gbm, (1, 0), lambda pts: np.zeros_like(pts)))
    sf = catalog.get("sinfields")
    cases.append((sf, (0, 1),
                  lambda pts: np.column_stack([np.zeros(len(pts)),
                                               np.cos(pts[:, 0]) * np.sin(pts[:, 0])])))
    cl = catalog.get("circle-line")
    cases.append((cl, (1, 0), lambda pts: -(1 - np.cos(pts[:, :1]))))
    so = catalog.get("sine-ou", {"k": 2.0})
    cases.append((so, (1, 0),
                  lambda pts: np.column_stack([
                      (-2.0 + np.sin(pts[:, 1]) / pts[:, 1]) * pts[:, 1],
                      np.zeros(len(pts))])))
    worst = 0.0
    for entry, idx, expected in cases:
        base = entry.system.all_fields()
        got = base[idx[0]]
        for i in idx[1:]:
            got = vf.lie_bracket(got, base[i])
        pts = np.column_stack([rng.uniform(lo, hi, size=100)
                               for lo, hi in entry.sample_box])
        err = float(np.max(np.abs(got.eval_batch(pts) - expected(pts))))
        worst = max(worst, err)
    ok = worst <= 1e-10
    verdict_line(1, ok, f"bracket identities, worst deviation {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_02_ufg_checker(rng):
    sf = catalog.get("sinfields")
    rep = geo.check_ufg(vf.build_hierarchy(sf.system.all_fields(), 1),
                        geo.SamplePlan(box=((-3, 3), (-3, 3)), grid=32))
    sin_ok = (rep.verdict == "satisfied_on_samples"
              and max(r.residual for r in rep.records) <= 1e-10)

    linear_ok = True
    for _ in range(20):
        N = int(rng.integers(2, 5))
        A = rng.standard_normal((N, N))
        entry = catalog.get("linear", {"A": A, "D": rng.standard_normal(N),
                                       "C": rng.standard_normal((1, N))})
        tab = vf.build_hierarchy(entry.system.all_fields(), 2 * N - 1)
        plan = geo.SamplePlan(points=rng.uniform(-2, 2, size=(8, N)))
        linear_ok &= geo.check_ufg(tab, plan).verdict == "satisfied_on_samples"

    psi = catalog.get("non-ufg-psi")
    rep_psi = geo.check_ufg(vf.build_hierarchy(psi.system.all_fields(), 3),
                            geo.SamplePlan(box=((0.01, 1.0), (-1, 1)), grid=16))
    psi_ok = (rep_psi.verdict == "suspect"
              and max(r.max_coeff for r in rep_psi.records) > 1e6)

    ok = sin_ok and linear_ok and psi_ok
    verdict_line(2, ok, f"UFG checker (sinfields {sin_ok}, linear draws {linear_ok}, "
                        f"flat example suspect {psi_ok})")
    assert ok


def test_criterion_03_oac(rng):
    cl = catalog.get("circle-line")
    rep = geo.check_oac(vf.build_hierarchy(cl.system.all_fields(), 1),
                        geo.SamplePlan(box=((0.2, 2 * math.pi - 0.2),), grid=200),
                        1.0, tol=1e-10)
    cert = rep.notes["lambda0_certified_min"]
    cl_ok = rep.verdict == "satisfied_on_samples" and abs(cert - 1.0) <= 1e-6

    flip_ok = True
    for k in (-1.0, -0.1, 0.1, 1.0):
        entry = catalog.get("grushin", {"k": k})
        rk = geo.check_oac(vf.build_hierarchy(entry.system.all_fields(), 1),
                           geo.SamplePlan(box=((-3, 3), (-3, 3)), grid=9),
                           1e-3, tol=1e-10)
        flip_ok &= (rk.verdict == "satisfied_on_samples") == (k > 0)

    lam = 0.7
    eig_ok = True
    for _ in range(20):
        N = int(rng.integers(2, 5))
        A = rng.standard_normal((N, N))
        entry = catalog.get("linear", {"A": A, "C": rng.standard_normal((1, N))})
        tab = vf.build_hierarchy(entry.system.all_fields(), 2 * N - 1)
        x = rng.uniform(-1, 1, size=N)
        for alpha in tab.r_m():
            b = tab.field(alpha)(x)
            a = tab.field(alpha.extend(0))(x)
            direct = np.linalg.eigvalsh(
                0.5 * (np.outer(a + lam * b, b) + np.outer(b, a + lam * b))).max()
            closed = sym_outer_max_eig(a + lam * b, b)
            eig_ok &= abs(closed - direct) <= 1e-10 * (1 + abs(direct))

    ok = cl_ok and flip_ok and eig_ok
    verdict_line(3, ok, f"alignment condition (certified lambda0 {cert:.9f}, "
                        f"sign flip {flip_ok}, eigensolver agreement {eig_ok})")
    assert ok


def test_criterion_04_random_circles_paths(circles_ensemble):
    entry, ens = circles_ensemble
    angle_worst = 0.0
    ks_worst = 0.0
    for k, t in enumerate(ens.times):
        if t == 0.0:
            continue
        X = ens.states[:, k, :]
        ang = np.arctan2(X[:, 1], X[:, 0])
        err = np.abs((ang - t + math.pi) % (2 * math.pi) - math.pi)
        angle_worst = max(angle_worst, float(np.max(err)))
        logr = np.log(np.hypot(X[:, 0], X[:, 1]))
        ks_worst = max(ks_worst, dg.ks_distance(logr, dg.gaussian(0.0, 2 * t)))
    ok = angle_worst <= 5e-3 and ks_worst <= 0.02
    verdict_line(4, ok, f"circles paths (max angle error {angle_worst:.2e} <= 5e-3, "
                        f"worst log-radius KS {ks_worst:.4f} <= 0.02)")
    assert ok


def test_criterion_04_auxiliary_second_coordinate(circles_ensemble):
    entry, ens = circles_ensemble
    z = dyn.auxiliary_process(ens, entry.v0perp)
    worst_abs = 0.0
    worst_rel = 0.0
    for k, t in enumerate(z.times):
        if t == 0.0:
            continue
        Z = z.states[:, k, :]
        worst_abs = max(worst_abs, float(np.max(np.abs(Z[:, 1]))))
        worst_rel = max(worst_rel, float(np.max(np.abs(Z[:, 1])
                                                / np.hypot(Z[:, 0], Z[:, 1]))))
    rel_ok = worst_rel <= 5e-3
    ok = worst_abs <= 5e-3
    verdict_line(4, ok, f"auxiliary process |Z_y| <= 5e-3 strictly (got {worst_abs:.2e}; "
                        f"angular deviation {worst_rel:.2e} <= 5e-3: {rel_ok})")
    assert rel_ok, "angular deviation of the auxiliary process exceeded 5e-3"
    assert ok, (
        "unattainable as stated: the scheme's O(T dt) angle bias times the "
        "log-normal radius (sigma^2 = 2t) makes sup |Z_y| of order r * T * dt, "
        "which no fixed 5e-3 bound survives at 1e4 paths; the angular deviation "
        "above carries the intended geometric content and passes"
    )


def test_criterion_05_heisenberg(rng):
    entry = catalog.get("ufg-heisenberg")
    tab = vf.build_hierarchy(entry.system.all_fields(), 2)
    ok_rank_pts = (svd_rank(hc_frame(tab, [1, 0, 0])) == 3
                   and svd_rank(hc_frame(tab, [-0.5, 1, 1])) == 3
                   and svd_rank(hc_frame(tab, [0, 1, 1])) == 2
                   and svd_rank(hc_frame(tab, [0, -2, 0.5])) == 2)
    det_ok = True
    mono_ok = True
    for x0 in ([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]):
        ens = dyn.simulate_paths(entry.system, x0, 1.0, 1e-3, 1000, seed=7,
                                 store_stride=100)
        expect = x0[0] * np.exp(-ens.times)
        det_ok &= float(np.max(np.abs(ens.states[:, :, 0] - expect[None, :]))) <= 1e-6
        ranks = dyn.rank_along_path(ens.states, tab)
        mono_ok &= bool(np.all(np.diff(ranks, axis=1) <= 0))
        mono_ok &= bool(np.all(ranks[:, 0] == (3 if x0[0] != 0 else 2)))
    ok = ok_rank_pts and det_ok and mono_ok
    verdict_line(5, ok, f"heisenberg (deterministic coordinate {det_ok}, "
                        f"rank profile {ok_rank_pts}, monotone ranks {mono_ok})")
    assert ok


def test_criterion_06_grushin():
    entry = catalog.get("grushin", {"k": -1.0})
    times = [0.5, 1.0, 2.0]
    ens = dyn.simulate_paths(entry.system, [0.0, 1.0], 2.0, 1e-3, 10000,
                             seed=31337, store_times=times)
    ks_worst = 0.0
    for t in times:
        tg, X = ens.state_at(t)
        ks_worst = max(ks_worst, dg.ks_distance(X[:, 0],
                                                dg.gaussian(0.0, 1 - math.exp(-2 * tg))))
    ks_ok = ks_worst <= 0.02

    k = 0.5
    entry2 = catalog.get("grushin", {"k": k})
    f = ex.parse_expression("sin(z)", ["z", "zeta"])
    x = np.array([0.0, 1.0])
    est, err = dg.semigroup_derivative(entry2.system, f, entry2.system.noises[0],
                                       x, times, 10000, seed=2024)
    deriv_ok = True
    for t, e, se in zip(times, est, err):
        want = x[1] * math.cos(x[0]) * math.exp(
            -x[1] ** 2 * (math.exp(2 * k * t) - 1) / (2 * k))
        deriv_ok &= abs(e - want) <= 3 * se
    ok = ks_ok and deriv_ok
    verdict_line(6, ok, f"grushin (marginal KS {ks_worst:.4f} <= 0.02, "
                        f"derivative oracle within 3 SE {deriv_ok})")
    assert ok


def test_criterion_07_sine_ou_limits():
    entry = catalog.get("sine-ou", {"k": 2.0})
    res = dyn.flow_limit(entry.v0perp, [0.0, 4.0], 100.0)
    flow_ok = res.status == "converged" and abs(res.point[1] - 2 * math.pi) <= 1e-6

    ens = dyn.simulate_paths(entry.system, [0.0, 4.0], 10.0, 1e-3, 10000,
                             seed=777, store_times=[10.0])
    _, X = ens.state_at(10.0)
    ks = dg.ks_distance(X[:, 0], dg.gaussian(0.0, (2 * math.pi) ** 2 / 2.0))
    zeta_dev = float(np.max(np.abs(X[:, 1] - 2 * math.pi)))
    law_ok = ks <= 0.03 and zeta_dev <= 1e-3
    ok = flow_ok and law_ok
    verdict_line(7, ok, f"sine-ou limit (flow limit {flow_ok}, KS {ks:.4f} <= 0.03, "
                        f"zeta within {zeta_dev:.2e} of 2 pi)")
    assert ok


def test_criterion_07_contracting_marginal_dirac():
    entry = catalog.get("sine-ou", {"k": 2.0})
    times = [2.0, 5.0, 10.0]
    rep = dg.convergence_study(entry.system, [0.0, 1.0], times, {0: dg.dirac(0.0)},
                               10000, seed=999, escape_radius=1e3)
    ks_series = rep.ks[0]
    w1_series = rep.w1[0]
    w1_ok = w1_series == sorted(w1_series, reverse=True) and w1_series[-1] <= 0.1
    ok = ks_series == sorted(ks_series, reverse=True) and ks_series[-1] <= 0.1
    verdict_line(7, ok, f"contracting marginal vs point mass: KS {ks_series[-1]:.3f} "
                        f"<= 0.1 (W1 {w1_series[-1]:.2e} <= 0.1: {w1_ok})")
    assert w1_ok, "transport distance to the point mass failed to contract"
    assert ok, (
        "unattainable as stated: the sup-distance between any continuous "
        "marginal and a point mass is pinned near 1/2 (half the sample sits "
        "strictly below the atom), so no KS threshold below 0.5 can ever be "
        "met; the Wasserstein-1 distance above shows the intended collapse"
    )


def test_criterion_08_stationary_residuals():
    cl = catalog.get("circle-line")
    grid = np.linspace(0.2, 2 * math.pi - 0.2, 400)
    good = dg.fokker_planck_residual(cl.system, catalog.stationary_density_expr(), grid)
    bad = dg.fokker_planck_residual(
        cl.system, ex.parse_expression("exp(-(z-3)*(z-3)/2)", ["z"]), grid)
    k = 1.0
    ou = catalog.get("linear", {"A": [[-k]], "C": [[1.0]]})
    rho_ou = ex.parse_expression(f"exp(-{k!r}*x1*x1/2)", ["x1"])
    ou_res = dg.fokker_planck_residual(ou.system, rho_ou, np.linspace(-4, 4, 400))
    ok = good.max_abs <= 1e-8 and bad.max_abs >= 1e-2 and ou_res.max_abs <= 1e-8
    verdict_line(8, ok, f"stationary residuals (invariant {good.max_abs:.1e} <= 1e-8, "
                        f"control {bad.max_abs:.1e} >= 1e-2, OU {ou_res.max_abs:.1e})")
    assert ok


def test_criterion_09_malliavin():
    ok_blocks = True
    for name, params, x0 in (("sine-ou", {"k": 2.0}, [0.0, 4.0]),
                             ("grushin", {"k": -1.0}, [0.0, 1.0])):
        entry = catalog.get(name, params)
        vp = mal.simulate_variational(entry.system, x0, 1.0, 1e-3, seed=55, n_paths=100)
        M = mal.malliavin_matrix(vp)
        reports, agg = mal.block_check_ensemble(M, 1)
        ok_blocks &= agg["block_ok_fraction"] == 1.0
        ok_blocks &= agg["invertible_fraction"] == 1.0

    k = 1.0
    ou = catalog.get("linear", {"A": [[-k]], "C": [[1.0]]})
    vp = mal.simulate_variational(ou.system, [0.2], 1.0, 1e-3, seed=56, n_paths=100)
    M = mal.malliavin_matrix(vp)
    want = (1 - math.exp(-2 * k)) / (2 * k)
    ou_err = float(np.max(np.abs(M[:, 0, 0] / want - 1)))
    ok = ok_blocks and ou_err <= 0.02
    verdict_line(9, ok, f"malliavin (block+invertibility on every path {ok_blocks}, "
                        f"OU matrix within {ou_err:.2%} of closed form)")
    assert ok


def test_criterion_10_charts(rng):
    circles = catalog.get("random-circles")
    tab = vf.build_hierarchy(circles.system.all_fields(), 1)
    chart = geo.build_chart(tab, [1.0, 0.0], eps=0.3, v0perp=circles.v0perp)
    T = rng.uniform(-0.3, 0.3, size=(100, 2))
    verify = geo.verify_chart_structure(chart, tab, T, tol=1e-5)
    roundtrip = float(np.max(np.abs(chart.inverse(chart.forward(T)) - T)))
    circ_ok = verify["passed"] and roundtrip <= 1e-8

    heis = catalog.get("ufg-heisenberg")
    tabh = vf.build_hierarchy(heis.system.all_fields(), 2)
    charth = geo.build_chart(tabh, [1.0, 0.0, 0.0], eps=0.25, v0perp=heis.v0perp)
    Th = rng.uniform(-0.25, 0.25, size=(40, 3))
    verifyh = geo.verify_chart_structure(charth, tabh, Th, fd_step=1e-5, tol=1e-5)
    heis_ok = verifyh["max_drift_tail_sensitivity"] <= 1e-5
    ok = circ_ok and heis_ok
    verdict_line(10, ok, f"charts (circles verify+roundtrip {circ_ok}, "
                         f"roundtrip {roundtrip:.1e}; heisenberg drift-tail "
                         f"sensitivity {verifyh['max_drift_tail_sensitivity']:.1e})")
    assert ok


def test_criterion_11_adjoint_identities(rng):
    cfg = dyn.FlowConfig(dt=2e-3)
    fixed_ok = True
    hom_worst = 0.0
    for name in catalog.list_entries():
        entry = catalog.get(name) if name not in ("grushin", "sine-ou") else \
            catalog.get(name, {"k": 2.0 if name == "sine-ou" else 1.0})
        system = entry.system
        box = entry.sample_box
        for _ in range(10):
            t = float(rng.uniform(0.1, 0.5))
            x = np.array([rng.uniform(lo, hi) for lo, hi in box])
            V = system.all_fields()[int(rng.integers(0, system.d + 1))]
            got = dyn.adjoint_push(V, V, t, x, cfg)
            fixed_ok &= bool(np.max(np.abs(got - V(x))) <= 1e-8)

        U, W = system.all_fields()[-2], system.all_fields()[-1]
        flow_field = system.drift
        UV = vf.lie_bracket(U, W)
        n = system.dim

        def ad_batch(Y, X, t):
            y = dyn.flow(flow_field, X, t, cfg)
            Jf = dyn.flow_jacobian(flow_field, X, t, cfg)
            return np.linalg.solve(Jf, Y.eval_batch(y)[:, :, None])[:, :, 0]

        for _ in range(10):
            t = float(rng.uniform(0.1, 0.4))
            x = np.array([rng.uniform(lo, hi) for lo, hi in box])
            h = 1e-5
            stencil = [x]
            for i in range(n):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                stencil += [xp, xm]
            X = np.array(stencil)
            adU = ad_batch(U, X, t)
            adW = ad_batch(W, X, t)
            # cross-check the fast batched route against adjoint_push once
            ref = dyn.adjoint_push(flow_field, U, t, x, cfg)
            assert np.max(np.abs(adU[0] - ref)) <= 1e-7 * (1 + np.max(np.abs(ref)))
            JU = np.empty((n, n)); JW = np.empty((n, n))
            for i in range(n):
                JU[:, i] = (adU[1 + 2 * i] - adU[2 + 2 * i]) / (2 * h)
                JW[:, i] = (adW[1 + 2 * i] - adW[2 + 2 * i]) / (2 * h)
            outer = JW @ adU[0] - JU @ adW[0]
            want = ad_batch(UV, x[None, :], t)[0]
            hom_worst = max(hom_worst, float(np.max(np.abs(outer - want))))
    hom_ok = hom_worst <= 1e-4
    ok = fixed_ok and hom_ok
    verdict_line(11, ok, f"adjoint identities (field fixed by own flow {fixed_ok}, "
                         f"homomorphism worst deviation {hom_worst:.1e} <= 1e-4)")
    assert ok


def _cli_capture(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(args)
    return code, buf.getvalue()


def test_criterion_12_cli_determinism():
    commands = [
        ["simulate", "--system", "random-circles", "--x0", "1,0", "--t", "0.25",
         "--dt", "0.001", "--paths", "64", "--seed", "42", "--stride", "50"],
        ["converge", "--system", "grushin", "--param", "k=-1", "--x0", "0,1",
         "--times", "0.25,0.5", "--reference", "gaussian:0,0.4", "--paths", "256",
         "--seed", "9", "--escape-radius", "10"],
        ["malliavin", "--system", "sine-ou", "--param", "k=2", "--x0", "0,4",
         "--t", "0.5", "--paths", "32", "--seed", "5", "--split", "1"],
    ]
    ok = True
    for args in commands:
        code1, out1 = _cli_capture(args)
        code2, out2 = _cli_capture(args + ["--threads", "8"])
        code3, out3 = _cli_capture(args)
        ok &= code1 == code2 == code3 and out1 == out2 == out3 and code1 in (0, 2)
    verdict_line(12, ok, "repeat runs and --threads variations are byte-identical")
    assert ok
