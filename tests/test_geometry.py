from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_alignment
from ufgsim import catalog, expr as ex, fields as vf, geometry as geo
from ufgsim.dynamics import FlowBlowUp, SDESystem, flow
from ufgsim.linalg import RANK_RTOL, svd_rank, sym_outer_max_eig
from conftest import compiled_evaluate, hc_frame, sample_points


def table_for(entry, level=None):
    return vf.build_hierarchy(entry.system.all_fields(), level or entry.level)


class TestSamplePlan:
    def test_grid(self):
        pts = geo.SamplePlan(box=((0, 1), (0, 2)), grid=3).sample(2)
        assert pts.shape == (9, 2)

    def test_explicit_points(self):
        pts = geo.SamplePlan(points=[[1.0, 2.0]]).sample(2)
        assert pts.shape == (1, 2)

    def test_bad_box(self):
        with pytest.raises(ValueError):
            geo.SamplePlan(box=((1, 1),)).sample(1)


def ranks(tab, pts, with_drift):
    """Tolerance ranks of the checked frames of R_m at the rows of pts (P, N),
    with the drift as a last column or without it."""
    pts = np.asarray(pts, dtype=float)
    frames = hc_frame(tab, pts) if with_drift else tab.frame(tab.r_m(), pts, checked=True)
    return svd_rank(frames).tolist()


class TestRank:
    def test_heisenberg_profile(self, heisenberg):
        tab = table_for(heisenberg)
        assert ranks(tab, [[1, 0, 0], [0, 1, 1]], True) == [3, 2]
        assert ranks(tab, [[1, 0, 0]], False) == [2]

    def test_circles_profile(self, circles):
        tab = table_for(circles)
        assert ranks(tab, [[1, 0], [0, 0]], False) == [1, 0]
        assert ranks(tab, [[1, 0], [0, 0]], True) == [2, 0]

    def test_rank_inequality(self, rng, heisenberg, circles, sine_ou_k2):
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            pts = sample_points(entry, 15, rng)
            for r, r0 in zip(ranks(tab, pts, False), ranks(tab, pts, True)):
                assert r <= r0 <= r + 1


@st.composite
def frame_stacks(draw):
    """Frames (P, N, k) with vectors (P, N): full rank, rank deficient, zero and tiny."""
    P, N, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(0, 7))
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)
    F = np.empty((P, N, k))
    for p in range(P):
        kind = draw(st.sampled_from(["full", "deficient", "zero", "tiny"]))
        F[p] = draw(arrays(float, (N, k), elements=entries))
        if kind == "deficient" and k:
            r = draw(st.integers(1, min(N, k)))
            F[p] = F[p][:, :r] @ draw(arrays(float, (r, k), elements=entries))
        elif kind == "zero":
            F[p] = 0.0
        elif kind == "tiny":  # the largest singular value is below RANK_FLOOR
            F[p] *= 1e-14
    return F, draw(arrays(float, (P, N), elements=entries))


class TestDecompose:
    def test_circles_orthogonal_drift(self, rng, circles):
        tab = table_for(circles)
        pts = sample_points(circles, 10, rng)
        for x, (v_par, v_perp, resid) in zip(pts, geo.decompose_drift_rows(tab, pts)):
            assert np.allclose(v_perp, [-x[1], x[0]], atol=1e-10)
            assert np.linalg.norm(v_par) <= 1e-10
            assert resid <= 1e-9

    def test_heisenberg_known_component(self, rng, heisenberg):
        tab = table_for(heisenberg)
        pts = sample_points(heisenberg, 10, rng)
        for x, (_, v_perp, _) in zip(pts, geo.decompose_drift_rows(tab, pts)):
            assert np.allclose(v_perp, [-x[0], 0.0, 0.0], atol=1e-9)

    def test_drift_inside_span(self, rng):
        # drift equal to the noise field: nothing orthogonal remains
        V1 = vf.make_field(2, ["x", "y"], ["x", "y"])
        tab = vf.build_hierarchy([V1, V1], 1)
        for _, v_perp, _ in geo.decompose_drift_rows(tab, rng.uniform(0.3, 2.0, size=(5, 2))):
            assert np.linalg.norm(v_perp) <= 1e-10

    def test_orthogonality_property(self, rng, heisenberg, circles, sine_ou_k2):
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            pts = sample_points(entry, 10, rng)
            for x, (_, v_perp, _) in zip(pts, geo.decompose_drift_rows(tab, pts)):
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
        for v_par, _, resid in geo.decompose_drift_rows(tab2, sample_points(heisenberg, 10, rng)):
            assert np.linalg.norm(v_par) <= 1e-9
            assert resid <= 1e-9

    def test_rows_match_pointwise_reference(self, rng, heisenberg, circles, sine_ou_k2):
        # reference: one checked frame and drift evaluation per point
        for entry in (heisenberg, circles, sine_ou_k2):
            tab = table_for(entry)
            pts = sample_points(entry, 9, rng)
            for x, got in zip(pts, geo.decompose_drift_rows(tab, pts)):
                F = tab.frame(tab.r_m(), x, checked=True)
                v0 = tab.drift(x)
                v_par = geo.project_onto_columns(F, v0, rtol=RANK_RTOL)
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

    @settings(max_examples=300, deadline=None)
    @given(frame_stacks())
    def test_stacked_projection_equals_single_frames(self, case):
        F, V = case
        got = geo.project_onto_columns(F, V, rtol=RANK_RTOL)
        assert got.shape == V.shape
        for p in range(len(F)):
            alone = geo.project_onto_columns(F[p].copy(), V[p].copy(), rtol=RANK_RTOL)
            assert got[p].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", ["ufg-heisenberg", "sinfields"])
    def test_drift_orthogonal_rows_equal_single_points(self, rng, name):
        entry = catalog.get(name)
        v0perp = geo.drift_orthogonal_field(table_for(entry))
        X = sample_points(entry, 40, rng)
        want = np.stack([v0perp(x) for x in X])
        assert v0perp.eval_batch(X).tobytes() == want.tobytes()

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


def reference_check_ufg(table, plan, m, rtol=RANK_RTOL):
    """One least-squares solve per (point, target), folded with Python max."""
    frame_idx = table.indices(m)
    targets = [a for a in table.indices() if m < a.length <= m + 2]
    pts = plan.sample(table.dim)
    frames = np.stack([table.field(a).eval_batch(pts) for a in frame_idx], axis=-1)
    tvals = {a: table.field(a).eval_batch(pts) for a in targets}
    records, singular, skipped = [], [], 0
    for i, x in enumerate(pts):
        F = frames[i]
        vs = {a: tvals[a][i] for a in targets}
        if not (np.all(np.isfinite(F)) and all(np.all(np.isfinite(v)) for v in vs.values())):
            skipped += 1
            continue
        if np.max(np.abs(F)) == 0.0:
            singular.append([float(v) for v in x])
            continue
        sel = geo.greedy_independent_columns(F, rtol=rtol)
        B = F[:, sel]
        worst_res, worst_coeff = 0.0, 0.0
        for a in targets:
            v = vs[a]
            if B.shape[1]:
                c, *_ = np.linalg.lstsq(B, v, rcond=None)
                resid = np.linalg.norm(v - B @ c) / (1.0 + np.linalg.norm(v))
                worst_coeff = max(worst_coeff, float(np.max(np.abs(c))) if c.size else 0.0)
            else:
                resid = np.linalg.norm(v) / (1.0 + np.linalg.norm(v))
            worst_res = max(worst_res, float(resid))
        records.append(geo.PointRecord(list(map(float, x)), worst_res, max_coeff=worst_coeff))
    return geo._finish_report("ufg", m, None, records, singular, skipped, 1e-8,
                              geo.DEFAULT_COEFF_BLOWUP)


class TestUFGBatched:
    """`check_ufg` solves once per point; its records are the per-target loop's, bit for bit."""

    @pytest.mark.parametrize("name, level, grid", [
        ("sinfields", 3, 9), ("ufg-heisenberg", None, 5), ("non-ufg-psi", None, 7)])
    def test_catalog_records_equal_reference(self, name, level, grid):
        entry = catalog.get(name)
        tab = table_for(entry, level)
        plan = geo.SamplePlan(box=entry.sample_box, grid=grid)
        got = geo.check_ufg(tab, plan).to_dict()
        assert got == reference_check_ufg(tab, plan, tab.m).to_dict()

    def test_each_distinct_field_is_evaluated_once(self):
        # the geometry benchmark's ufg-sinfields job: its 86 frame columns are
        # 8 distinct fields and its 144 targets are 3
        entry = catalog.get("sinfields")
        tab = table_for(entry, 8)
        with mock.patch.object(vf.VectorField, "eval_batch", autospec=True,
                               side_effect=vf.VectorField.eval_batch) as calls:
            geo.check_ufg(tab, geo.SamplePlan(box=entry.sample_box, grid=16))
        assert calls.call_count == 11

    def test_special_points_equal_reference(self):
        V0 = vf.make_field(2, ["exp(460*y)", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["x", "x"], ["x", "y"])
        V2 = vf.make_field(2, ["x", "-x"], ["x", "y"])
        tab = vf.build_hierarchy([V0, V1, V2], 1)
        points = np.array([
            [1.0, 0.5],       # regular
            [np.inf, 0.0],    # non-finite frame: skipped
            [0.0, 0.3],       # zero frame: singular
            [1e-310, 0.0],    # column norms underflow: no column selected
            [1e-150, 1.0],    # drift brackets ~1e200: infinite coefficients, NaN residuals
            [-2.0, 1.0],
        ])
        plan = geo.SamplePlan(points=points)
        with np.errstate(all="ignore"):
            ref = reference_check_ufg(tab, plan, 1).to_dict()
        got = geo.check_ufg(tab, plan)
        assert got.to_dict() == ref
        assert got.skipped_points == 1 and got.singular_points == [[0.0, 0.3]]
        rec = {tuple(r.point): r for r in got.records}
        assert rec[(1e-310, 0.0)].max_coeff == 0.0 and rec[(1e-310, 0.0)].residual > 0.5
        assert rec[(1e-150, 1.0)].max_coeff == np.inf and rec[(1e-150, 1.0)].residual == 0.0


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

    def test_stacked_svd_records_equal_pointwise_reference(self, rng, heisenberg):
        tab = table_for(heisenberg)
        pts = np.vstack([sample_points(heisenberg, 12, rng), [[np.inf, 0.0, 0.0]],
                         [[0.0, 0.0, 0.0]]])
        for variant, frames in (("HC", hc_frame(tab, pts, checked=False)),
                                ("PHC", tab.frame(tab.r_m(), pts))):
            want = []
            for x, F in zip(pts, frames):
                if not np.all(np.isfinite(F)):
                    continue
                s = np.linalg.svd(F, compute_uv=False)
                r = svd_rank(F)
                want.append(geo.PointRecord(list(map(float, x)), float(3 - r),
                                            min_eig=float(s[2]) if len(s) >= 3 else 0.0,
                                            extra={"rank": int(r)}).to_dict())
            rep = geo.check_hormander(tab, geo.SamplePlan(points=pts), variant)
            assert [r.to_dict() for r in rep.records] == want
            assert rep.skipped_points == 1


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
                    jet = compiled_evaluate([*(e for row in S for e in row), *w], (n * n + n,))
                    jet2 = compiled_evaluate([*(e for row in S2 for e in row), *w2],
                                             (n * n + n,))
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
                        Pf_x, PV0f_x, V0Pf_x = compiled_evaluate([Pf, PV0f, V0Pf], (3,))(x)
                        jet_x, jet2_x = jet(x), jet2(x)
                        jet_S = jet_x[:n * n].reshape(n, n)
                        jet_w = jet_x[n * n:]
                        grad = H @ x + g
                        want = float(np.sum(jet_S * H) + jet_w @ grad)
                        got = float(Pf_x)
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                        jet_S2 = jet2_x[:n * n].reshape(n, n)
                        jet_w2 = jet2_x[n * n:]
                        want2 = float(np.sum(jet_S2 * H) + jet_w2 @ grad)
                        got2 = float(PV0f_x) - float(V0Pf_x)
                        assert got2 == pytest.approx(want2, rel=1e-8, abs=1e-8)


def _bits(x):
    return np.float64(x).tobytes()


def _record_bits(records):
    return [(point, _bits(worst), _bits(cert), i) for point, worst, cert, i in records]


@st.composite
def alignment_inputs(draw):
    """Stacked (u, w) pairs (P, K, n) with regular, singular and non-finite points."""
    P, K, n = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 12))
    entries = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    scales = st.sampled_from([1.0, 1e-160, 1e150, 1e154, 1e300])  # norms and products overflow
    U = draw(arrays(np.float64, (P, K, n), elements=entries)) * draw(scales)
    W = draw(arrays(np.float64, (P, K, n), elements=entries)) * draw(scales)
    kinds = st.sampled_from(["regular", "zero w", "one zero w", "non-finite"])
    for i in range(P):
        kind = draw(kinds)
        if kind == "zero w":  # singular: every w vanishes, with either sign of zero
            W[i] = np.where(draw(arrays(bool, (K, n))), -0.0, 0.0)
        elif kind == "one zero w":  # a vacuous index: its certificate is +inf
            W[i, draw(st.integers(0, K - 1))] = 0.0
        elif kind == "non-finite":  # skipped
            where = (i, draw(st.integers(0, K - 1)), draw(st.integers(0, n - 1)))
            (U if draw(st.booleans()) else W)[where] = draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
    lambda0 = draw(st.sampled_from([0.5, 1.0, 3.0, 1e-300, 1e308]))
    tol = draw(st.sampled_from([1e-9, 1e-10, 0.0, 1.0]))
    return U, W, lambda0, tol


def reference_alignment_records(pts, U, W, lambda0, tol):
    """The per-point loop on one C-ordered (P, n) array per index, as it read them."""
    K = U.shape[1]
    with np.errstate(all="ignore"):
        return reference_alignment.alignment_records(
            pts, [np.ascontiguousarray(U[:, k]) for k in range(K)],
            [np.ascontiguousarray(W[:, k]) for k in range(K)], lambda0, tol)


def stacked_alignment_records(pts, U, W, lambda0, tol):
    """Records as (point, margin, certificate, row of the point); the points are distinct."""
    row = {tuple(x): i for i, x in enumerate(pts.tolist())}
    records, singular, skipped = geo._alignment_records(pts, U, W, lambda0, tol)
    return ([(r.point, r.residual, r.extra["lambda0_certified"], row[tuple(r.point)])
             for r in records], singular, skipped)


class TestAlignmentStacked:
    """`_alignment_records` runs all points and indices at once; its records are
    those of the per-point loop, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(alignment_inputs())
    def test_records_equal_pointwise_reference(self, inputs):
        U, W, lambda0, tol = inputs
        pts = np.arange(2.0 * len(U)).reshape(-1, 2)
        got, singular, skipped = stacked_alignment_records(pts, U, W, lambda0, tol)
        want, want_singular, want_skipped = reference_alignment_records(pts, U, W, lambda0, tol)
        assert _record_bits(got) == _record_bits(want)
        assert (singular, skipped) == (want_singular, want_skipped)

    def test_nan_margins_are_passed_over_as_python_max_does(self):
        # index 0 overflows to inf - inf: its margin and certificate are nan, and
        # Python's max and min keep the other index where np.maximum would not
        U = np.array([[[1e300], [-1.0]]])
        W = np.array([[[1e300], [1.0]]])
        pts = np.zeros((1, 1))
        got = stacked_alignment_records(pts, U, W, 0.5, 1e-9)[0]
        want = reference_alignment_records(pts, U, W, 0.5, 1e-9)[0]
        alone = stacked_alignment_records(pts, U[:, 1:], W[:, 1:], 0.5, 1e-9)[0]
        assert _record_bits(got) == _record_bits(want) == _record_bits(alone)

    @pytest.mark.parametrize("name, params, condition, level, grid", [
        ("grushin", {"k": -1.0}, "oac", None, 9),
        ("sine-ou", {"k": 2.0}, "oac", 2, 6),
        ("ufg-heisenberg", {}, "oac", None, 4),
        ("grushin", {"k": -1.0}, "oac2", 3, 6),
        ("circle-line", {}, "oac2", 3, 40),
    ])
    def test_catalog_reports_equal_reference(self, name, params, condition, level, grid):
        entry = catalog.get(name, params)
        tab = table_for(entry, level)
        plan = geo.SamplePlan(box=entry.sample_box, grid=grid)
        pts = plan.sample(tab.dim)
        if condition == "oac":
            rep = geo.check_oac(tab, plan, 0.5)
            ws = [tab.field(a).eval_batch(pts) for a in tab.r_m()]
            us = [tab.field(a.extend(0)).eval_batch(pts) for a in tab.r_m()]
        else:
            rep = geo.check_oac2(tab, plan, 0.5)
            alphas = [a for a in tab.r_m() if len(a.entries) >= 2]
            ws, us = [], []
            for a in alphas:
                for b in alphas:
                    if a != b:
                        S, w = geo._second_order_coefficients(tab.field(a), tab.field(b))
                        S2, w2 = geo._commutator_with_field(S, w, tab.drift)
                        for jet, out in (((S, [w]), ws), ((S2, [w2]), us)):
                            out.append(np.empty((len(pts), tab.dim * (tab.dim + 1))))
                            coeffs = [e for part in jet for row in part for e in row]
                            ex.compile_exprs(coeffs, out[-1].shape[1:])(pts, out[-1])
        with np.errstate(all="ignore"):
            want = reference_alignment.alignment_records(pts, us, ws, 0.5, 1e-9)
        got = [(r.point, _bits(r.residual), _bits(r.extra["lambda0_certified"]))
               for r in rep.records]
        assert got == [(p, _bits(m), _bits(c)) for p, m, c, _ in want[0]]
        assert (rep.singular_points, rep.skipped_points) == want[1:]
        assert rep.records


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
        Lphi = compiled_evaluate([geo.generator_apply(system, phi)])
        phi_at = compiled_evaluate([phi])
        ode = vf.make_field(1, ["-sin(zeta)"], ["zeta"])
        want, skipped = [], 0
        for x in plan.sample(2):
            margins = []
            try:
                for t in times:
                    pt = np.concatenate([x[:1], flow(ode, x[1:], t) if t > 0 else x[1:]])
                    margins.append(Lphi(pt) - (80.0 - 4.0 * phi_at(pt)))
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


def reference_inverse(chart, x, counts):
    """Chart.inverse as it was: line-search trials call forward, and the next
    iterate's forward_jacobian is computed afresh; `counts` tallies both."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    B = X.shape[0]
    T = np.zeros((B, chart.dim))
    for _ in range(geo.NEWTON_MAX_ITER):
        counts["forward_jacobian"] += 1
        Y, J = chart.forward_jacobian(T)
        R = Y - X
        rn = np.linalg.norm(R, axis=1)
        if np.all(rn <= chart.newton_tol):
            break
        step = np.linalg.solve(J, R[:, :, None])[:, :, 0]
        counts["steps"] += 1
        lam = np.ones(B)
        for _ in range(8):
            cand = np.clip(T - lam[:, None] * step, -1.4 * chart.radius, 1.4 * chart.radius)
            counts["trials"] += 1
            Yc = chart.forward(cand)
            better = np.linalg.norm(Yc - X, axis=1) <= rn * (1 - 0.25 * lam) + chart.newton_tol
            if np.all(better):
                break
            lam = np.where(better, lam, lam * 0.5)
        T = np.clip(T - lam[:, None] * step, -1.4 * chart.radius, 1.4 * chart.radius)
    else:
        counts["forward_jacobian"] += 1
        Y, _ = chart.forward_jacobian(T)
        rn = np.linalg.norm(Y - X, axis=1)
        if np.any(rn > chart.newton_tol * 100):
            raise RuntimeError("did not converge")
    return T


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

    def test_translation_chart_single_newton_step(self, monkeypatch, rng):
        C1 = vf.make_field(2, ["1", "0"], ["x", "y"])
        C2 = vf.make_field(2, ["0", "1"], ["x", "y"])
        tab = vf.build_hierarchy([C2, C1], 1)
        monkeypatch.setattr(geo, "NEWTON_MAX_ITER", 1)
        chart = geo.build_chart(tab, [0.5, -0.5], eps=0.4, newton_tol=1e-12)
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

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_basis_columns_are_the_pivoted_qr_choice(self, level):
        # the columns build_chart takes are those of LAPACK's pivoted QR on every
        # catalog frame: greedy_independent_columns differs on some of them
        qr = pytest.importorskip("scipy.linalg").qr
        rng = np.random.default_rng(level)
        for name in catalog.list_entries():
            entry = catalog.get(name)
            tab = table_for(entry, level)
            frames = tab.frame(tab.r_m(), sample_points(entry, 300, rng))
            for F in frames[np.isfinite(frames).all(axis=(1, 2))]:
                n0 = svd_rank(F)
                assert geo.pivoted_columns(F, n0) == sorted(qr(F, pivoting=True)[2][:n0]), \
                    (name, F.tolist())

    @pytest.mark.parametrize("x0", [[1.0, 0.0], [0.0, 0.0]])
    def test_frame_evaluated_once(self, circles, x0):
        # one checked evaluation at x0 and its 2N probes, whether or not x0 is regular
        tab = table_for(circles)
        frame, calls = vf.BracketTable.frame, []

        def counted(table, *args, **kwargs):
            calls.append(args)
            return frame(table, *args, **kwargs)

        with mock.patch.object(vf.BracketTable, "frame", counted):
            if x0 == [1.0, 0.0]:
                assert geo.build_chart(tab, x0, eps=0.1).n == 1
            else:
                with pytest.raises(RuntimeError, match="not a regular point"):
                    geo.build_chart(tab, x0, eps=0.1)
        assert len(calls) == 1

    def test_domain_violation(self, circles):
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        with pytest.raises(ValueError, match="domain"):
            geo.verify_chart_structure(chart, tab, [[0.5, 0.5]])

    @pytest.mark.parametrize("fd_step", [0.0, -1e-5, float("nan")])
    def test_fd_step_must_be_positive(self, circles, fd_step):
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        with pytest.raises(ValueError, match="fd_step must be positive"):
            geo.verify_chart_structure(chart, tab, [[0.1, 0.1]], fd_step=fd_step)

    def test_nan_drift_sensitivity_fails(self, circles):
        # the random-circles chart (n = 1 < N = 2) verified on a table whose drift is nan
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        nan_drift = vf.VectorField(2, (ex.Const(float("nan")), ex.ZERO))
        nan_tab = vf.build_hierarchy([nan_drift, *circles.system.noises], tab.m)
        rep = geo.verify_chart_structure(chart, nan_tab, [[0.1, 0.1]])
        assert rep["tail_ok"] and np.isnan(rep["max_drift_tail_sensitivity"])
        assert not rep["drift_sensitivity_ok"] and not rep["passed"]

    @pytest.mark.parametrize("eps, max_iter, outcome", [
        (0.2, 50, "converges"), (0.9, 50, "rejects trials"),
        (0.9, 6, "converges in the fallback"), (0.9, 3, "does not converge")])
    def test_inverse_equals_reference_to_the_bit(self, monkeypatch, circles, eps, max_iter,
                                                 outcome):
        monkeypatch.setattr(geo, "NEWTON_MAX_ITER", max_iter)
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=eps, v0perp=circles.v0perp)
        X = chart.forward(np.random.default_rng(2).uniform(-eps, eps, size=(10, 2)))
        counts = dict.fromkeys(["forward_jacobian", "steps", "trials"], 0)
        if outcome == "does not converge":
            with pytest.raises(RuntimeError, match="did not converge"):
                reference_inverse(chart, X, counts)
            with pytest.raises(RuntimeError, match="did not converge"):
                chart.inverse(X)
            return
        want = reference_inverse(chart, X, counts)
        if outcome == "rejects trials":
            assert counts["trials"] > counts["steps"]
        assert (counts["steps"] == max_iter) == (outcome == "converges in the fallback")
        assert chart.inverse(X).tobytes() == want.tobytes()

    def test_inverse_reuses_the_accepted_trial(self, rng, circles):
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        X = chart.forward(rng.uniform(-0.2, 0.2, size=(20, 2)))
        counts = dict.fromkeys(["forward_jacobian", "steps", "trials"], 0)
        want = reference_inverse(chart, X, counts)
        assert counts["trials"] == counts["steps"] > 0  # every first trial accepted
        with mock.patch.object(geo, "flow", wraps=geo.flow) as flow_calls, \
                mock.patch.object(geo.Chart, "forward_jacobian", autospec=True,
                                  side_effect=geo.Chart.forward_jacobian) as jac_calls:
            got = chart.inverse(X)
        assert flow_calls.call_count == 0
        assert jac_calls.call_count == counts["forward_jacobian"]
        assert got.tobytes() == want.tobytes()

    def test_trial_whose_jacobian_blows_up_is_judged_by_forward(self, circles):
        # a trial's flow Jacobian alone turning non-finite must not end the
        # inversion: forward judges the trial, as it did before trials kept J
        tab = table_for(circles)
        chart = geo.build_chart(tab, [1.0, 0.0], eps=0.2, v0perp=circles.v0perp)
        X = chart.forward(np.random.default_rng(2).uniform(-0.2, 0.2, size=(10, 2)))
        want = reference_inverse(chart, X, dict.fromkeys(["forward_jacobian", "steps",
                                                          "trials"], 0))
        jacobian, calls = geo.Chart.forward_jacobian, []

        def first_trial_blows_up(self, t):
            calls.append(t)
            if len(calls) == 2:
                raise FlowBlowUp(0.1, "flow Jacobian")
            return jacobian(self, t)

        with mock.patch.object(geo.Chart, "forward_jacobian", first_trial_blows_up):
            assert chart.inverse(X).tobytes() == want.tobytes()

