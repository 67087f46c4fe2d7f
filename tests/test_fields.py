import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgsim import catalog
from ufgsim import expr as ex
from ufgsim import fields as vf
from ufgsim.geometry import SamplePlan
from conftest import hc_frame, sample_points
import reference_walk as ref


def numeric_bracket(V, W, x, step=1e-5):
    """Finite-difference commutator: Jacobians by central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def jac(F):
        J = np.empty((n, n))
        for i in range(n):
            h = step * max(1.0, abs(x[i]))
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            J[:, i] = (F(xp) - F(xm)) / (2 * h)
        return J

    return jac(W) @ V(x) - jac(V) @ W(x)


class TestLieBracket:
    def test_gbm_commutes(self, rng):
        V1 = vf.make_field(1, ["x"], ["x"])
        V0 = vf.make_field(1, ["-2*x"], ["x"])
        br = vf.lie_bracket(V1, V0)
        pts = rng.uniform(-3, 3, size=(100, 1))
        assert np.max(np.abs(br.eval_batch(pts))) <= 1e-12

    def test_sinfields_identity(self, rng):
        V0 = vf.make_field(2, ["sin(x)", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["0", "sin(x)"], ["x", "y"])
        br = vf.lie_bracket(V0, V1)
        pts = rng.uniform(-3, 3, size=(50, 2))
        want = np.cos(pts[:, :1]) * V1.eval_batch(pts)
        assert np.max(np.abs(br.eval_batch(pts) - want)) <= 1e-12

    def test_circle_line_identity(self, rng):
        V0 = vf.make_field(1, ["sin(z)"], ["z"])
        V1 = vf.make_field(1, ["1 - cos(z)"], ["z"])
        br = vf.lie_bracket(V1, V0)
        pts = rng.uniform(0.1, 6.2, size=(50, 1))
        assert np.max(np.abs(br.eval_batch(pts) + V1.eval_batch(pts))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            vf.lie_bracket(vf.make_field(1, ["x"], ["x"]),
                           vf.make_field(2, ["x", "y"], ["x", "y"]))

    def test_antisymmetry(self, rng, heisenberg):
        fields = heisenberg.system.all_fields()
        pts = sample_points(heisenberg, 20, rng)
        for A in fields:
            for B in fields:
                ab = vf.lie_bracket(A, B).eval_batch(pts)
                ba = vf.lie_bracket(B, A).eval_batch(pts)
                assert np.max(np.abs(ab + ba)) <= 1e-12

    def test_jacobi_identity(self, rng, heisenberg, circles):
        for entry in (heisenberg, circles):
            base = list(entry.system.all_fields())
            if len(base) < 3:
                base.append(vf.lie_bracket(base[0], base[1]))
            U, V, W = base[:3]
            total = None
            for A, B, C in ((U, V, W), (V, W, U), (W, U, V)):
                term = vf.lie_bracket(A, vf.lie_bracket(B, C))
                total = term if total is None else vf.VectorField(
                    term.dim,
                    tuple(ex.simplify(ex.Binary("add", a, b))
                          for a, b in zip(total.components, term.components)),
                )
            pts = sample_points(entry, 20, rng)
            assert np.max(np.abs(total.eval_batch(pts))) <= 1e-9

    def test_symbolic_vs_finite_difference(self, rng, heisenberg, circles, sine_ou_k2):
        for entry in (heisenberg, circles, sine_ou_k2):
            fields = entry.system.all_fields()
            pts = sample_points(entry, 20, rng)
            for A in fields:
                for B in fields:
                    sym = vf.lie_bracket(A, B)
                    for x in pts[:5]:
                        num = numeric_bracket(A, B, x)
                        scale = 1.0 + np.max(np.abs(num))
                        assert np.max(np.abs(sym(x) - num)) <= 1e-6 * scale


def _poly_trig_component(dim):
    """Polynomial/trigonometric trees in x_0..x_{dim-1}: defined everywhere."""
    leaf = st.one_of(st.integers(-2, 2).map(lambda v: ex.Const(float(v))),
                     st.integers(0, dim - 1).map(ex.Var))

    def combine(s):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), s, s).map(lambda t: ex.Binary(*t)),
            st.tuples(st.sampled_from(["sin", "cos"]), s).map(lambda t: ex.Unary(*t)))

    return st.recursive(leaf, combine, max_leaves=6)


@st.composite
def _random_fields(draw, count):
    """`count` random fields of one dimension 2 or 3 and up to 5 points in [-1.5, 1.5]^dim."""
    dim = draw(st.integers(2, 3))
    comp = _poly_trig_component(dim)
    fields = [vf.VectorField(dim, tuple(draw(comp) for _ in range(dim))) for _ in range(count)]
    rows = draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=dim, max_size=dim),
                         min_size=1, max_size=5))
    return fields, np.array(rows)


@given(_random_fields(2))
@settings(max_examples=100, deadline=None)
def test_antisymmetry_on_random_fields(case):
    (U, V), P = case
    total = vf.lie_bracket(U, V).eval_batch(P) + vf.lie_bracket(V, U).eval_batch(P)
    assert np.max(np.abs(total)) <= 1e-12


@given(_random_fields(3))
@settings(max_examples=60, deadline=None)
def test_jacobi_identity_on_random_fields(case):
    # the terms stay below about 1e2 on these fields and points
    (U, V, W), P = case
    total = sum(vf.lie_bracket(A, vf.lie_bracket(B, C)).eval_batch(P)
                for A, B, C in ((U, V, W), (V, W, U), (W, U, V)))
    assert np.max(np.abs(total)) <= 1e-10


class TestMultiIndex:
    def test_lengths(self):
        assert vf.MultiIndex((1,)).length == 1
        assert vf.MultiIndex((1, 0)).length == 3
        assert vf.MultiIndex((1, 1, 1)).length == 3
        assert vf.MultiIndex((0, 1)).length == 3

    def test_extension_rule(self):
        a = vf.MultiIndex((1, 2, 0))
        assert a.extend(1).length == a.length + 1
        assert a.extend(0).length == a.length + 2

    def test_trivial_excluded(self):
        with pytest.raises(ValueError):
            vf.MultiIndex((0,))
        with pytest.raises(ValueError):
            vf.MultiIndex(())


class TestHierarchy:
    def test_level1_singletons(self, circles):
        tab = vf.build_hierarchy(circles.system.all_fields(), 1)
        assert [a.entries for a in tab.r_m()] == [(1,)]

    def test_level3_set(self):
        V0 = vf.make_field(2, ["sin(x)", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["0", "sin(x)"], ["x", "y"])
        tab = vf.build_hierarchy([V0, V1], 3)
        assert {a.entries for a in tab.r_m()} == {
            (1,), (1, 1), (1, 0), (0, 1), (1, 1, 1)
        }
        # [V1, V1] is the zero field
        assert tab.field(vf.MultiIndex((1, 1))).eval_batch(
            np.zeros((1, 2))).max() == 0.0

    def test_gbm_all_brackets_vanish(self, rng):
        V1 = vf.make_field(1, ["x"], ["x"])
        V0 = vf.make_field(1, ["-2*x"], ["x"])
        tab = vf.build_hierarchy([V0, V1], 3)
        pts = rng.uniform(-2, 2, size=(30, 1))
        for a in tab.indices():
            if a.entries == (1,):
                continue
            assert np.max(np.abs(tab.field(a).eval_batch(pts))) <= 1e-12

    def test_spot_check(self, rng, heisenberg):
        # every stored extension equals its explicit bracket with the last base field
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, tab.dim))
        for alpha in tab.indices():
            if len(alpha.entries) < 2:
                continue
            head = alpha.entries[:-1]
            parent = tab.drift if head == (0,) else tab.field(vf.MultiIndex(head))
            want = vf.lie_bracket(parent, tab.base_fields[alpha.entries[-1]]).eval_batch(pts)
            assert np.max(np.abs(tab.field(alpha).eval_batch(pts) - want)) <= 1e-9

    def test_cap(self, monkeypatch):
        V0 = vf.make_field(2, ["sin(x)", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["0", "sin(x)"], ["x", "y"])
        monkeypatch.setattr(vf, "DEFAULT_TABLE_CAP", 4)
        with pytest.raises(ValueError, match="entry cap"):
            vf.build_hierarchy([V0, V1], 3)

    def test_oversized_table_rejected_before_building(self):
        fields = catalog.get("sinfields").system.all_fields()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="6762 entries exceeds its entry cap"):
            vf.build_hierarchy(fields, 15)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name,levels", [("sinfields", range(1, 7)),
                                             ("ufg-heisenberg", range(1, 5))])
    def test_table_size_counts_the_built_table(self, name, levels):
        system = catalog.get(name).system
        for m in levels:
            tab = vf.build_hierarchy(system.all_fields(), m)
            assert len(tab.fields) == vf.table_size(system.d, m)

    @pytest.mark.parametrize("name,params,m,pairs", [("sinfields", {}, 8, 20),
                                                     ("ufg-heisenberg", {}, 2, 26),
                                                     ("grushin", {"k": -1.0}, 3, 10)])
    def test_each_distinct_bracket_built_once(self, monkeypatch, name, params, m, pairs):
        fields = catalog.get(name, params).system.all_fields()
        calls = []

        def counted(V, W):
            calls.append((V.components, next(i for i, B in enumerate(fields) if B is W)))
            return bracket(V, W)

        bracket = vf.lie_bracket
        monkeypatch.setattr(vf, "lie_bracket", counted)
        vf.build_hierarchy(fields, m)
        assert len(calls) == len(set(calls)) == pairs

    def test_requires_noise(self):
        V0 = vf.make_field(1, ["x"], ["x"])
        with pytest.raises(ValueError):
            vf.BracketTable([V0], 1)

    def test_canonical_order(self):
        V0 = vf.make_field(2, ["sin(x)", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["0", "sin(x)"], ["x", "y"])
        tab = vf.build_hierarchy([V0, V1], 3)
        keys = [vf.canonical_key(a) for a in tab.indices()]
        assert keys == sorted(keys)


class TestFrames:
    def test_circles_frame_columns(self, circles):
        tab = vf.build_hierarchy(circles.system.all_fields(), 1)
        F = tab.frame(tab.r_m(), [1.0, 0.0], checked=True)
        assert F.shape == (2, 1)
        assert np.allclose(F[:, 0], [1.0, 0.0])
        F0 = hc_frame(tab, [0.0, 0.0])
        assert np.max(np.abs(F0)) == 0.0

    def test_heisenberg_rank_two_on_plane(self, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        F = hc_frame(tab, [0.0, 1.0, 1.0])
        assert np.linalg.matrix_rank(F) == 2

    def test_batch_matches_single(self, rng, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        pts = sample_points(heisenberg, 7, rng)
        batch = hc_frame(tab, pts, checked=False)
        for i, x in enumerate(pts):
            single = hc_frame(tab, x)
            assert np.array_equal(batch[i], single)

    def test_domain_error_names_offending_index(self):
        V0 = vf.make_field(1, ["1"], ["x"])
        V1 = vf.make_field(1, ["log(x)"], ["x"])
        tab = vf.build_hierarchy([V0, V1], 1)
        with pytest.raises(ex.EvalDomainError, match=r"bracket \(1\)"):
            tab.frame(tab.r_m(), [-1.0], checked=True)

    @pytest.mark.parametrize("name", catalog.list_entries())
    def test_frame_is_the_stacked_field_values(self, name):
        # on the check grid of every catalog system at its level; indices in
        # canonical order, reversed, with repeats and one index alone
        entry = catalog.get(name)
        tab = vf.build_hierarchy(entry.system.all_fields(), entry.level)
        pts = SamplePlan(box=entry.sample_box, grid=6).sample(tab.dim)
        idx = tab.indices()
        for case in (idx, idx[::-1], idx + idx[::3], [idx[-1]] * 3):
            want = np.stack([tab.field(a).eval_batch(pts) for a in case], axis=-1)
            for checked in (False, True):
                assert np.array_equal(_bits(tab.frame(case, pts, checked)), _bits(want))
                assert np.array_equal(_bits(tab.frame(case, pts[0], checked)), _bits(want[0]))
                stacked = tab.frame(case, pts[:6].reshape(2, 3, tab.dim), checked)
                assert np.array_equal(_bits(stacked),
                                      _bits(want[:6].reshape(2, 3, tab.dim, len(case))))

    def test_checked_frame_names_the_first_failing_index(self):
        V0 = vf.make_field(1, ["1"], ["x"])
        V1 = vf.make_field(1, ["log(x)"], ["x"])
        tab = vf.build_hierarchy([V0, V1], 1)
        M = vf.MultiIndex
        # (1,1) vanishes, (0,1) is 1/x and fails at 0, (1,) is log(x) and fails at x <= 0
        idx = [M((1, 1)), M((0, 1)), M((1,)), M((0, 1))]
        with pytest.raises(ex.EvalDomainError,
                           match=r"^bracket \(1\): log of non-positive value -1\.0"):
            tab.frame(idx, [-1.0], checked=True)
        with pytest.raises(ex.EvalDomainError, match=r"^bracket \(0,1\): division by zero"):
            tab.frame(idx, [[1.0], [0.0]], checked=True)


def _kernel_cases(rng):
    """Fields with their bracket tables, at rows inside and outside their domains."""
    for name, params, m in (("ufg-heisenberg", None, 2), ("random-circles", None, 2),
                            ("sine-ou", {"k": 2.0}, 1), ("grushin", {"k": -1.0}, 2),
                            ("circle-line", None, 2)):
        entry = catalog.get(name, params)
        tab = vf.build_hierarchy(entry.system.all_fields(), m)
        pts = sample_points(entry, 12, rng)
        bad = np.full((4, entry.system.dim), 0.0)
        bad[1], bad[2], bad[3, 0] = -1.0, 1e200, np.nan
        yield tab, np.concatenate([pts, bad])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestKernels:
    def test_jacobian_batch_is_the_entrywise_walk(self, rng):
        for tab, pts in _kernel_cases(rng):
            for V in {*tab.fields.values(), *tab.base_fields}:
                want = np.empty(pts.shape + (V.dim,))
                for j in range(V.dim):
                    for i in range(V.dim):
                        want[:, j, i] = ref.evaluate_array(V.jacobian_exprs[j][i], pts)
                assert np.array_equal(_bits(V.jacobian_batch(pts)), _bits(want))
                grid = pts[:12].reshape(3, 4, V.dim)
                assert np.array_equal(_bits(V.jacobian_batch(grid)),
                                      _bits(want[:12].reshape(3, 4, V.dim, V.dim)))

    def test_eval_batch_is_the_checked_walk_on_finite_rows(self, rng):
        for tab, pts in _kernel_cases(rng):
            for V in {*tab.fields.values(), *tab.base_fields}:
                check = ref.WalkCheck(pts.shape[:-1])
                want = np.stack([check.evaluate(c, pts) for c in V.components], axis=-1)
                got = V.eval_batch(pts)
                kernel_check = ex.DomainCheck(pts.shape[:-1])
                assert np.array_equal(_bits(V._eval(pts, kernel_check)), _bits(want))
                assert np.array_equal(kernel_check.bad, check.bad)
                assert not check.bad[:12].any()
                assert np.array_equal(_bits(got[~check.bad]), _bits(want[~check.bad]))
                nonfinite = ~np.isfinite(got).all(axis=-1)
                assert np.array_equal(nonfinite, nonfinite & check.bad)

    def test_call_gives_dim_components_and_names_a_missing_coordinate(self):
        V = vf.make_field(2, ["y", "sin(x)"], ["x", "y"])
        assert np.array_equal(V([1.0, 2.0, 3.0]), V([1.0, 2.0]))
        with pytest.raises(ex.EvalDomainError, match="point has no coordinate 1"):
            V([1.0])

    def test_unchecked_frame_is_the_checked_frame(self, rng):
        for tab, pts in _kernel_cases(rng):
            pts = pts[:12]
            for idx in (tab.r_m(), tab.indices()[::-1]):
                assert np.array_equal(_bits(tab.frame(idx, pts)),
                                      _bits(tab.frame(idx, pts, checked=True)))
