import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgsim import expr as ex


def central_diff(e, p, i, scale=1e-6):
    h = scale * max(1.0, abs(p[i]))
    pp = list(p)
    pm = list(p)
    pp[i] += h
    pm[i] -= h
    return (ex.evaluate(e, pp) - ex.evaluate(e, pm)) / (2 * h)


class TestParse:
    def test_neg_sin(self):
        e = ex.parse_expression("-sin(x)", ["x"])
        assert e == ex.Unary("neg", ex.Unary("sin", ex.Var(0)))

    def test_mul_add(self):
        e = ex.parse_expression("x*y + 2", ["x", "y"])
        assert e == ex.Binary("add", ex.Binary("mul", ex.Var(0), ex.Var(1)), ex.Const(2.0))

    def test_invariant_density_parses(self):
        e = ex.parse_expression("exp(-1/(1-cos(z)))/(1-cos(z))", ["z"])
        # value at the interior maximum region
        assert ex.evaluate(e, [math.pi]) == pytest.approx(math.exp(-0.5) / 2.0)

    def test_precedence_and_parens(self):
        e = ex.parse_expression("1 + 2*3", ["x"])
        assert ex.evaluate(e, [0.0]) == 7.0
        e = ex.parse_expression("(1 + 2)*3", ["x"])
        assert ex.evaluate(e, [0.0]) == 9.0

    def test_integer_pow_expands(self):
        e = ex.parse_expression("x^3", ["x"])
        assert e == ex.Binary("mul", ex.Binary("mul", ex.Var(0), ex.Var(0)), ex.Var(0))
        e = ex.parse_expression("x^(-2)", ["x"])
        assert ex.evaluate(e, [2.0]) == 0.25
        # negative-base integer power works because of the expansion
        assert ex.evaluate(ex.parse_expression("x^3", ["x"]), [-2.0]) == -8.0

    def test_noninteger_pow_keeps_node(self):
        e = ex.parse_expression("x ^ 0.5", ["x"])
        assert isinstance(e, ex.Binary) and e.op == "pow"
        assert ex.evaluate(e, [4.0]) == 2.0

    def test_syntax_error_position(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse_expression("x + * y", ["x", "y"])
        assert err.value.position == 4
        assert err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError, match="unknown identifier 'q'"):
            ex.parse_expression("x + q", ["x"])

    def test_unknown_function(self):
        with pytest.raises(ex.ParseError, match="unknown function"):
            ex.parse_expression("foo(x)", ["x"])

    def test_empty_and_duplicate_names(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expression("   ", ["x"])
        with pytest.raises(ValueError):
            ex.parse_expression("x", ["x", "x"])

    def test_scientific_numbers(self):
        assert ex.evaluate(ex.parse_expression("2.5e-1", ["x"]), [0.0]) == 0.25
        assert ex.evaluate(ex.parse_expression("1e3", ["x"]), [0.0]) == 1000.0

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ex.ParseError, match="overflows") as err:
            ex.parse_expression("x + 1e400", ["x"])
        assert err.value.position == 4
        assert ex.parse_expression("1e-400", ["x"]) == ex.Const(0.0)


class TestEvaluate:
    def test_input_freed_on_return(self):
        # the walk must not hold its input in a reference cycle
        e = ex.parse_expression("sin(x) * y + x / y", ["x", "y"])
        gc.disable()
        try:
            for evaluate in (ex.evaluate_array, ex.DomainCheck((4,)).evaluate):
                pts = np.ones((4, 2))
                alive = weakref.ref(pts)
                evaluate(e, pts)
                del pts
                assert alive() is None
        finally:
            gc.enable()

    def test_constant(self):
        assert ex.evaluate(ex.Const(2.0), [5.0, 1.0]) == 2.0

    def test_sin_zero(self):
        assert ex.evaluate(ex.parse_expression("sin(x)", ["x"]), [0.0]) == 0.0

    def test_exp_inverse(self):
        e = ex.parse_expression("exp(-1/x)", ["x"])
        assert ex.evaluate(e, [1.0]) == pytest.approx(0.3678794411714423, abs=1e-12)

    def test_domain_errors_name_subtree(self):
        e = ex.parse_expression("log(x)", ["x"])
        with pytest.raises(ex.EvalDomainError, match="log"):
            ex.evaluate(e, [-1.0])
        e = ex.parse_expression("1/x", ["x"])
        with pytest.raises(ex.EvalDomainError, match="division by zero"):
            ex.evaluate(e, [0.0])
        e = ex.parse_expression("sqrt(x)", ["x"])
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(e, [-4.0])

    def test_overflow_reported(self):
        e = ex.parse_expression("exp(x)", ["x"])
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(e, [1e4])

    def test_array_evaluation_matches_scalar(self, rng):
        e = ex.parse_expression("sin(x)*exp(y) - x/(1+y*y)", ["x", "y"])
        pts = rng.uniform(-2, 2, size=(64, 2))
        vec = ex.evaluate_array(e, pts)
        for p, v in zip(pts, vec):
            assert ex.evaluate(e, p) == v

    @pytest.mark.parametrize("text,x", [("sin(x*x)", 1e200), ("tanh(x*x)", 1e200),
                                        ("x^1.5", 1e300)])
    def test_masked_and_raising_overflow_reported(self, text, x):
        with pytest.raises(ex.EvalDomainError, match="overflow"):
            ex.evaluate(ex.parse_expression(text, ["x"]), [x])

    def test_non_finite_coordinate_and_missing_coordinate(self):
        e = ex.parse_expression("tanh(x)", ["x", "y"])
        with pytest.raises(ex.EvalDomainError, match="non-finite coordinate"):
            ex.evaluate(e, [math.inf])
        with pytest.raises(ex.EvalDomainError, match="point has no coordinate 1"):
            ex.evaluate(ex.parse_expression("x + y", ["x", "y"]), [1.0])

    def test_domain_check_flags_rows(self):
        e = ex.parse_expression("log(x) + sqrt(y)", ["x", "y"])
        check = ex.DomainCheck((4,))
        vals = check.evaluate(e, [[1.0, 4.0], [-1.0, 4.0], [2.0, -1.0], [0.0, 1.0]])
        assert check.bad.tolist() == [False, True, True, True]
        assert vals[0] == 2.0
        # the first failing node in post-order, on its first failing row
        assert check.error.brief == "log of non-positive value -1.0"

    def test_constant_subtrees_never_raise_in_the_array_walk(self):
        for text in ("x + 1/0", "x*(-2)^0.5", "x + 10^400.5"):
            e = ex.parse_expression(text, ["x"])
            assert not np.isfinite(ex.evaluate_array(e, [[1.0]])[0])
            with pytest.raises(ex.EvalDomainError):
                ex.evaluate(e, [1.0])


class TestDifferentiate:
    def test_d_sin(self):
        d = ex.differentiate(ex.parse_expression("sin(x)", ["x"]), 0)
        assert d == ex.Unary("cos", ex.Var(0))

    def test_d_exp_inv(self):
        e = ex.parse_expression("exp(-1/x)", ["x"])
        d = ex.differentiate(e, 0)
        for x in (0.5, 1.0, 2.0):
            want = central_diff(e, [x], 0)
            got = ex.evaluate(d, [x])
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
            assert got == pytest.approx(math.exp(-1 / x) / x**2, rel=1e-12)

    def test_d_sinc(self):
        e = ex.parse_expression("sin(z)/z", ["z"])
        d = ex.differentiate(e, 0)
        for z in (0.7, 2.0, 4.5):
            want = (math.cos(z) * z - math.sin(z)) / z**2
            assert ex.evaluate(d, [z]) == pytest.approx(want, rel=1e-12)

    def test_finite_difference_property(self, rng):
        corpus = [
            ("sin(x)*cos(y)", 2, (-3, 3)),
            ("exp(-(x*x + y*y)/2)", 2, (-2, 2)),
            ("tanh(x) + sqrt(1 + y*y)", 2, (-2, 2)),
            ("log(2 + cos(x))", 1, (-3, 3)),
            ("x ^ 1.5", 1, (0.2, 3)),
            ("(1 - cos(x))*sin(x)", 1, (-3, 3)),
        ]
        for text, n, (lo, hi) in corpus:
            names = ["x", "y"][:n]
            e = ex.parse_expression(text, names)
            for i in range(n):
                d = ex.differentiate(e, i)
                pts = rng.uniform(lo, hi, size=(100, n))
                for p in pts:
                    val = ex.evaluate(d, p)
                    fd = central_diff(e, p, i)
                    assert abs(val - fd) <= 1e-6 * (1 + abs(val))


class TestSimplify:
    def test_zero_mul(self):
        e = ex.Binary("mul", ex.Const(0.0), ex.parse_expression("sin(x)", ["x"]))
        assert ex.simplify(e) == ex.ZERO

    def test_add_zero(self):
        e = ex.Binary("add", ex.Var(0), ex.Const(0.0))
        assert ex.simplify(e) == ex.Var(0)

    def test_structural_cancellation(self):
        sc = ex.parse_expression("sin(x)*cos(x)", ["x"])
        assert ex.simplify(ex.Binary("sub", sc, sc)) == ex.ZERO

    def test_double_negation(self):
        e = ex.Unary("neg", ex.Unary("neg", ex.Var(0)))
        assert ex.simplify(e) == ex.Var(0)

    def test_idempotent(self, rng):
        for text in ("0*x + sin(x) - sin(x)", "-(-(x))*1 + 0/x", "exp(0*x)*(x + 0)"):
            e = ex.parse_expression(text, ["x"])
            s1 = ex.simplify(e)
            assert ex.simplify(s1) == s1

    def test_semantics_preserved_bitwise(self, rng):
        corpus = [
            "sin(x)*1 + 0*cos(x)",
            "(x - 0) / 1 + exp(y)*1",
            "tanh(x*y) - 0",
        ]
        pts = rng.uniform(-2, 2, size=(100, 2))
        for text in corpus:
            e = ex.parse_expression(text, ["x", "y"])
            s = ex.simplify(e)
            for p in pts:
                assert ex.evaluate(e, p) == ex.evaluate(s, p)

    def test_folding_uses_the_array_walk(self):
        # libm and numpy tanh differ in the last ulp at this argument
        e = ex.parse_expression("tanh(0.5180628768869379)*x", ["x"])
        s = ex.simplify(e)
        assert s.left == ex.Const(float(np.tanh(0.5180628768869379)))
        assert ex.evaluate_array(s, [[1.0]])[0] == ex.evaluate_array(e, [[1.0]])[0]

    def test_no_folding_outside_the_domain(self):
        for text in ("log(0 - 1)", "sqrt(0 - 4)", "1/0", "(0 - 2)^0.5", "exp(1000)"):
            assert not isinstance(ex.simplify(ex.parse_expression(text, ["x"])), ex.Const)


class TestPrinter:
    def test_roundtrip_examples(self):
        for text in (
            "x*y + 2",
            "-sin(x)",
            "x ^ 0.5",
            "exp(-1/(1-cos(x)))/(1-cos(x))",
            "(x - y)/(x + 0.25)",
            "tanh(x) - sqrt(1 + y*y)",
        ):
            e = ex.simplify(ex.parse_expression(text, ["x", "y"]))
            printed = ex.to_string(e, ["x", "y"])
            assert ex.parse_expression(printed, ["x", "y"]) == e

    def test_negative_constants_roundtrip(self):
        e = ex.simplify(ex.parse_expression("x ^ (-0.5) - 2.5", ["x"]))
        printed = ex.to_string(e, ["x"])
        assert ex.parse_expression(printed, ["x"]) == e


_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(lambda v: ex.Const(round(v, 3))),
    st.integers(min_value=0, max_value=1).map(ex.Var),
)


def _combine(children):
    builders = [
        lambda a, b: ex.Binary("add", a, b),
        lambda a, b: ex.Binary("sub", a, b),
        lambda a, b: ex.Binary("mul", a, b),
        lambda a, b: ex.Binary("div", a, b),
        lambda a, b: ex.Unary("neg", a),
        lambda a, b: ex.Unary("sin", a),
        lambda a, b: ex.Unary("exp", a),
        lambda a, b: ex.Unary("tanh", a),
        lambda a, b: ex.Unary("log", a),
        lambda a, b: ex.Unary("sqrt", a),
        lambda a, b: ex.Binary("pow", a, ex.Const(0.5)),
        lambda a, b: ex.Binary("pow", a, ex.Const(-1.5)),
    ]
    return st.tuples(st.sampled_from(builders), *children).map(lambda t: t[0](t[1], t[2]))


_expr_strategy = st.recursive(_leaf, lambda s: _combine([s, s]), max_leaves=12)


@given(_expr_strategy)
@settings(max_examples=200, deadline=None)
def test_print_parse_is_simplify_normal_form(e):
    s = ex.simplify(e)
    printed = ex.to_string(s, ["x", "y"])
    assert ex.parse_expression(printed, ["x", "y"]) == s


_coordinate = st.one_of(st.floats(min_value=-4, max_value=4),
                        st.sampled_from([0.0, -1e200, 1e200, 1e300]))
_point_rows = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6)


def _bits(v):
    return np.float64(v).tobytes()


@given(_expr_strategy, _point_rows)
@settings(max_examples=300, deadline=None)
def test_evaluate_is_the_array_walk_on_one_row(e, rows):
    P = np.array(rows)
    check = ex.DomainCheck((len(P),))
    check.evaluate(e, P)
    for p, bad in zip(P, check.bad):
        try:
            v = ex.evaluate(e, p)
        except ex.EvalDomainError:
            assert bad
            continue
        assert not bad
        assert _bits(v) == _bits(ex.evaluate_array(e, p[None])[0])


@given(_expr_strategy, _point_rows)
@settings(max_examples=300, deadline=None)
def test_simplify_keeps_values_where_defined(e, rows):
    P = np.array(rows)
    check = ex.DomainCheck((len(P),))
    check.evaluate(e, P)
    want = ex.evaluate_array(e, P)[~check.bad]
    got = ex.evaluate_array(ex.simplify(e), P)[~check.bad]
    # IEEE equality of finite values is equality to the bit except for the
    # sign of a zero, which the 0/1 absorption rules may flip (0*x is -0.0
    # for x < 0, simplified to 0.0)
    assert np.array_equal(got, want)
