import gc
import hashlib
import math
import operator
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgsim import catalog, diagnostics as dg, dynamics as dyn, expr as ex
from ufgsim import fields as vf, geometry as geo
import reference_parse as ref_parse
import reference_walk as ref


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

    def test_non_ascii_digit_after_a_number_is_a_parse_error(self):
        # str.isdigit holds for "²", which float() rejects: the reference
        # parser took it into the number and raised float's ValueError
        with pytest.raises(ValueError, match="could not convert"):
            ref_parse.parse_expression("1²", ["x"])
        for text, position in (("1²", 1), ("1.²", 2), ("x + 2e²", 5)):
            with pytest.raises(ex.ParseError, match="trailing input") as err:
                ex.parse_expression(text, ["x"])
            assert err.value.position == position

    @pytest.mark.parametrize("opening", ["(", "sin(", " sqrt ( "],
                             ids=["paren", "call", "spaced-call"])
    def test_nests_to_the_cap_and_no_deeper(self, opening):
        def nest(depth):
            return opening * depth + "x" + ")" * depth

        def parse_under(frames, text):  # the parse from `frames` calls deep
            return ex.parse_expression(text, ["x"]) if frames == 0 else \
                parse_under(frames - 1, text)

        # four parser frames a level leave room for a caller's stack
        e = parse_under(400, nest(ex.MAX_NESTING))
        assert ex.max_variable_index(e) == 0
        with pytest.raises(ex.ParseError, match="nesting deeper") as err:
            ex.parse_expression(nest(ex.MAX_NESTING + 1), ["x"])
        assert err.value.position == len(opening) * ex.MAX_NESTING + opening.index("(")


# tokens whose joins cover numbers with and without fraction or exponent
# ("1e", "1.", "1e+"), doubled and dangling operators ("**", "^-"),
# unbalanced parentheses, unknown names and functions, and extra whitespace
_PARSE_TOKENS = ["1", "2.5", "07", "1e", "1.", "1e-3", "3E+2", "1.e5", "1e+", "1e400",
                 "1e-400", "65", "x", "y", "z", "q", "_a1", "x1", "e", "sin", "cos(", "exp(",
                 "foo(", "sqrt", "+", "-", "*", "/", "^", "**", "^-", "^2", "^0.5", "^x",
                 "^100", "(", ")", ",", ".", " ", "  ", "\t", "\n", "\u00a0"]


def _parse_outcome(parse, text):
    try:
        return parse(text, ["x", "y", "z"])
    except ex.ParseError as err:
        return (str(err), err.position, err.expected)


@given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=12).map("".join))
@settings(max_examples=2000, deadline=None)
def test_parser_matches_the_reference_parser(text):
    assert _parse_outcome(ex.parse_expression, text) == \
        _parse_outcome(ref_parse.parse_expression, text)


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
        assert ref.evaluate_array(s, [[1.0]])[0] == ref.evaluate_array(e, [[1.0]])[0]

    def test_no_folding_outside_the_domain(self):
        for text in ("log(0 - 1)", "sqrt(0 - 4)", "1/0", "(0 - 2)^0.5", "exp(1000)"):
            assert not isinstance(ex.simplify(ex.parse_expression(text, ["x"])), ex.Const)


class TestOperators:
    def test_each_operator_builds_its_node(self):
        a, b = ex.Var(0), ex.Const(-0.0)
        cases = [(a + b, ex.Binary("add", a, b)), (a - b, ex.Binary("sub", a, b)),
                 (a * b, ex.Binary("mul", a, b)), (a / b, ex.Binary("div", a, b)),
                 (-a, ex.Unary("neg", a))]
        for got, want in cases:
            assert got == want and ex.to_string(got) == ex.to_string(want)

    def test_sum_folds_left_from_its_start(self):
        t0, t1 = ex.Var(0), ex.Var(1)
        assert sum([t0, t1], ex.ZERO) == ex.Binary("add", ex.Binary("add", ex.ZERO, t0), t1)

    @pytest.mark.parametrize("build", [
        lambda: ex.Var(0) + 1.0,
        lambda: 2.0 * ex.Var(0),
        lambda: ex.Var(0) * np.float64(2),
        lambda: np.float64(2) * ex.Var(0),
        lambda: sum([ex.Var(0)]),  # the start is the int 0
    ])
    def test_an_operand_that_is_not_an_expr_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()


def _built_trees():
    """The printed bracket tables (levels 1-4), OAC2 coefficients (level 3),
    generator and Fokker-Planck operators of every catalog system, and the
    source of each of its RK4 and Heun kernels."""
    out = []
    for name in catalog.list_entries():
        entry = catalog.get(name)
        system = entry.system
        out += [ex.to_string(c) for V in system.all_fields() for c in V.components]
        for m in range(1, 5):
            tab = vf.build_hierarchy(system.all_fields(), m)
            for a in tab.indices():
                out += [repr(a)] + [ex.to_string(c) for c in tab.field(a).components]
        alphas = [a for a in tab.indices(3) if len(a.entries) >= 2]  # check_oac2 at level 3
        for a in alphas:
            for b in alphas:
                if a != b:
                    S, w = geo._second_order_coefficients(tab.field(a), tab.field(b))
                    S2, w2 = geo._commutator_with_field(S, w, tab.drift)
                    out += [ex.to_string(c) for c in [*sum(S, []), *w, *sum(S2, []), *w2]]
        names = [f"x{i + 1}" for i in range(system.dim)]
        phi = ex.parse_expression(" + ".join(f"{v}^2" for v in names), names)
        out.append(ex.to_string(geo.generator_apply(system, phi)))
        if system.dim == 1 and system.d == 1:
            for rho in (catalog.stationary_density_expr(),
                        ex.parse_expression("exp(-z^2)", ["z"])):
                out.append(ex.to_string(dg.stationary_fp_operator(system, rho)))
        fields = list(system.all_fields())
        if isinstance(entry.v0perp, vf.VectorField):
            fields.append(entry.v0perp)
        for V in fields:
            out += [dyn._compile_rk4_step(V, jac).source for jac in (False, True)]
        out += [dyn._compile_heun_step(system, lin).source for lin in (False, True)]
    return out


def test_built_trees_are_pinned():
    # printed text and kernel source, not ==, which takes Const(-0.0) for Const(0.0)
    digest = hashlib.sha256("\n".join(_built_trees()).encode()).hexdigest()
    assert digest == "846daffca02b16652ddaa953336323b548aa03d51bd7b01f48495333c66a292c"


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
    check = ref.WalkCheck((len(P),))
    check.evaluate(e, P)
    for p, bad in zip(P, check.bad):
        try:
            v = ex.evaluate(e, p)
        except ex.EvalDomainError:
            assert bad
            continue
        assert not bad
        assert _bits(v) == _bits(ref.evaluate_array(e, p[None])[0])


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


def _same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _kernel_values(exprs, P):
    out = np.empty(P.shape[:-1] + (len(exprs),))
    ex.compile_exprs(exprs, (len(exprs),))(P, out)
    return out


@given(st.lists(_expr_strategy, min_size=1, max_size=3), _point_rows)
@settings(max_examples=300, deadline=None)
def test_compiled_kernel_is_the_walk_to_the_bit(exprs, rows):
    # one kernel over several trees, the last of which shares two of them
    # whole; the rows reach overflow, log/sqrt of negatives and 0 divisors
    exprs = [*exprs, ex.Binary("sub", ex.Unary("exp", exprs[0]), exprs[-1])]
    P = np.array(rows)
    got = _kernel_values(exprs, P)
    for n, e in enumerate(exprs):
        assert _same_bits(got[:, n], ref.evaluate_array(e, P)), ex.to_string(e)


class TestCompile:
    def test_shared_subtrees_computed_once_and_released(self):
        s = ex.parse_expression("sin(x*y)", ["x", "y"])
        exprs = [ex.Binary("add", s, ex.Binary("mul", s, s)), ex.Unary("exp", s), s]
        kernel = ex.compile_exprs(exprs, (3,))
        assert kernel.source.count("sin(") == 1
        assert kernel.source.count("mul(") == 2  # x*y and s*s
        assigned = {line.split(" = ")[0].strip() for line in kernel.source.splitlines()
                    if line.strip().startswith("t")}
        deleted = {line.split()[1] for line in kernel.source.splitlines()
                   if line.strip().startswith("del ")}
        assert assigned == deleted
        P = np.array([[0.5, 2.0], [-1.0, 3.0], [1e300, 1e300]])
        got = _kernel_values(exprs, P)
        for n, e in enumerate(exprs):
            assert _same_bits(got[:, n], ref.evaluate_array(e, P))

    def test_bare_leaves_fill_every_row(self):
        exprs = [ex.Const(2.5), ex.Var(1), ex.Var(0)]
        P = np.arange(12.0).reshape(2, 3, 2)
        got = _kernel_values(exprs, P)
        assert np.array_equal(got[..., 0], np.full((2, 3), 2.5))
        assert np.array_equal(got[..., 1], P[..., 1])
        assert np.array_equal(got[..., 2], P[..., 0])

    def test_signed_zero_and_non_finite_constants(self):
        consts = [ex.Const(v) for v in (-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan)]
        x = ex.Var(0)
        exprs = [*consts, *(ex.Binary("mul", c, x) for c in consts),
                 *(ex.Binary("add", x, c) for c in consts), ex.Unary("exp", consts[2])]
        P = np.array([[-2.0], [0.0], [3.0], [np.nan], [-np.inf]])
        got = _kernel_values(exprs, P)
        for n, e in enumerate(exprs):
            assert _same_bits(got[:, n], ref.evaluate_array(e, P)), ex.to_string(e)
        assert np.signbit(got[:, 0]).all() and not np.signbit(got[:, 1]).any()
        assert np.signbit(got[:, 5]).all() and np.isnan(got[:, 5]).all()

    def test_only_table_operators_are_emitted(self):
        with pytest.raises(ValueError, match="unknown operator"):
            ex.compile_exprs([ex.Unary("print", ex.Var(0))], (1,))
        with pytest.raises(TypeError):
            ex.compile_exprs([ex.Var("0]; X[0")], (1,))
        with pytest.raises(TypeError):
            ex.compile_exprs(["x"], (1,))

    def test_expression_count_must_fill_the_target(self):
        with pytest.raises(ValueError, match="2 expressions"):
            ex.compile_exprs([ex.ONE, ex.ZERO], (3,))


# five times Python's default recursion limit: every pass must walk without recursion
DEEP = 5000


def _compiled_values(e, P):
    """e's unchecked and checked kernels at the rows P, each checked clean."""
    plain, checked = np.empty(len(P)), np.empty(len(P))
    ex.compile_exprs([e], ())(P, plain)
    check = ex.DomainCheck((len(P),))
    ex.compile_exprs([e], (), check=True)(P, checked, check)
    assert check.error is None
    return plain, checked


class TestDeepTrees:
    P = np.array([[0.5, 7.0], [2.0, -1.0]])

    def test_long_sum(self):
        x = ex.Var(0)
        e = sum([x] * DEEP, ex.ZERO)  # ((0 + x) + x) + ...: DEEP levels
        for values in _compiled_values(e, self.P):
            assert np.array_equal(values, DEEP * self.P[:, 0])
        assert ex.evaluate(e, [0.5]) == DEEP / 2
        assert ex.differentiate(e, 0) == ex.Const(float(DEEP))
        assert ex.differentiate(e, 1) == ex.ZERO
        assert ex.to_string(e) == "(" * DEEP + "0.0" + " + x1)" * DEEP
        # 0 + x -> x; the other additions stay
        s = ex.simplify(e)
        assert ex.to_string(s) == "(" * (DEEP - 1) + "x1" + " + x1)" * (DEEP - 1)
        assert ex.evaluate(s, [0.5]) == DEEP / 2
        (t,) = ex.substitute([e], [ex.Const(2.0)])
        assert ex.max_variable_index(t) == -1 and ex.min_variable_index(t) == math.inf
        assert ex.simplify(t) == ex.Const(2.0 * DEEP)
        assert ex.max_variable_index(e) == ex.min_variable_index(e) == 0

    def test_negation_chain(self):
        x = ex.Var(1)
        e = x
        for _ in range(DEEP):
            e = -e
        sign = (-1) ** DEEP
        for values in _compiled_values(e, self.P):
            assert np.array_equal(values, sign * self.P[:, 1])
        assert ex.evaluate(e, [0.5, 7.0]) == sign * 7.0
        assert ex.to_string(e, ["x", "y"]) == "(-" * DEEP + "y" + ")" * DEEP
        assert ex.simplify(e) == (x if sign > 0 else -x)
        d = ex.differentiate(e, 1)  # -(-(...1)): a negation is not simplified
        assert ex.to_string(d) == "(-" * DEEP + "1.0" + ")" * DEEP
        assert ex.simplify(d) == ex.Const(float(sign))
        assert ex.simplify(ex.differentiate(e, 0)) == ex.ZERO
        (t,) = ex.substitute([e], [ex.ZERO, ex.Const(3.0)])
        assert ex.evaluate(t, []) == sign * 3.0
        assert ex.max_variable_index(e) == ex.min_variable_index(e) == 1

    def test_sine_chain(self):
        e = ex.Var(0)
        for _ in range(DEEP):
            e = ex.Unary("sin", e)
        # s_0 = x, s_k = sin(s_(k-1)); e = s_DEEP and de/dx = prod cos(s_k), k < DEEP
        want_value, want_slope = [], []
        for x in self.P[:, 0]:
            s, slope = float(x), 1.0
            for _ in range(DEEP):
                s, slope = math.sin(s), slope * math.cos(s)
            want_value.append(s)
            want_slope.append(slope)
        for values in _compiled_values(e, self.P):
            np.testing.assert_allclose(values, want_value, rtol=1e-12)
        d = ex.differentiate(e, 0)
        for values in _compiled_values(d, self.P):
            np.testing.assert_allclose(values, want_slope, rtol=1e-9)
        assert ex.evaluate(d, [0.5]) == pytest.approx(want_slope[0], rel=1e-9)
        text = "sin(" * DEEP + "x1" + ")" * DEEP
        assert ex.to_string(e) == ex.to_string(ex.simplify(e)) == text
        (t,) = ex.substitute([e], [ex.Var(1)])
        assert ex.to_string(t, ["x", "y"]) == text.replace("x1", "y")
        assert ex.max_variable_index(t) == ex.min_variable_index(t) == 1


def test_each_distinct_node_is_visited_once(monkeypatch):
    # e = x^(2^16) as e = e * e: 17 distinct nodes, 2^17 - 1 nodes as a tree
    x = ex.Var(0)
    e = x
    for _ in range(16):
        e = e * e
    budget = 20 * 17
    work = [0]

    def counted(fn):
        def wrapper(*args):
            work[0] += 1
            if work[0] > budget:
                raise AssertionError(f"more than {budget} node visits or builds")
            return fn(*args)
        return wrapper

    # per-node work: a node's children looked up, or a node built (or found interned)
    monkeypatch.setattr(ex, "_children", counted(ex._children))
    for cls in (ex.Unary, ex.Binary):
        monkeypatch.setattr(cls, "__new__", counted(cls.__new__))
    passes = [
        lambda: ex.max_variable_index(e),
        lambda: ex.min_variable_index(e),
        lambda: ex.substitute([e, e], [ex.Const(1.0)]),
        lambda: ex.simplify(e),
        lambda: ex.differentiate(e, 0),
        lambda: ex.compile_exprs([e, e], (2,)),
        lambda: ex.compile_exprs([e], (), check=True),
    ]
    for run in passes:
        work[0] = 0
        run()


class TestInterning:
    """Building a node equal to a live one returns that node (the module notes)."""

    def test_equal_trees_are_one_object(self):
        names = ["x", "y", "w"]
        x, y = ex.Var(0), ex.Var(1)
        built = ex.Unary("sin", x) * y + ex.Const(2.0)
        assert ex.parse_expression("sin(x)*y + 2", names) is built
        assert ex.Binary("add", ex.Binary("mul", ex.Unary("sin", x), y), ex.Const(2)) is built
        (swapped,) = ex.substitute([ex.parse_expression("sin(y)*x + 2", names)], [y, x])
        assert swapped is built
        assert ex.differentiate(ex.parse_expression("(sin(x)*y + 2)*w", names), 2) is built

    def test_a_constant_is_keyed_on_its_bytes(self):
        assert ex.Const(0.0) is ex.ZERO and ex.Const(-0.0) is not ex.ZERO
        assert ex.Const(-0.0) != ex.ZERO and ex.Const(-0.0) is ex.Const(-0.0)
        nan1, nan2 = (struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | p))[0]
                      for p in (1, 2))
        assert ex.Const(nan1) is ex.Const(nan1) and ex.Const(nan1) is not ex.Const(nan2)
        assert type(ex.Const(2).value) is float

    def test_setting_a_field_raises(self):
        e = ex.parse_expression("x + 1", ["x"])
        for node, field in ((e, "op"), (e.left, "index"), (e.right, "value")):
            with pytest.raises(AttributeError):
                setattr(node, field, getattr(node, field))
            with pytest.raises(AttributeError):
                delattr(node, field)
        assert ex.to_string(e) == "(x1 + 1.0)"

    def test_the_node_table_holds_only_live_trees(self):
        gc.collect()
        start = len(ex._NODES)
        table = vf.build_hierarchy(catalog.get("sinfields").system.all_fields(), 8)
        assert len(ex._NODES) > start + 100
        del table
        gc.collect()
        assert len(ex._NODES) == start


_wide_leaf = st.one_of(
    _leaf,
    st.integers(min_value=0, max_value=2).map(ex.Var),
    st.sampled_from([math.inf, -math.inf, math.nan]).map(ex.Const),
)
_wide_expr = st.recursive(_wide_leaf, lambda s: _combine([s, s]), max_leaves=12)
_wide_coordinate = st.one_of(_coordinate, st.sampled_from([math.inf, -math.inf, math.nan]))
_wide_rows = st.integers(min_value=1, max_value=3).flatmap(
    lambda w: st.lists(st.lists(_wide_coordinate, min_size=w, max_size=w), min_size=1, max_size=6))


@given(st.lists(_wide_expr, min_size=1, max_size=3), _wide_rows)
@settings(max_examples=300, deadline=None)
def test_checked_kernel_is_the_checked_walk(exprs, rows):
    # trees over x1..x3 at points of width 1-3, so coordinates go missing; the
    # walk checks the trees one after another under one check
    exprs = [*exprs, ex.Binary("sub", ex.Unary("exp", exprs[0]), exprs[-1])]
    P = np.array(rows)
    walk = ref.WalkCheck((len(P),))
    want = [walk.evaluate(e, P) for e in exprs]
    check = ex.DomainCheck((len(P),))
    got = np.empty((len(P), len(exprs)))
    ex.compile_exprs(exprs, (len(exprs),), check=True)(P, got, check)
    for n, e in enumerate(exprs):
        assert _same_bits(got[:, n], want[n]), ex.to_string(e)
    assert np.array_equal(check.bad, walk.bad)
    assert (check.error is None) == (walk.error is None)
    if walk.error is not None:
        assert check.error.brief == walk.error.brief
        assert check.error.subtree == walk.error.subtree


@given(_wide_expr)
@settings(max_examples=300, deadline=None)
def test_simplify_folds_as_the_walk(e):
    assert ex.to_string(ex.simplify(e)) == ex.to_string(ref.simplify(e))


def test_evaluate_rejects_a_point_that_is_not_1d():
    log_x = ex.parse_expression("log(x)", ["x"])
    for point in (2.0, -1.0, [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError, match="1-D"):
            ex.evaluate(log_x, point)


_finite_rows = st.lists(st.tuples(st.floats(min_value=-4, max_value=4),
                                  st.floats(min_value=-4, max_value=4)), min_size=1, max_size=4)


def _defined_rows(e, *point_sets):
    """Rows on which the walk's domain check passes for e at every point set."""
    check = ref.WalkCheck((len(point_sets[0]),))
    for P in point_sets:
        check.evaluate(e, P)
    return ~check.bad


def _denominators(e):
    match e:
        case ex.Binary(op="div", left=l, right=r):
            return [r, *_denominators(l), *_denominators(r)]
        case ex.Binary(left=l, right=r):
            return _denominators(l) + _denominators(r)
        case ex.Unary(child=c):
            return _denominators(c)
    return []


@given(_expr_strategy, _finite_rows, st.integers(min_value=0, max_value=1))
@settings(max_examples=300, deadline=None)
def test_differentiate_matches_central_differences(e, rows, i):
    # fd - d is the mean of d(x + t) - d(x) over |t| <= h, so it is bounded by
    # the variation of d over the stencil, seen at its ends, plus rounding
    d = ex.differentiate(e, i)
    P = np.array(rows)
    h = 1e-5 * np.maximum(1.0, np.abs(P[:, i]))
    step = np.zeros_like(P)
    step[:, i] = h
    ok = _defined_rows(e, P + step, P - step) & _defined_rows(d, P, P + step, P - step)
    for q in _denominators(e) + _denominators(d):  # a pole between the stencil's points
        signs = [np.sign(ref.evaluate_array(q, Q)) for Q in (P - step, P, P + step)]
        ok &= (signs[0] == signs[1]) & (signs[1] == signs[2])
    f_plus, f_minus = ref.evaluate_array(e, P + step)[ok], ref.evaluate_array(e, P - step)[ok]
    want = ref.evaluate_array(d, P)[ok]
    with np.errstate(over="ignore"):  # an overflowing difference meets an infinite allowance
        fd = (f_plus - f_minus) / (2 * h[ok])
        variation = np.maximum(np.abs(ref.evaluate_array(d, P + step)[ok] - want),
                               np.abs(ref.evaluate_array(d, P - step)[ok] - want))
        rounding = 1e-10 * (np.abs(want) + (np.abs(f_plus) + np.abs(f_minus)) / h[ok]) + 1e-300
        # a stencil over which d varies much may straddle a pole: not compared
        smooth = variation <= 1e-2 * (1.0 + np.abs(want))
        assert np.all((np.abs(fd - want) <= variation + rounding)[smooth]), ex.to_string(e)


def _sympy(e, sp, xs):
    match e:
        case ex.Const(value=v):
            return sp.Float(v, 30)  # the double exactly
        case ex.Var(index=i):
            return xs[i]
        case ex.Unary(op="neg", child=c):
            return -_sympy(c, sp, xs)
        case ex.Unary(op=op, child=c):
            return getattr(sp, op)(_sympy(c, sp, xs))
        case ex.Binary(op=op, left=l, right=r):
            a, b = _sympy(l, sp, xs), _sympy(r, sp, xs)
            return {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                    "div": operator.truediv, "pow": operator.pow}[op](a, b)


def test_differentiate_matches_sympy():
    sp = pytest.importorskip("sympy")
    xs = sp.symbols("x1 x2")

    @given(_expr_strategy, _finite_rows, st.integers(min_value=0, max_value=1))
    @settings(max_examples=300, deadline=None)
    def check(e, rows, i):
        # both derivatives evaluated at 30 digits at the point: they differ only by
        # the rounding of the constants differentiate folds
        d = ex.differentiate(e, i)
        P = np.array(rows)
        P = P[_defined_rows(e, P) & _defined_rows(d, P)]
        if not len(P):  # nothing to compare, and sympy raises on a constant 1/0
            return
        theirs = sp.diff(_sympy(e, sp, xs), xs[i])
        ours = _sympy(d, sp, xs)
        for p in P:
            at = {x: sp.Float(v, 30) for x, v in zip(xs, p)}
            want = complex(theirs.xreplace(at).evalf(30))
            got = complex(ours.xreplace(at).evalf(30))
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), ex.to_string(e)

    check()
