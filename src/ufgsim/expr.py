"""Scalar symbolic expressions: parsing, differentiation, evaluation, simplification.

Expressions are immutable trees over a fixed, small grammar:

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := ("-")? power ;
    power  := atom ("^" atom)? ;
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Recognized one-argument functions: sin, cos, exp, log, sqrt, tanh.
NUMBER is a decimal literal with an optional exponent part; whitespace is
insignificant.  Variables are resolved positionally against the ordered
identifier list supplied to :func:`parse_expression`.

Design notes:

* ``a ^ n`` with an integer exponent ``n`` is expanded to repeated
  multiplication at construction time (``x^3 -> x*x*x``, ``x^-2 ->
  1/(x*x)``), so pow nodes only ever carry non-integer constant exponents
  and are defined only for positive bases.
* One evaluation walk serves every caller.  ``evaluate_array`` runs it over
  rows of points and lets nan/inf through; ``DomainCheck.evaluate`` runs it
  under the domain check, and ``evaluate`` is that check on one row.  The
  domain rule: a row fails when any subexpression value on it is non-finite,
  when a pow base on it is <= 0, or when the point lacks a coordinate the
  expression uses; the error names the first failing node in post-order.
* Simplification is structural only: constant folding, 0/1 absorption,
  double-negation removal and cancellation of structurally identical
  subtrahends.  No distribution, no term reordering.  A constant node is
  folded by the same walk and left unfolded when it fails the domain check,
  so simplification keeps every value on the expression's domain to the bit.
* The canonical printer emits fully parenthesized text; parsing the printed
  form of a simplified expression reproduces it node for node.

Trees are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_MAX_INT_EXPONENT = 64


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = tuple(expected) if expected else ()
        detail = f"{message} (at position {position}"
        if self.expected:
            detail += ", expected " + " or ".join(self.expected)
        detail += ")"
        super().__init__(detail)


class EvalDomainError(ExprError):
    """Evaluation left the domain (log/sqrt of a negative, division by zero, overflow)."""

    def __init__(self, message, subtree):
        self.subtree = subtree
        self.brief = message
        super().__init__(f"{message} in subexpression {to_string(subtree)}")


class Expr:
    """Base node; concrete nodes are Const, Var, Unary and Binary."""

    __slots__ = ()

    def __call__(self, point):
        return evaluate(self, point)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    child: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def const(v):
    return Const(float(v))


def var(i):
    if i < 0:
        raise ValueError("variable index must be non-negative")
    return Var(int(i))


def _expand_int_pow(base, n):
    """Expand base**n, n integer, into multiplication (and one division if n<0)."""
    if n == 0:
        return ONE
    if n < 0:
        return Binary("div", ONE, _expand_int_pow(base, -n))
    out = base
    for _ in range(n - 1):
        out = Binary("mul", out, base)
    return out


def pow_expr(base, exponent):
    """Power node constructor.

    The exponent must be a constant.  Integer exponents (up to |n| = 64) are
    expanded into repeated multiplication so differentiation and evaluation
    stay exact on any base; non-integer exponents produce a pow node that is
    only defined for positive bases.
    """
    if not isinstance(exponent, Const):
        raise ValueError("pow exponent must be a constant")
    e = exponent.value
    if float(e).is_integer():
        n = int(e)
        if abs(n) > _MAX_INT_EXPONENT:
            raise ValueError(f"integer exponent {n} exceeds the expansion cap {_MAX_INT_EXPONENT}")
        return _expand_int_pow(base, n)
    return Binary("pow", base, exponent)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUMBER_START = set("0123456789")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_START | _NUMBER_START


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch, expected):
        if not self.take(ch):
            raise ParseError("unexpected input", self.pos, expected)

    def number(self):
        start = self.pos
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and t[self.pos] == ".":
            self.pos += 1
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        value = float(t[start:self.pos])
        if math.isinf(value):
            raise ParseError(f"number {t[start:self.pos]} overflows a double", start)
        return value

    def ident(self):
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos] in _IDENT_BODY:
            self.pos += 1
        return t[start:self.pos]


class _Parser:
    def __init__(self, text, variable_names):
        self.sc = _Scanner(text)
        self.vars = {name: i for i, name in enumerate(variable_names)}

    def parse(self):
        e = self.expr()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ParseError("trailing input", self.sc.pos, ["end of input", "operator"])
        return e

    def expr(self):
        e = self.term()
        while True:
            if self.sc.take("+"):
                e = Binary("add", e, self.term())
            elif self.sc.take("-"):
                e = Binary("sub", e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            if self.sc.take("*"):
                e = Binary("mul", e, self.factor())
            elif self.sc.take("/"):
                e = Binary("div", e, self.factor())
            else:
                return e

    def factor(self):
        if self.sc.take("-"):
            inner = self.power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.sc.take("^"):
            pos = self.sc.pos
            exponent = self.atom()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a numeric constant", pos, ["NUMBER"])
            try:
                return pow_expr(base, exponent)
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        return base

    def atom(self):
        ch = self.sc.peek()
        pos = self.sc.pos
        if ch == "(":
            self.sc.take("(")
            e = self.expr()
            self.sc.expect(")", [")"])
            return e
        if ch in _NUMBER_START:
            return Const(self.sc.number())
        if ch in _IDENT_START:
            name = self.sc.ident()
            if self.sc.take("("):
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", pos, FUNCTIONS)
                arg = self.expr()
                self.sc.expect(")", [")"])
                return Unary(name, arg)
            if name in self.vars:
                return Var(self.vars[name])
            raise ParseError(f"unknown identifier '{name}'", pos, sorted(self.vars))
        raise ParseError("unexpected input", pos, ["NUMBER", "IDENT", "("])


def parse_expression(text, variable_names):
    """Parse ``text`` against the ordered variable list and return an Expr."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, ["NUMBER", "IDENT", "("])
    names = list(variable_names)
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def to_string(e, variable_names=None):
    """Canonical fully parenthesized text form; round-trips through the parser."""

    def name(i):
        if variable_names is not None:
            return variable_names[i]
        return f"x{i + 1}"

    def go(node):
        match node:
            case Const(value=v):
                negative = math.copysign(1.0, v) < 0 and math.isfinite(v)  # -0.0 too
                return f"(-{repr(-v)})" if negative else repr(v)
            case Var(index=i):
                return name(i)
            case Unary(op="neg", child=c):
                return f"(-{go(c)})"
            case Unary(op=op, child=c):
                return f"{op}({go(c)})"
            case Binary(op="pow", left=l, right=r):
                return f"({go(l)} ^ {go(r)})"
            case Binary(op=op, left=l, right=r):
                return f"({go(l)} {_BINARY_SYMBOL[op]} {go(r)})"
        raise TypeError(f"not an Expr node: {node!r}")

    return go(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class DomainCheck:
    """The domain check (module notes) of evaluation walks over rows of shape `shape`.

    `bad` flags the rows that failed in any walk made under this check;
    `error` is the EvalDomainError for the first failing node, or None.
    """

    def __init__(self, shape):
        self.bad = np.zeros(shape, dtype=bool)
        self.error = None

    def evaluate(self, e, points):
        """``evaluate_array(e, points)``, recording the rows that fail the check."""
        return _evaluate(e, points, self)

    def _visit(self, node, out, args):
        ok = np.isfinite(out)
        if type(node) is Binary and node.op == "pow":
            ok &= args[0] > 0.0
        if not ok.all():
            self._fail(node, ~ok, [out, *args])
        return out

    def _fail(self, node, bad, values, brief=None):
        if self.error is None:
            row = np.flatnonzero(np.broadcast_to(bad, self.bad.shape))[0]
            vals = [float(np.broadcast_to(v, self.bad.shape).flat[row]) for v in values]
            self.error = EvalDomainError(brief or _brief(node, *vals), node)
        self.bad |= bad


def _brief(node, value, *args):
    match node, args:
        case Const(), _:
            return f"non-finite constant {value}"
        case Var(), _:
            return f"non-finite coordinate {value}"
        case Unary(op="log"), (x,) if x <= 0.0:
            return f"log of non-positive value {x}"
        case Unary(op="sqrt"), (x,) if x < 0.0:
            return f"sqrt of negative value {x}"
        case Binary(op="div"), (_, 0.0):
            return "division by zero"
        case Binary(op="pow"), (a, _) if a <= 0.0:
            return f"pow with non-positive base {a}"
    return "overflow"


def _pow(a, b):
    """a ** b; a constant base becomes a numpy float, which gives the same libm
    pow as Python's but nan/inf where Python would raise or return a complex."""
    return (np.float64(a) if type(a) is float else a) ** b


_UNARY = {"neg": operator.neg, **{f: getattr(np, f) for f in FUNCTIONS}}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": np.divide, "pow": _pow}


def _evaluate(e, points, check):
    """The one evaluation walk, in post-order; `check` is None or a DomainCheck."""
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        out = _walk(e, points, check)
    return np.broadcast_to(np.asarray(out, dtype=float), points.shape[:-1]).copy()


def _walk(node, points, check):
    # a module-level function, not a closure: a self-referencing closure would
    # keep `points` alive in a reference cycle until the cyclic GC runs
    match node:
        case Const(value=v):
            out, args = v, ()
        case Var(index=i):
            args = ()
            try:
                out = points[..., i]
            except IndexError:
                if check is None:
                    raise
                check._fail(node, True, [], f"point has no coordinate {i}")
                out = np.full(points.shape[:-1], np.nan)
        case Unary(op=op, child=c):
            args = (_walk(c, points, check),)
            out = _UNARY[op](*args)
        case Binary(op=op, left=l, right=r):
            args = (_walk(l, points, check), _walk(r, points, check))
            out = _BINARY[op](*args)
        case _:
            raise TypeError(f"not an Expr node: {node!r}")
    return out if check is None else check._visit(node, out, args)


def evaluate_array(e, points):
    """Vectorized evaluation over points of shape (..., N).

    Domain violations produce nan/inf in the output instead of raising; the
    caller (Monte Carlo kernels) is responsible for flagging non-finite rows.
    """
    return _evaluate(e, points, None)


def evaluate(e, point):
    """Evaluate at one point (sequence of reals): the array walk on one row.

    Raises EvalDomainError naming the first subtree that fails the domain
    check (see DomainCheck); never silently returns inf/nan.
    """
    check = DomainCheck((1,))
    out = check.evaluate(e, np.asarray(point, dtype=float)[None])
    if check.error is not None:
        raise check.error
    return float(out[0])


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e, var_index):
    """Exact symbolic partial derivative with respect to coordinate var_index."""

    def d(node):
        match node:
            case Const():
                return ZERO
            case Var(index=i):
                return ONE if i == var_index else ZERO
            case Unary(op=op, child=c):
                dc = d(c)
                if op == "neg":
                    return Unary("neg", dc)
                if op == "sin":
                    outer = Unary("cos", c)
                elif op == "cos":
                    outer = Unary("neg", Unary("sin", c))
                elif op == "exp":
                    outer = Unary("exp", c)
                elif op == "log":
                    return simplify(Binary("div", dc, c))
                elif op == "sqrt":
                    return simplify(Binary("div", dc, Binary("mul", Const(2.0), Unary("sqrt", c))))
                else:  # tanh' = 1 - tanh^2
                    t = Unary("tanh", c)
                    outer = Binary("sub", ONE, Binary("mul", t, t))
                return simplify(Binary("mul", outer, dc))
            case Binary(op=op, left=l, right=r):
                dl = d(l)
                dr = d(r)
                if op == "add":
                    return simplify(Binary("add", dl, dr))
                if op == "sub":
                    return simplify(Binary("sub", dl, dr))
                if op == "mul":
                    return simplify(Binary("add", Binary("mul", dl, r), Binary("mul", l, dr)))
                if op == "div":
                    num = Binary("sub", Binary("mul", dl, r), Binary("mul", l, dr))
                    return simplify(Binary("div", num, Binary("mul", r, r)))
                # pow nodes carry non-integer constant exponents: c * u^(c-1) * u'
                c = r.value
                return simplify(
                    Binary("mul", Binary("mul", Const(c), Binary("pow", l, Const(c - 1.0))), dl)
                )
        raise TypeError(f"not an Expr node: {node!r}")

    return d(e)


# ---------------------------------------------------------------------------
# Simplification (structural only)
# ---------------------------------------------------------------------------

def _fold(node):
    """A node over constants as the Const of its value, or the node itself when
    its value fails the domain check."""
    check = DomainCheck(())
    v = check.evaluate(node, ())
    return node if check.error is not None else Const(float(v))


def _is_const(e, v):
    return isinstance(e, Const) and e.value == v


def simplify(e):
    """Structural simplification: constant folding, 0/1 absorption, neg(neg(x)) -> x,
    and cancellation of structurally identical operands of sub.  Bottom-up single
    pass; idempotent; semantics preserved on the original expression's domain.
    """
    match e:
        case Const() | Var():
            return e
        case Unary(op=op, child=c):
            c = simplify(c)
            if isinstance(c, Const):
                return _fold(Unary(op, c))
            if op == "neg" and isinstance(c, Unary) and c.op == "neg":
                return c.child
            return Unary(op, c)
        case Binary(op=op, left=l, right=r):
            l = simplify(l)
            r = simplify(r)
            if isinstance(l, Const) and isinstance(r, Const):
                folded = _fold(Binary(op, l, r))
                if isinstance(folded, Const):
                    return folded
            if op == "add":
                if _is_const(l, 0.0):
                    return r
                if _is_const(r, 0.0):
                    return l
            elif op == "sub":
                if _is_const(r, 0.0):
                    return l
                if l == r:
                    return ZERO
                if _is_const(l, 0.0):
                    return simplify(Unary("neg", r))
            elif op == "mul":
                if _is_const(l, 0.0) or _is_const(r, 0.0):
                    return ZERO
                if _is_const(l, 1.0):
                    return r
                if _is_const(r, 1.0):
                    return l
            elif op == "div":
                if _is_const(l, 0.0):
                    return ZERO
                if _is_const(r, 1.0):
                    return l
            return Binary(op, l, r)
    raise TypeError(f"not an Expr node: {e!r}")


def max_variable_index(e):
    """Largest variable index used, or -1 for a closed expression."""
    match e:
        case Const():
            return -1
        case Var(index=i):
            return i
        case Unary(child=c):
            return max_variable_index(c)
        case Binary(left=l, right=r):
            return max(max_variable_index(l), max_variable_index(r))
    raise TypeError(f"not an Expr node: {e!r}")
