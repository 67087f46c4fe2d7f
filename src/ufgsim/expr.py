"""Scalar symbolic expressions: parsing, differentiation, evaluation, simplification.

Expressions are immutable trees over a fixed, small grammar:

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := ("-")? power ;
    power  := atom ("^" atom)? ;
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Recognized one-argument functions: sin, cos, exp, log, sqrt, tanh.
NUMBER is a decimal literal of ASCII digits with an optional exponent part;
whitespace is insignificant.  Variables are resolved positionally against
the ordered identifier list supplied to :func:`parse_expression`.

Design notes:

* Nodes are interned: building a node equal to a live one returns that node,
  so ``==`` and ``hash`` are identity's and walk no tree.  A Const is keyed on
  its bytes (0.0 and -0.0, and nan payloads, differ); the table holds nodes weakly.
* Trees compose with ``+ - * /`` and unary ``-``, each building the one
  Binary/Unary node it names.  An operand that is not an Expr is a
  TypeError, so no float enters a tree; a sum therefore needs an Expr start,
  ``sum(terms, ZERO)``, and folds left from it, ``((ZERO + t0) + t1) + ...``.
  The fold matters: a compiled kernel computes in its tree's order.
* ``a ^ n`` with an integer exponent ``n`` is expanded to repeated
  multiplication at construction time (``x^3 -> x*x*x``, ``x^-2 ->
  1/(x*x)``), so pow nodes only ever carry non-integer constant exponents
  and are defined only for positive bases.
* One evaluator: ``compile_exprs`` turns a list of trees into one
  straight-line numpy function that computes each distinct subtree once.
  Unchecked kernels let nan/inf through (``evaluate_array``, field, Jacobian,
  Heun and RK4 kernels); checked kernels report to a ``DomainCheck``
  (``DomainCheck.evaluate``, ``evaluate`` on one row, ``VectorField`` calls).
  The domain rule: a row fails when any subexpression value on it is
  non-finite, when a pow base on it is <= 0, or when the point lacks a
  coordinate the expression uses; the error names the first failing node in
  post-order.  The tests hold both kinds of kernel to a reference tree walk
  to the bit.
* One walk: each pass over trees is a function of a node and its children's
  results, run by one post-order walk on an explicit stack that visits each
  distinct node once; depth is bounded by memory, not Python's stack.  The
  parser rejects nesting of parentheses and function calls deeper than
  ``MAX_NESTING``.
* Simplification is structural only: constant folding, 0/1 absorption,
  double-negation removal and cancellation of a subtrahend equal to its
  minuend.  No distribution, no term reordering.  A node over constants
  is folded by the kernels' own operator callables and left unfolded when it
  fails the domain rule, so simplification keeps every value on the
  expression's domain to the bit.
* The canonical printer emits fully parenthesized text; parsing the printed
  form of a simplified expression reproduces it node for node.

Trees are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import weakref

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_MAX_INT_EXPONENT = 64
MAX_NESTING = 100  # parentheses and function calls; each level is four parser frames
_NODES = weakref.WeakValueDictionary()  # live nodes by class and fields; build in one thread


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
    """Base node: a Const, Var, Unary or Binary, built from its fields in order."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields, got {len(fields)}")
        if cls is Const:
            fields = (float(fields[0]),)
        key = (cls, struct.pack("<d", *fields)) if cls is Const else (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
        return node

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __call__(self, point):
        return evaluate(self, point)

    def __str__(self):
        return to_string(self)

    # see the module notes: an operand that is not an Expr is NotImplemented
    def __add__(self, other):
        return Binary("add", self, other) if isinstance(other, Expr) else NotImplemented

    def __sub__(self, other):
        return Binary("sub", self, other) if isinstance(other, Expr) else NotImplemented

    def __mul__(self, other):
        return Binary("mul", self, other) if isinstance(other, Expr) else NotImplemented

    def __truediv__(self, other):
        return Binary("div", self, other) if isinstance(other, Expr) else NotImplemented

    def __neg__(self):
        return Unary("neg", self)


class Const(Expr):
    __slots__ = __match_args__ = ("value",)


class Var(Expr):
    __slots__ = __match_args__ = ("index",)


class Unary(Expr):
    __slots__ = __match_args__ = ("op", "child")


class Binary(Expr):
    __slots__ = __match_args__ = ("op", "left", "right")


ZERO = Const(0.0)
ONE = Const(1.0)


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
        if n == 0:
            return ONE
        power = math.prod([base] * (abs(n) - 1), start=base)  # and one division if n < 0
        return ONE / power if n < 0 else power
    return Binary("pow", base, exponent)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# ASCII only: a number is digits, an optional "." and digits, then an exponent
# only where a digit follows its "e" and sign
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SPACE = re.compile(r"\s*")  # str.isspace characters
# binary operator -> (node op, binding level); all are left-associative
_INFIX = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}


class _Parser:
    """Recursive descent over `text`; `pos` indexes the next unread character."""

    def __init__(self, text, variable_names):
        self.text, self.pos, self.depth = text, 0, 0
        self.vars = {name: i for i, name in enumerate(variable_names)}

    def peek(self):
        """The next character after whitespace, which is consumed; "" at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def match(self, pattern):
        """The text of `pattern` at `pos`, consumed, or None."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def parse(self):
        e = self.expr()
        if self.peek():
            raise ParseError("trailing input", self.pos, ["end of input", "operator"])
        return e

    def expr(self, level=1):
        """Factors joined by the binary operators that bind at `level` or tighter."""
        e = self.factor()
        while (op := _INFIX.get(self.peek())) is not None and op[1] >= level:
            self.pos += 1
            e = Binary(op[0], e, self.expr(op[1] + 1))
        return e

    def factor(self):
        if self.take("-"):
            inner = self.power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return -inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.take("^"):
            pos = self.pos
            exponent = self.atom()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a numeric constant", pos, ["NUMBER"])
            try:
                return pow_expr(base, exponent)
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        return base

    def atom(self):
        self.peek()
        pos = self.pos
        name = None
        if not self.take("("):
            if (number := self.match(_NUMBER)) is not None:
                value = float(number)
                if math.isinf(value):
                    raise ParseError(f"number {number} overflows a double", pos)
                return Const(value)
            if (name := self.match(_IDENT)) is None:
                raise ParseError("unexpected input", pos, ["NUMBER", "IDENT", "("])
            if not self.take("("):
                if name in self.vars:
                    return Var(self.vars[name])
                raise ParseError(f"unknown identifier '{name}'", pos, sorted(self.vars))
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", pos, FUNCTIONS)
        # a "(" was taken: the nested expression up to its ")"
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos - 1)
        self.depth += 1
        e = self.expr()
        if not self.take(")"):
            raise ParseError("unexpected input", self.pos, [")"])
        self.depth -= 1
        return e if name is None else Unary(name, e)


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

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def to_string(e, variable_names=None):
    """Canonical fully parenthesized text form; round-trips through the parser."""

    def text(node, *args):
        if type(node) is Const:
            v = node.value
            negative = math.copysign(1.0, v) < 0 and math.isfinite(v)  # -0.0 too
            return f"(-{repr(-v)})" if negative else repr(v)
        if type(node) is Var:
            return f"x{node.index + 1}" if variable_names is None else variable_names[node.index]
        if type(node) is Unary:
            return f"(-{args[0]})" if node.op == "neg" else f"{node.op}({args[0]})"
        return f"({args[0]} {_BINARY_SYMBOL[node.op]} {args[1]})"

    return _walk(e, text, {})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class DomainCheck:
    """The domain check (module notes) of checked kernels run over rows of shape `shape`.

    `bad` flags the rows that failed in any kernel run under this check;
    `error` is the EvalDomainError for the first failing node, or None.
    """

    def __init__(self, shape):
        self.bad = np.zeros(shape, dtype=bool)
        self.error = None

    def evaluate(self, e, points):
        """``evaluate_array(e, points)``, recording the rows that fail the check."""
        return _evaluate_compiled(e, points, self)

    def _visit(self, node, value, *operands):
        """A checked kernel's call after computing `node` from `operands`."""
        ok = np.isfinite(value)
        if type(node) is Binary and node.op == "pow":
            ok &= operands[0] > 0.0
        if not ok.all():
            self._fail(node, ~ok, [value, *operands])

    def _absent(self, X, i):
        """Coordinate i of points X that lack it: reported, then read as nan."""
        self._fail(Var(i), True, [], f"point has no coordinate {i}")
        return np.full(X.shape[:-1], np.nan)

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


def evaluate_array(e, points):
    """Vectorized evaluation over points of shape (..., N).

    Domain violations produce nan/inf in the output instead of raising; the
    caller (Monte Carlo kernels) is responsible for flagging non-finite rows.
    """
    return _evaluate_compiled(e, points)


def _evaluate_compiled(e, points, *check):
    """e's kernel at `points`, checked under a DomainCheck if one is given."""
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[:-1])
    compile_exprs([e], (), check=bool(check))(points, out, *check)
    return out


def _literal(v):
    v = float(v)
    if math.isfinite(v):
        return repr(v)
    text = f"float({str(abs(v))!r})"  # abs: the sign of a nan is not in its repr
    return "-" + text if math.copysign(1.0, v) < 0 else text


def compile_exprs(exprs, target, check=False):
    """One straight-line function ``kernel(X, out)`` for a list of trees.

    ``kernel`` writes the value of ``exprs[n]`` at points X of shape (..., N)
    to ``out[..., k]``, k the n-th index of the trailing shape ``target`` of
    ``out`` in row-major order, calling the ``_UNARY``/``_BINARY`` callables
    under ``errstate(all="ignore")``.  Temporaries are numbered once per
    distinct node; each is computed once, in the post-order of its first
    occurrence, and deleted after its last use.  The source is generated from
    the nodes alone: table op names, variable indices and float literals.

    With ``check`` it is ``kernel(X, out, check)``, calling the DomainCheck's
    ``_visit(node, value, *operands)`` after each temporary and non-finite
    constant; a coordinate X lacks is reported and read as nan.  The first
    failure is then that of checking the trees in turn, node by node.
    """
    exprs = list(exprs)
    slots = list(np.ndindex(*target))
    if len(slots) != len(exprs):
        raise ValueError(f"{len(exprs)} expressions for an output of shape {tuple(target)}")
    temps = set()  # one per distinct node but a Const
    seen = {}  # node -> its temp or literal
    stmts = []  # (line, names it reads), each temp after the temps it reads
    nodes = {}  # name -> node, for the checked kernel's calls

    def number(node, *args):  # node's temp or literal, given its children's
        if type(node) is Const:
            ref = _literal(node.value)
            if check and not math.isfinite(node.value):
                visit(node, ref, args)
            return ref
        code = None
        if type(node) is Var:
            i = operator.index(node.index)
            rhs = f"X[..., {i}]"
            if check:
                code = f"{rhs} if X.shape[-1] > {i} else check._absent(X, {i})"
        elif node.op in (_UNARY if type(node) is Unary else _BINARY):
            rhs = f"{node.op}({', '.join(args)})"
        else:
            raise ValueError(f"unknown operator {node.op!r}")
        ref = f"t{len(temps)}"
        temps.add(ref)
        stmts.append((f"{ref} = {code or rhs}", args))
        if check:
            visit(node, ref, args)
        return ref

    def visit(node, ref, args):
        name = f"n{len(nodes)}"
        nodes[name] = node
        stmts.append((f"check._visit({', '.join([name, ref, *args])})", [ref, *args]))

    for e, k in zip(exprs, slots):
        ref = _walk(e, number, seen)
        stmts.append((f"out[..., {', '.join(map(str, k))}] = {ref}", [ref]))
    last = {r: i for i, (_, reads) in enumerate(stmts) for r in reads if r in temps}
    lines = []
    for i, (line, reads) in enumerate(stmts):
        lines.append(line)
        lines += [f"del {r}" for r in dict.fromkeys(reads) if last.get(r) == i]
    body = "".join(f"\n        {line}" for line in lines) or "\n        pass"
    signature = "X, out, check" if check else "X, out"
    source = f"def kernel({signature}):\n    with errstate(all='ignore'):{body}\n"
    namespace = {"errstate": np.errstate, **_UNARY, **_BINARY, **nodes}
    exec(compile(source, "<ufgsim.expr kernel>", "exec"), namespace)
    kernel = namespace.pop("kernel")  # popped: no cycle through its globals
    kernel.source = source
    return kernel


def _children(node):
    match node:
        case Unary(child=c):
            return (c,)
        case Binary(left=l, right=r):
            return (l, r)
        case Const() | Var():
            return ()
    raise TypeError(f"not an Expr node: {node!r}")


def _walk(root, visit, memo):
    """Root's result, after ``memo[node] = visit(node, *its children's results)``
    for each node of `root` not yet in `memo`, in first-occurrence post-order."""
    stack = [(root, None)]  # (node, None) to expand; (node, children) to visit
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            memo[node] = visit(node, *[memo[c] for c in kids])
        elif node not in memo:
            kids = _children(node)
            stack.append((node, kids))
            stack += [(c, None) for c in reversed(kids)]
    return memo[root]


def evaluate(e, point):
    """Evaluate at one point, a 1-D sequence of reals: the checked kernel on one row.

    Raises ValueError for a point that is not 1-D, and EvalDomainError naming
    the first subtree that fails the domain check (see DomainCheck); never
    silently returns inf/nan.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim != 1:
        raise ValueError(f"a point is a 1-D sequence of coordinates, got shape {point.shape}")
    check = DomainCheck((1,))
    out = check.evaluate(e, point[None])
    if check.error is not None:
        raise check.error
    return float(out[0])


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e, var_index):
    """Exact symbolic partial derivative with respect to coordinate var_index;
    each node's derivative is simplified as built, under one memo for the call."""
    simplified = {}

    def simp(tree):
        out = _walk(tree, _simplify_step, simplified)
        simplified[out] = out  # a simplified tree is its own simplification
        return out

    def d(node, *dkids):
        if type(node) is Const:
            return ZERO
        if type(node) is Var:
            return ONE if node.index == var_index else ZERO
        op = node.op
        if type(node) is Unary:
            c, (dc,) = node.child, dkids
            if op == "neg":
                return -dc
            if op == "log":
                return simp(dc / c)
            if op == "sqrt":
                return simp(dc / (Const(2.0) * Unary("sqrt", c)))
            if op == "sin":
                outer = Unary("cos", c)
            elif op == "cos":
                outer = -Unary("sin", c)
            elif op == "exp":
                outer = Unary("exp", c)
            else:  # tanh' = 1 - tanh^2
                t = Unary("tanh", c)
                outer = ONE - t * t
            return simp(outer * dc)
        l, r = node.left, node.right
        dl, dr = dkids
        if op == "add":
            return simp(dl + dr)
        if op == "sub":
            return simp(dl - dr)
        if op == "mul":
            return simp(dl * r + l * dr)
        if op == "div":
            return simp((dl * r - l * dr) / (r * r))
        # pow nodes carry non-integer constant exponents: c * u^(c-1) * u'
        c = r.value
        return simp(Const(c) * Binary("pow", l, Const(c - 1.0)) * dl)

    return _walk(e, d, {})


# ---------------------------------------------------------------------------
# Simplification (structural only)
# ---------------------------------------------------------------------------

def _fold(node):
    """A node over constants as the Const of its value, or the node itself when
    it fails the domain check: a non-finite operand or value, or a pow base <= 0."""
    args = [c.value for c in _children(node)]
    with np.errstate(all="ignore"):
        v = (_UNARY if type(node) is Unary else _BINARY)[node.op](*args)
    if not all(map(math.isfinite, [v, *args])) or (node.op == "pow" and args[0] <= 0.0):
        return node
    return Const(float(v))


def _is_const(e, v):
    return isinstance(e, Const) and e.value == v


def simplify(e):
    """Structural simplification: constant folding, 0/1 absorption, neg(neg(x)) -> x,
    and cancellation of equal operands of sub.  Bottom-up single
    pass; idempotent; semantics preserved on the original expression's domain.
    """
    return _walk(e, _simplify_step, {})


def _simplify_step(node, *kids):
    """`node` simplified, given its children simplified to `kids`."""
    if type(node) is Unary:
        return _simplify_unary(node.op, *kids)
    if type(node) is not Binary:
        return node
    op, (l, r) = node.op, kids
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
            return _simplify_unary("neg", r)
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


def _simplify_unary(op, c):
    if isinstance(c, Const):
        return _fold(Unary(op, c))
    if op == "neg" and isinstance(c, Unary) and c.op == "neg":
        return c.child
    return Unary(op, c)


def max_variable_index(e):
    """Largest variable index used, or -1 for a closed expression."""
    return _walk(e, lambda node, *kids: node.index if type(node) is Var
                 else max(kids, default=-1), {})


def min_variable_index(e):
    """Smallest variable index used, or inf for a closed expression."""
    return _walk(e, lambda node, *kids: node.index if type(node) is Var
                 else min(kids, default=math.inf), {})


def substitute(exprs, values):
    """The trees `exprs` with every Var(i) replaced by the tree values[i].

    A subtree shared between the inputs is rebuilt once and stays shared.
    """

    def swap(node, *kids):
        if type(node) is Var:
            return values[node.index]
        if type(node) is Const:
            return node
        return type(node)(node.op, *kids)

    memo = {}
    return [_walk(e, swap, memo) for e in exprs]
