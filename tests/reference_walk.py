"""The tree walk that evaluated expressions before the compiled kernels, kept
as the tests' reference for them.

`evaluate_array` walks a tree over rows of points and lets nan/inf through;
`WalkCheck.evaluate` walks it under the domain check (`ufgsim.expr` notes),
and `evaluate` is that check on one row.  `simplify` is `ufgsim.expr.simplify`
with each node over constants folded by the checked walk.  The walk calls
the package's `_UNARY`/`_BINARY` callables, which define the operators.
"""

from unittest import mock

import numpy as np

from ufgsim import expr as ex
from ufgsim.expr import _BINARY, _UNARY, Binary, Const, EvalDomainError, Unary, Var, _brief


class WalkCheck:
    """The domain check of walks over rows of shape `shape`.

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


def _evaluate(e, points, check):
    """The evaluation walk, in post-order; `check` is None or a WalkCheck."""
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
    """The walk over points of shape (..., N); nan/inf pass through."""
    return _evaluate(e, points, None)


def evaluate(e, point):
    """The checked walk on one row; raises EvalDomainError."""
    check = WalkCheck((1,))
    out = check.evaluate(e, np.asarray(point, dtype=float)[None])
    if check.error is not None:
        raise check.error
    return float(out[0])


def _fold(node):
    """A node over constants as the Const of its value, or the node itself when
    its value fails the domain check."""
    check = WalkCheck(())
    v = check.evaluate(node, ())
    return node if check.error is not None else Const(float(v))


def simplify(e):
    """``ufgsim.expr.simplify`` with the walk's constant folding."""
    with mock.patch.object(ex, "_fold", _fold):
        return ex.simplify(e)
