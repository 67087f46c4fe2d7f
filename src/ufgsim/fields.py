"""Vector-field algebra: Lie brackets, multi-indices and the bracket hierarchy.

A vector field on R^N is stored as N symbolic components and doubles as a
first-order differential operator.  The hierarchy extends a base family
V_0..V_d by iterated brackets V_[a*i] = [V_[a], V_i]; multi-indices over
{0..d} are weighted so that appending a noise index costs 1 and appending
the drift index costs 2.  The frame collection R_m gathers every bracket
field of weighted length at most m, excluding the bare drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex

DEFAULT_TABLE_CAP = 5000


@dataclass(frozen=True)
class VectorField:
    """A dimension-N list of expression trees, callable at points."""

    dim: int
    components: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise ValueError(f"expected {self.dim} components, got {len(self.components)}")
        for c in self.components:
            if ex.max_variable_index(c) >= self.dim:
                raise ValueError(
                    f"component {ex.to_string(c)} uses a variable index >= dim {self.dim}"
                )

    def __call__(self, x):
        """Value at one point x (N,), or at rows of points (P, N), under the
        domain check; raises EvalDomainError."""
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, x.shape[-1])
        check = ex.DomainCheck(X.shape[:-1])
        out = self._eval(X, check).reshape(x.shape[:-1] + (self.dim,))
        if check.error is not None:
            raise check.error
        return out

    def eval_batch(self, X):
        """Evaluate at points of shape (..., N); non-finite values pass through."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape, dtype=float)
        self._kernel(X, out)
        return out

    @cached_property
    def _kernel(self):
        return ex.compile_exprs(self.components, (self.dim,))

    def _eval(self, X, check):
        """The components at points X (..., N) by the checked kernel."""
        out = np.empty(X.shape[:-1] + (self.dim,))
        self._checked_kernel(X, out, check)
        return out

    @cached_property
    def _checked_kernel(self):
        return ex.compile_exprs(self.components, (self.dim,), check=True)

    @cached_property
    def jacobian_exprs(self):
        """Matrix of symbolic partials J[j][i] = d component_j / d x_i."""
        return tuple(
            tuple(ex.differentiate(c, i) for i in range(self.dim)) for c in self.components
        )

    def jacobian_batch(self, X):
        """Jacobians at points of shape (..., N), result (..., N, N)."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[:-1] + (self.dim, self.dim), dtype=float)
        self._jacobian_kernel(X, out)
        return out

    @cached_property
    def _jacobian_kernel(self):
        entries = [e for row in self.jacobian_exprs for e in row]
        return ex.compile_exprs(entries, (self.dim, self.dim))

    @cached_property
    def _rk4_kernel(self):
        """One RK4 step of the flow, compiled at first use (dynamics._compile_rk4_step)."""
        from .dynamics import _compile_rk4_step  # dynamics imports this module

        return _compile_rk4_step(self, jacobians=False)

    @cached_property
    def _rk4_jacobian_kernel(self):
        """The RK4 step and its four stage Jacobians, compiled at first use."""
        from .dynamics import _compile_rk4_step

        return _compile_rk4_step(self, jacobians=True)


def make_field(dim, component_texts, variable_names, name=""):
    comps = tuple(ex.parse_expression(t, variable_names) for t in component_texts)
    return VectorField(dim, comps, name)


def lie_bracket(V, W):
    """Symbolic commutator [V, W], componentwise sum_i (V^i d_i W^j - W^i d_i V^j)."""
    if V.dim != W.dim:
        raise ValueError(f"dimension mismatch: {V.dim} vs {W.dim}")
    n = V.dim
    dV, dW = V.jacobian_exprs, W.jacobian_exprs  # each field differentiated once
    v, w = V.components, W.components
    comps = (ex.simplify(sum((v[i] * dW[j][i] - w[i] * dV[j][i] for i in range(n)), ex.ZERO))
             for j in range(n))
    return VectorField(n, tuple(comps))


def weighted_length(entries):
    """Weighted length of a multi-index: tuple size plus the number of zero entries."""
    return len(entries) + sum(1 for e in entries if e == 0)


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Non-empty tuple over {0..d}; the trivial index (0,) is excluded."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("multi-index must be non-empty")
        if self.entries == (0,):
            raise ValueError("the trivial multi-index (0,) is excluded")
        if any(e < 0 for e in self.entries):
            raise ValueError("multi-index entries must be non-negative")

    @property
    def length(self):
        return weighted_length(self.entries)

    def extend(self, i):
        return MultiIndex(self.entries + (i,))

    def __repr__(self):
        return f"({','.join(map(str, self.entries))})"


def canonical_key(alpha):
    """Sort key: by weighted length, then lexicographically by entries."""
    return (alpha.length, alpha.entries)


def table_size(d, m):
    """Entries of the bracket table at level m over d noise fields, in closed form:
    c_w multi-indices of weighted length w, c_0 = 1, c_1 = d, c_w = d c_{w-1} +
    c_{w-2}, summed over lengths 1..m+2, less the trivial index (0,)."""
    counts = [1, d]
    while len(counts) <= m + 2:
        counts.append(d * counts[-1] + counts[-2])
    return sum(counts[1:]) - 1


class BracketTable:
    """The bracket hierarchy {V_[a] : ||a|| <= m+2} over base fields V_0..V_d.

    Multi-indices are kept in canonical order (weighted length, then entries).
    Antisymmetric twins such as (0,1) and (1,0) are both retained; entries
    with the same components (the same interned trees) share one field.
    Instances are immutable after construction.
    """

    def __init__(self, base_fields, m):
        if m < 1:
            raise ValueError("level m must be >= 1")
        dims = {f.dim for f in base_fields}
        if len(dims) != 1:
            raise ValueError("all base fields must share one dimension")
        self.dim = dims.pop()
        self.d = len(base_fields) - 1
        if self.d < 1:
            raise ValueError("need a drift and at least one noise field")
        self.m = m
        size = table_size(self.d, m)
        if size > DEFAULT_TABLE_CAP:
            raise ValueError(
                f"bracket table of {size} entries exceeds its entry cap "
                f"({DEFAULT_TABLE_CAP}) at level {m}; lower the level"
            )
        self.base_fields = tuple(base_fields)
        self.fields: dict[MultiIndex, VectorField] = {}
        self._build()
        self._order = sorted(self.fields, key=canonical_key)

    @property
    def drift(self):
        return self.base_fields[0]

    def _build(self):
        interned: dict[tuple, VectorField] = {}  # a field by its components
        brackets: dict[tuple, VectorField] = {}  # [fld, V_i] by (fld.components, i)

        # Breadth-first by tuple size.  The trivial prefix (0,) is not a table
        # entry but still acts as a bracket parent, producing (0,i) children.
        frontier = []
        for i in range(self.d + 1):
            entries = (i,)
            fld = interned.setdefault(self.base_fields[i].components, self.base_fields[i])
            if entries != (0,) and weighted_length(entries) <= self.m + 2:
                self.fields[MultiIndex(entries)] = fld
            frontier.append((entries, fld))
        while frontier:
            nxt = []
            for entries, fld in frontier:
                for i in range(self.d + 1):
                    child = entries + (i,)
                    if weighted_length(child) > self.m + 2:
                        continue
                    key = (fld.components, i)
                    if key not in brackets:
                        vf = lie_bracket(fld, self.base_fields[i])
                        brackets[key] = interned.setdefault(vf.components, vf)
                    bracket = brackets[key]
                    self.fields[MultiIndex(child)] = bracket
                    nxt.append((child, bracket))
            frontier = nxt

    def indices(self, max_length=None):
        """Multi-indices in canonical order, optionally capped by weighted length."""
        if max_length is None:
            return list(self._order)
        return [a for a in self._order if a.length <= max_length]

    def r_m(self):
        """Indices of the frame R_m (weighted length <= m, drift excluded)."""
        return self.indices(self.m)

    def field(self, alpha):
        return self.fields[alpha]

    def evaluate_frame(self, subset, x):
        """Frame matrix (N x k) at one point x (N,), or matrices (P, N, k) at
        rows of points (P, N): `evaluate_frame_batch` under the domain check;
        a failure names its bracket."""
        x = np.asarray(x, dtype=float)
        F = self._frame(subset, x.reshape(-1, x.shape[-1]), checked=True)
        return F.reshape(x.shape + F.shape[-1:])

    def evaluate_frame_batch(self, subset, X):
        """Frame matrices at points X of shape (..., N) -> (..., N, k).

        subset is "brackets" for the frame of R_m alone or "brackets+drift"
        to append the drift V_0 as the final column.  Columns follow the
        canonical table order.
        """
        return self._frame(subset, np.asarray(X, dtype=float), checked=False)

    def _frame(self, subset, X, checked):
        if subset not in ("brackets", "brackets+drift"):
            raise ValueError("subset must be 'brackets' or 'brackets+drift'")
        columns = [(f"bracket {a}: ", self.fields[a]) for a in self.r_m()]
        if subset == "brackets+drift":
            columns.append(("", self.drift))
        if not checked:
            return np.stack([V.eval_batch(X) for _, V in columns], axis=-1)
        mats = []
        for label, V in columns:
            check = ex.DomainCheck(X.shape[:-1])
            mats.append(V._eval(X, check))
            if check.error is not None:
                raise ex.EvalDomainError(label + check.error.brief, check.error.subtree)
        return np.stack(mats, axis=-1)


def build_hierarchy(base_fields, m):
    """Build the bracket hierarchy through weighted length m+2."""
    return BracketTable(base_fields, m)
