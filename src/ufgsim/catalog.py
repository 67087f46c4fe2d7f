"""Built-in example systems with closed-form ground truth.

Each entry bundles the driving fields with whatever is known in closed form:
bracket identities, the drift component orthogonal to the bracket span, rank
profiles, limit laws and invariant densities.  Entries re-derive their known
bracket identities through the symbolic layer when instantiated and refuse
to load if any identity fails at random sample points, so every other module
can lean on them as oracles.

Domain caveats are part of the entry: the smooth-but-flat example is only
valid on x > 0 (the vanishing half-plane is not expressible in the
expression grammar), and the sine-driven entry's orthogonal drift component
is the closed form away from the plane where the noise field vanishes (it is
genuinely discontinuous across it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .dynamics import SDESystem
from .fields import VectorField, lie_bracket, make_field

# CatalogEntry.selfcheck: seeded sample points and the tolerance each known
# bracket identity must meet at them
SELFCHECK_POINTS = 20
SELFCHECK_SEED = 12345
SELFCHECK_TOL = 1e-10


@dataclass
class CatalogEntry:
    """An example system plus its analytically known facts."""

    name: str
    system: SDESystem
    level: int
    variables: tuple
    v0perp: VectorField | None
    known_brackets: list          # (multi-entries, expected VectorField, note)
    sample_box: tuple             # per-axis (lo, hi) avoiding singular sets
    facts: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def selfcheck(self):
        """Re-derive every known symbolic identity numerically, under the
        domain check (each field's checked kernel), at SELFCHECK_POINTS seeded
        points of the sample box."""
        rng = np.random.default_rng(SELFCHECK_SEED)
        pts = np.column_stack([
            rng.uniform(lo, hi, size=SELFCHECK_POINTS) for lo, hi in self.sample_box
        ])
        base = self.system.all_fields()
        for entries, expected, note in self.known_brackets:
            got = base[entries[0]]
            for i in entries[1:]:
                got = lie_bracket(got, base[i])
            err = np.max(np.abs(got(pts) - expected(pts)))
            if not err <= SELFCHECK_TOL:
                raise AssertionError(
                    f"{self.name}: bracket identity {entries} ({note}) off by {err:.3e}"
                )
        return True

    def export_system_file(self):
        lines = [
            f"dim = {self.system.dim}",
            f"noise = {self.system.d}",
            "vars = " + ", ".join(self.variables),
        ]
        for j, f_ in enumerate(self.system.all_fields()):
            comps = ", ".join(ex.to_string(c, list(self.variables)) for c in f_.components)
            lines.append(f"V{j} = [{comps}]")
        # the fields carry the parameter values; the lines only document them
        lines += [f"# param {key} = {val!r}" for key, val in self.params.items()]
        return "\n".join(lines) + "\n"


def list_entries():
    return list(_BUILDERS)


def get(name, params=None):
    """Instantiate a catalog entry; unknown names and out-of-range params raise."""
    params = dict(params or {})
    builder = _BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown catalog system '{name}'; known: {', '.join(_BUILDERS)}")
    entry = builder(params)
    entry.selfcheck()
    return entry


def _require_no_params(params, name):
    if params:
        raise ValueError(f"{name} takes no parameters, got {sorted(params)}")


def _build_gbm(params):
    _require_no_params(params, "gbm")
    v = ("x",)
    V1 = make_field(1, ["x"], v, "V1")
    V0 = make_field(1, ["-2*x"], v, "V0")
    zero = make_field(1, ["0"], v)
    system = SDESystem(1, V0, (V1,), "gbm")
    return CatalogEntry(
        name="gbm",
        system=system,
        level=1,
        variables=v,
        v0perp=zero,  # the drift is -2 V1, inside the bracket span
        known_brackets=[((1, 0), zero, "noise and drift commute")],
        sample_box=((0.25, 3.0),),
        facts={
            "ito_drift": "-x",
            "mean": lambda t, x0: x0 * math.exp(-t),
            "hc_fails_at": [0.0],
        },
    )


def _build_sinfields(params):
    _require_no_params(params, "sinfields")
    v = ("x", "y")
    V0 = make_field(2, ["sin(x)", "0"], v, "V0")
    V1 = make_field(2, ["0", "sin(x)"], v, "V1")
    expected = make_field(2, ["0", "cos(x)*sin(x)"], v)
    return CatalogEntry(
        name="sinfields",
        system=SDESystem(2, V0, (V1,), "sinfields"),
        level=1,
        variables=v,
        v0perp=None,
        known_brackets=[((0, 1), expected, "[drift, noise] = cos(x) * noise")],
        sample_box=((-3.0, 3.0), (-3.0, 3.0)),
        facts={},
    )


def _build_linear(params):
    A = np.atleast_2d(np.asarray(params.pop("A", [[0.0, 1.0], [0.0, 0.0]]), dtype=float))
    N = A.shape[0]
    D = np.asarray(params.pop("D", np.zeros(N)), dtype=float)
    C = np.atleast_2d(np.asarray(params.pop("C", np.eye(N)[:, :1].T), dtype=float))
    _require_no_params(params, "linear")
    if A.shape != (N, N) or D.shape != (N,):
        raise ValueError("linear: A must be square, D of matching length")
    if C.shape[1] != N:
        raise ValueError("linear: C must be rows of noise vectors, each of length N")
    v = tuple(f"x{i + 1}" for i in range(N))

    def lin_expr(row, offset):
        terms = (ex.Const(float(a)) * ex.Var(j) for j, a in enumerate(row) if a != 0.0)
        return ex.simplify(sum(terms, ex.Const(float(offset))))

    V0 = VectorField(N, tuple(lin_expr(A[i], D[i]) for i in range(N)), "V0")
    noises = tuple(
        VectorField(N, tuple(ex.Const(float(ci)) for ci in Ck), f"V{k + 1}")
        for k, Ck in enumerate(C)
    )
    known = []
    for k, Ck in enumerate(C):
        AC = A @ Ck
        expected = VectorField(N, tuple(ex.Const(float(x)) for x in AC))
        known.append(((k + 1, 0), expected, "[noise, drift] = A C"))
    return CatalogEntry(
        name="linear",
        system=SDESystem(N, V0, noises, "linear"),
        level=2 * N - 1,
        variables=v,
        v0perp=None,
        known_brackets=known,
        sample_box=tuple((-2.0, 2.0) for _ in range(N)),
        facts={"A": A, "D": D, "C": C},
        params={"N": N},
    )


def _build_psi(params):
    _require_no_params(params, "non-ufg-psi")
    v = ("x", "y")
    V0 = make_field(2, ["1", "0"], v, "V0")
    V1 = make_field(2, ["0", "exp(-1/x)"], v, "V1")
    expected = make_field(2, ["0", "exp(-1/x)/(x*x)"], v)
    return CatalogEntry(
        name="non-ufg-psi",
        system=SDESystem(2, V0, (V1,), "non-ufg-psi"),
        level=3,
        variables=v,
        v0perp=None,
        known_brackets=[((0, 1), expected, "[drift, noise] = psi'(x) e_y")],
        sample_box=((0.01, 1.0), (-1.0, 1.0)),
        facts={"valid_domain": "x > 0", "coefficient_growth": "x^(-2k) per extra derivative"},
    )


def _build_heisenberg(params):
    _require_no_params(params, "ufg-heisenberg")
    v = ("x", "y", "z")
    V0 = make_field(3, ["-x", "-y", "-2*z"], v, "V0")
    V1 = make_field(3, ["0", "0", "-y"], v, "V1")
    V2 = make_field(3, ["0", "1", "x"], v, "V2")
    v0perp = make_field(3, ["-x", "0", "0"], v, "v0perp")
    e3 = make_field(3, ["0", "0", "1"], v)
    mV1 = make_field(3, ["0", "0", "y"], v)
    mV2 = make_field(3, ["0", "-1", "-x"], v)
    return CatalogEntry(
        name="ufg-heisenberg",
        system=SDESystem(3, V0, (V1, V2), "ufg-heisenberg"),
        level=2,
        variables=v,
        v0perp=v0perp,
        known_brackets=[
            ((1, 2), e3, "[V1, V2] = e3"),
            ((1, 0), mV1, "[V1, drift] = -V1"),
            ((2, 0), mV2, "[V2, drift] = -V2"),
        ],
        sample_box=((0.5, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
        facts={
            "first_coordinate": lambda t, x0: x0 * math.exp(-t),
            "rank_full_off_plane": "rank 3 for x != 0, rank 2 on x = 0",
        },
    )


def _build_circles(params):
    _require_no_params(params, "random-circles")
    v = ("x", "y")
    V0 = make_field(2, ["-y", "x"], v, "V0")
    V1 = make_field(2, ["x", "y"], v, "V1")
    zero = make_field(2, ["0", "0"], v)
    return CatalogEntry(
        name="random-circles",
        system=SDESystem(2, V0, (V1,), "random-circles"),
        level=1,
        variables=v,
        v0perp=V0,  # the rotation is orthogonal to the radial noise direction
        known_brackets=[((1, 0), zero, "rotation and dilation commute")],
        sample_box=((0.3, 2.0), (-2.0, 2.0)),
        facts={
            "solution": "X_t = cos(t) exp(sqrt(2) B_t), Y_t = sin(t) exp(sqrt(2) B_t)",
            "log_radius_variance": lambda t: 2.0 * t,
            "chart_center": (1.0, 0.0),
        },
    )


def _build_grushin(params):
    k = float(params.pop("k", 1.0))
    _require_no_params(params, "grushin")
    if k == 0.0:
        raise ValueError("grushin: k must be nonzero")
    v = ("z", "zeta")
    V0 = make_field(2, ["0", f"{k!r}*zeta"], v, "V0")
    V1 = make_field(2, ["zeta", "0"], v, "V1")
    expected = make_field(2, [f"-({k!r})*zeta", "0"], v)

    def variance(t, zeta0):
        return zeta0 ** 2 * (math.exp(2 * k * t) - 1.0) / k

    return CatalogEntry(
        name="grushin",
        system=SDESystem(2, V0, (V1,), "grushin"),
        level=1,
        variables=v,
        v0perp=V0,  # vertical drift against a horizontal noise span
        known_brackets=[((1, 0), expected, "[noise, drift] = -k * noise")],
        sample_box=((-2.0, 2.0), (0.3, 2.0)),
        facts={
            "z_marginal_variance": variance,
            "tight_iff": "k < 0",
            "oac_iff": "k > 0",
        },
        params={"k": k},
    )


def _build_sine_ou(params):
    k = float(params.pop("k", 2.0))
    _require_no_params(params, "sine-ou")
    if k <= 0.0:
        raise ValueError("sine-ou: k must be positive")
    v = ("z", "zeta")
    V0 = make_field(2, [f"-({k!r})*z", "-sin(zeta)"], v, "V0")
    V1 = make_field(2, ["zeta", "0"], v, "V1")
    # [V1, V0] = (-k + sin(zeta)/zeta) V1, bounded and smooth through zero
    expected = make_field(2, [f"-({k!r})*zeta + sin(zeta)", "0"], v)
    v0perp = make_field(2, ["0", "-sin(zeta)"], v, "v0perp")

    def ode_limit(zeta0):
        if math.isclose(zeta0 % math.pi, 0.0, abs_tol=1e-12):
            return zeta0
        n = round(zeta0 / (2 * math.pi))
        return 2 * math.pi * n

    return CatalogEntry(
        name="sine-ou",
        system=SDESystem(2, V0, (V1,), "sine-ou"),
        level=1,
        variables=v,
        v0perp=v0perp,  # closed form away from the plane zeta = 0
        known_brackets=[((1, 0), expected, "[noise, drift] = (-k + sin(zeta)/zeta) noise")],
        sample_box=((-3.0, 3.0), (0.5, 6.0)),
        facts={
            "ode_limit": ode_limit,
            "limit_variance": lambda zeta_bar: zeta_bar ** 2 / k,
            "lyapunov": "phi(z) = |z| for |z| > 1 gives L phi = -k phi",
        },
        params={"k": k},
    )


def _build_circle_line(params):
    _require_no_params(params, "circle-line")
    v = ("z",)
    V0 = make_field(1, ["sin(z)"], v, "V0")
    V1 = make_field(1, ["1 - cos(z)"], v, "V1")
    zero = make_field(1, ["0"], v)
    neg_V1 = make_field(1, ["cos(z) - 1"], v)
    return CatalogEntry(
        name="circle-line",
        system=SDESystem(1, V0, (V1,), "circle-line"),
        level=1,
        variables=v,
        v0perp=zero,  # the drift is sin(z)/(1-cos(z)) times the noise field
        known_brackets=[((1, 0), neg_V1, "[noise, drift] = -noise")],
        sample_box=((0.2, 2 * math.pi - 0.2),),
        facts={
            "lambda0": 1.0,
            "dirac_points": "2 pi n",
            "density": stationary_density_expr,
            "normalization": stationary_density_normalization,
        },
    )


def stationary_density_expr():
    """Unnormalized invariant density on each interval (2 pi n, 2 pi (n+1)).

    exp(-1/(1-cos z)) / (1 - cos z); the interval indicator is a domain
    restriction, not part of the expression.  The normalization constant is
    stationary_density_normalization's.
    """
    return ex.parse_expression("exp(-1/(1-cos(z)))/(1-cos(z))", ["z"])


def stationary_density_normalization():
    """Normalization constant of the invariant density, with an error estimate.

    The trapezoid rule on the uniform grid of n = 4096 intervals of (0, 2 pi),
    endpoints left out: the integrand vanishes to all orders there, so the
    rule converges faster than any power of 1/n.  The error estimate is the
    change from n = 2048, the rule on every other point.
    """
    n = 4096
    h = 2 * math.pi / n
    density = VectorField(1, (stationary_density_expr(),))  # compiled once, checked
    f = density(h * np.arange(1, n)[:, None])[:, 0]
    fine, coarse = h * np.sum(f), 2 * h * np.sum(f[1::2])
    return float(fine), float(abs(fine - coarse))


_BUILDERS = {
    "gbm": _build_gbm,
    "sinfields": _build_sinfields,
    "linear": _build_linear,
    "non-ufg-psi": _build_psi,
    "ufg-heisenberg": _build_heisenberg,
    "random-circles": _build_circles,
    "grushin": _build_grushin,
    "sine-ou": _build_sine_ou,
    "circle-line": _build_circle_line,
}
