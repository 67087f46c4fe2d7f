import os

import numpy as np
import pytest
from hypothesis import strategies as st

from ufgsim import catalog, dynamics as dyn, expr as ex, fields as vf


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def circles():
    return catalog.get("random-circles")


@pytest.fixture(scope="session")
def heisenberg():
    return catalog.get("ufg-heisenberg")


@pytest.fixture(scope="session")
def circle_line():
    return catalog.get("circle-line")


@pytest.fixture(scope="session")
def sine_ou_k2():
    return catalog.get("sine-ou", {"k": 2.0})


@pytest.fixture(scope="session")
def grushin_minus1():
    return catalog.get("grushin", {"k": -1.0})


@pytest.fixture
def forking(monkeypatch):
    """Ensembles fork one worker per path-step, on up to 8 cores, so that even
    a small one splits over as many workers as it is given.  Yields the pids
    forked; afterwards no child of this process may remain."""
    monkeypatch.setattr(dyn, "MIN_PATH_STEPS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sample_points(entry, n, rng):
    """Random points inside an entry's sample box (avoids singular sets)."""
    return np.column_stack([
        rng.uniform(lo, hi, size=n) for lo, hi in entry.sample_box
    ])


def compiled_evaluate(exprs, shape=()):
    """`ex.evaluate` for the trees `exprs`, with their checked kernel compiled once.

    f(x) evaluates them at one point x (N,) and returns the values laid out
    in `shape` (a float for shape ()), raising the EvalDomainError that
    checking the trees in turn raises.
    """
    kernel = ex.compile_exprs(exprs, shape, check=True)

    def f(x):
        check = ex.DomainCheck((1,))
        out = np.empty((1, *shape))
        kernel(np.asarray(x, dtype=float)[None], out, check)
        if check.error is not None:
            raise check.error
        return float(out[0]) if shape == () else out[0]

    return f


def assert_same_bits(got, want):
    """Equal to the bit, except that a nan may differ from a nan in sign and
    payload: where nans of both signs meet, numpy's vector loop and its scalar
    tail keep different operands, so the array arithmetic itself can give
    -nan on some rows of an array and +nan on others."""
    got, want = np.ascontiguousarray(got, dtype=float), np.ascontiguousarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def field_component(dim):
    """Random expression trees over the variables of R^dim."""
    leaf = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]).map(ex.Const),
                     st.floats(-3, 3).map(lambda v: ex.Const(round(v, 3))),
                     st.integers(0, dim - 1).map(ex.Var))

    def combine(s):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), s, s).map(
                lambda t: ex.Binary(*t)),
            st.tuples(st.sampled_from(["neg", "sin", "exp", "tanh", "log", "sqrt"]), s).map(
                lambda t: ex.Unary(*t)))

    return st.recursive(leaf, combine, max_leaves=6)


coordinates = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 1e155, -1e200, 1e300]))
increments = st.one_of(st.floats(-0.2, 0.2), st.sampled_from([0.0, -0.0, 1e300]))


@st.composite
def heun_cases(draw):
    """A system with N, d in 1..3, rows (some at +-0.0 or large enough to
    overflow), increments and a step size."""
    N, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    comp = field_component(N)
    fields = [vf.VectorField(N, tuple(draw(comp) for _ in range(N))) for _ in range(d + 1)]
    system = dyn.SDESystem(N, fields[0], tuple(fields[1:]), "random")
    rows = draw(st.integers(1, 10))
    X = np.array(draw(st.lists(st.lists(coordinates, min_size=N, max_size=N),
                               min_size=rows, max_size=rows)))
    dB = np.array(draw(st.lists(st.lists(increments, min_size=d, max_size=d),
                                min_size=rows, max_size=rows)))
    dt = draw(st.sampled_from([1e-3, 0.01, 1 / 3, 0.5, 2.0]))
    return system, X, dB, dt
