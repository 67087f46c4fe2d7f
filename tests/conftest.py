import numpy as np
import pytest

from ufgsim import catalog, expr as ex


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
