import functools
import math
import os

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_variational
from ufgsim import catalog, dynamics as dyn, fields as vf, malliavin as mal
from conftest import assert_same_bits, heun_cases, traced_peak


def ou_system(k):
    V0 = vf.make_field(1, [f"-{k!r}*x"], ["x"])
    V1 = vf.make_field(1, ["1"], ["x"])
    return dyn.SDESystem(1, V0, (V1,), "ou")


class TestVariational:
    def test_constant_fields_identity_jacobian(self):
        V0 = vf.make_field(2, ["1", "0"], ["x", "y"])
        V1 = vf.make_field(2, ["0", "1"], ["x", "y"])
        system = dyn.SDESystem(2, V0, (V1,), "const")
        vp = mal.simulate_variational(system, [0, 0], 0.5, 1e-3, seed=1, n_paths=4)
        assert np.max(np.abs(vp.jacobian - np.eye(2))) == 0.0
        # J K = I exactly at every stored time
        assert np.max(vp.consistency_error()) == 0.0

    def test_ou_jacobian_decay(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.3], 1.0, 1e-3, seed=2, n_paths=8)
        assert np.max(np.abs(vp.jacobian[:, 0, 0] - math.exp(-k))) <= 1e-6

    def test_states_match_plain_ensemble(self, sine_ou_k2):
        kw = dict(x0=[0.0, 4.0], T=0.4, dt=1e-3, seed=7)
        vp = mal.simulate_variational(sine_ou_k2.system, n_paths=6, **kw)
        ens = dyn.simulate_paths(sine_ou_k2.system, kw["x0"], kw["T"], kw["dt"], 6,
                                 kw["seed"], store_stride=1)
        assert np.array_equal(vp.states, ens.states)

    def test_inverse_consistency_invariant(self, sine_ou_k2, grushin_minus1):
        for entry in (sine_ou_k2, grushin_minus1):
            vp = mal.simulate_variational(entry.system, [0.2, 1.5], 1.0, 1e-3,
                                          seed=3, n_paths=10)
            assert vp.consistency_error().max() <= 1e-6
            assert not vp.aborted.any()

    def test_ode_rows_stay_clean(self, sine_ou_k2):
        vp = mal.simulate_variational(sine_ou_k2.system, [0.0, 4.0], 0.5, 1e-3,
                                      seed=4, n_paths=10)
        # the deterministic block never picks up dependence on the leading
        # one, so K V_1 has no second component and C_T no second row
        assert np.max(np.abs(vp.jacobian[:, 1, 0])) == 0.0
        assert np.max(np.abs(vp.covariance[:, 1])) == 0.0


    def test_chunking_is_bit_identical(self, monkeypatch, sine_ou_k2):
        kw = dict(x0=[0.2, 1.5], T=0.3, dt=1e-3, seed=17, n_paths=20, store_stride=10)
        one = mal.simulate_variational(sine_ou_k2.system, **kw)
        monkeypatch.setattr(dyn, "CHUNK_PATHS", 7)
        many = mal.simulate_variational(sine_ou_k2.system, **kw)
        for name in FIELDS:
            assert np.array_equal(_bits(getattr(one, name)), _bits(getattr(many, name))), name

    # sine-ou aborts 1 of 30 paths, at stored step 160 (see
    # test_simulation_is_the_reference_loop); riccati blows up 33 of 40
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name, x0, T, P, stride, tol", [
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 2.3e-16),
        ("riccati", [0.9], 1.5, 40, 10, 1e-6),
    ])
    def test_forked_workers_are_bit_identical(self, forking, monkeypatch, name, x0, T, P,
                                              stride, tol, workers):
        if name == "riccati":
            system = dyn.SDESystem(1, vf.make_field(1, ["x*x"], ["x"]),
                                   (vf.make_field(1, ["0.5"], ["x"]),), name)
        else:
            system = _system(name)
        monkeypatch.setattr(mal, "DEFAULT_CONSISTENCY_TOL", tol)
        kw = dict(seed=3, n_paths=P, store_stride=stride)
        one = mal.simulate_variational(system, x0, T, 1e-3, **kw)
        many = mal.simulate_variational(system, x0, T, 1e-3, **kw, workers=workers)
        assert len(forking) == workers - 1
        assert one.aborted.sum() + one.blown.sum() > 0
        for field_name in FIELDS:
            assert np.array_equal(_bits(getattr(many, field_name)),
                                  _bits(getattr(one, field_name))), field_name

    def test_fork_is_sized_by_step_kind(self, monkeypatch, sine_ou_k2, circles):
        # on 2 cores a variational path-step weighs 1 + 2N = 5, so malliavin's
        # 250 paths x 1000 steps fork; a plain one weighs 1, so 250 paths stay
        # in one process and 600 fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ranges = []
        fork_ranges = dyn._fork_ranges

        def recorded(run, bounds):
            ranges.append(bounds)
            return fork_ranges(run, bounds)

        monkeypatch.setattr(dyn, "_fork_ranges", recorded)
        mal.simulate_variational(sine_ou_k2.system, [0.0, 4.0], 1.0, 1e-3, seed=1,
                                 n_paths=250, store_stride=100, workers=2)
        for P in (250, 600):
            dyn.simulate_paths(circles.system, [1.0, 0.0], 1.0, 1e-3, P, seed=1,
                               store_stride=100, workers=2)
        assert ranges == [[(0, 125), (125, 250)], [(0, 250)], [(0, 300), (300, 600)]]

    def test_compiled_step_and_jacobians_per_step(self, monkeypatch, heisenberg):
        counts = {"eval_batch": 0, "jacobian_batch": 0, "heun": 0, "variational": 0}
        for name in ("eval_batch", "jacobian_batch"):
            original = getattr(vf.VectorField, name)

            def counted(self, X, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, X)

            monkeypatch.setattr(vf.VectorField, name, counted)
        system = heisenberg.system
        for key, name in (("heun", "_heun_kernel"), ("variational", "_variational_kernel")):
            kernel = getattr(system, name)

            def counted_kernel(W, out, _key=key, _kernel=kernel):
                counts[_key] += 1
                _kernel(W, out)

            monkeypatch.setitem(system.__dict__, name, counted_kernel)
        mal.simulate_variational(system, [1.0, 0.0, 0.0], 0.05, 1e-3, seed=1, n_paths=3,
                                 store_stride=10)
        # one compiled variational Heun step per step gives the state, the
        # predictor and the step's linearizations at both; the covariance
        # integrand evaluates the 2 noise fields at the 6 stored times
        assert counts == {"eval_batch": 12, "jacobian_batch": 0, "heun": 0, "variational": 50}

    def test_singular_jacobian_is_aborted(self):
        # dt DV0 = [[-1, -1], [1, -1]] makes the Heun step matrix
        # I + A + A^2/2 exactly zero, so J is finite but singular after one step
        V0 = vf.make_field(2, ["-2*x-2*y", "2*x-2*y"], ["x", "y"])
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, V0, (zero,), "singular-step")
        vp = mal.simulate_variational(system, [1.0, 0.0], 1.0, 0.5, seed=0, n_paths=2)
        assert np.array_equal(vp.jacobian, np.zeros((2, 2, 2)))
        assert vp.aborted.all() and not vp.blown.any()
        # the inverse stays the finite I that J_0 had, so |J K - I| = 1
        assert np.array_equal(vp.consistency_error(), np.ones(2))
        assert np.all(np.isfinite(vp.covariance))


# what a VariationalPath holds per path, besides its meta
FIELDS = ("times", "states", "jacobian", "covariance", "worst_jk_error", "blown", "aborted")


def _bits(a):
    """a, floats as their bit patterns."""
    a = np.asarray(a)
    return a.view(np.uint64) if a.dtype == float else a


@functools.cache
def _system(name):
    if name == "mixed-d2":
        # every Jacobian entry of every field varies with the state, so the
        # order of the sum over the noises shows in the last bit
        V0, V1, V2 = (vf.make_field(2, c, ["x", "y"]) for c in (
            ["sin(x)*y", "cos(y)+x*x"], ["exp(0.3*x)*y", "sin(x+y)"], ["x*y*y", "cos(x)*y"]))
        return dyn.SDESystem(2, V0, (V1, V2), name)
    if name == "no-noise":
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        return dyn.SDESystem(2, catalog.get("random-circles").system.drift, (zero,), name)
    if name == "ou":
        return ou_system(1.0)
    return catalog.get(name, {"sine-ou": {"k": 2.0}, "grushin": {"k": -1.0}}.get(name)).system


_coordinate = st.one_of(st.floats(-3, 3), st.sampled_from(
    [0.0, -0.0, 1e155, -1e200, 1e300, math.inf, -math.inf, math.nan]))
_increment = st.one_of(st.floats(-0.2, 0.2), st.sampled_from([0.0, -0.0, 1e300, math.nan]))


def _check_linearization(system, X, dB, dt):
    """The variational kernel's rows and step_matrix against the array arithmetic."""
    N, d = system.dim, system.d
    W = dyn._heun_workspace(len(X), N, d, dt)
    W[:, :N], W[:, N:N + d] = X, dB
    out = np.empty((len(X), 2 + 2 * N, N))
    system._variational_kernel(W, out)
    Xn, Xp = dyn._heun_step(system, X, dB, dt)
    with np.errstate(all="ignore"):
        G = reference_variational.step_linearization(system, X, dB, dt)
        Gp = reference_variational.step_linearization(system, Xp, dB, dt)
        M = reference_variational.step_matrix(system, X, dB, dt, Xp)
        got = mal.step_matrix(system, X, dB, dt)
    assert_same_bits(out[:, 0], Xn)
    assert_same_bits(out[:, 1], Xp)
    assert_same_bits(out[:, 2:2 + N], G)
    assert_same_bits(out[:, 2 + N:], Gp)
    assert_same_bits(got, M)


class TestCompiledLinearization:
    @pytest.mark.parametrize("name", ["sine-ou", "grushin", "ufg-heisenberg", "mixed-d2"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_is_the_array_arithmetic_to_the_bit(self, name, data):
        system = _system(name)
        N, d = system.dim, system.d
        rows = data.draw(st.integers(1, 8))
        X = np.array(data.draw(st.lists(st.lists(_coordinate, min_size=N, max_size=N),
                                        min_size=rows, max_size=rows)))
        dB = np.array(data.draw(st.lists(st.lists(_increment, min_size=d, max_size=d),
                                         min_size=rows, max_size=rows)))
        dt = data.draw(st.sampled_from([1e-3, 0.01, 1 / 3, 0.5]))
        _check_linearization(system, X, dB, dt)

    # random fields with up to three noises, where the order of the sum over
    # the noises and of the products in each term shows in the last bit
    @given(heun_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_kernel_is_the_array_arithmetic_to_the_bit(self, case):
        _check_linearization(*case)

    # consistency tolerances of 2.3e-16 and 2e-16 sit among the paths' |JK - I|
    # errors (2^-52 on every sine-ou path under the 2 x 2 closed form, and
    # multiples of 2^-53 up to 3e-16 under LAPACK's 3 x 3 inverse), so some
    # paths abort, ufg-heisenberg's at different stored steps, and others run
    # to the end; the riccati drift blows up 33 of its 40 paths, and mixed-d2
    # one of 20
    @pytest.mark.parametrize("name, x0, T, P, stride, tol, aborted, blown", [
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 2.3e-16, 1, 0),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 7, 2e-16, 10, 0),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 1, 2e-16, 12, 0),
        ("grushin", [0.2, 1.5], 0.3, 20, 3, 1e-6, 0, 0),
        ("mixed-d2", [0.3, 0.8], 0.3, 20, 2, 1e-6, 0, 1),
        ("riccati", [0.9], 1.5, 40, 10, 1e-6, 0, 33),
    ])
    def test_simulation_is_the_reference_loop(self, monkeypatch, name, x0, T, P, stride, tol,
                                              aborted, blown):
        if name == "riccati":
            system = dyn.SDESystem(1, vf.make_field(1, ["x*x"], ["x"]),
                                   (vf.make_field(1, ["0.5"], ["x"]),), name)
        else:
            system = _system(name)
        monkeypatch.setattr(mal, "DEFAULT_CONSISTENCY_TOL", tol)
        vp = mal.simulate_variational(system, x0, T, 1e-3, seed=3, n_paths=P,
                                      store_stride=stride)
        want = reference_variational.simulate_variational(system, x0, T, 1e-3, 3, P,
                                                          stride, tol)
        for field_name in ("times", "states", "blown", "aborted"):
            assert np.array_equal(getattr(vp, field_name), getattr(want, field_name)), field_name
        assert np.array_equal(vp.jacobian, want.jacobians[:, -1])
        assert (int(vp.aborted.sum()), int(vp.blown.sum())) == (aborted, blown)


def _poisoned(refresh):
    """refresh with a nan in K for rows whose J_01 is below -0.5 and an
    infinite K for rows whose J_01 is above 0.5: on sine-ou J_01 starts at 0,
    so a path is poisoned from the stored step where it first leaves
    [-0.5, 0.5] on, whatever chunk or worker runs it."""
    def refresh_poisoned(J, K, alive):
        out = refresh(J, K, alive).copy()
        out[J[:, 0, 1] < -0.5, 1, 0] = math.nan
        out[J[:, 0, 1] > 0.5] = math.inf
        return out

    return refresh_poisoned


class TestTimeBlocks:
    """The covariance quadrature, J_T and the worst |J K - I|, accumulated
    one stored step at a time during the run, against the whole-grid
    formulas on the records of the reference loop, at every chunk size and
    with one and two workers."""

    # T stored times: sine-ou 201, grushin 101 and 101, ufg-heisenberg 30,
    # sine-ou with one aborted path 201, mixed-d2 with one blown path 151,
    # no-noise 251 (every term a signed zero), ou 201 (N = 1, where numpy
    # sums the terms pairwise)
    CASES = [
        ("sine-ou", [0.0, 4.0], 0.2, 12, 1, 1e-6),
        ("grushin", [0.0, 1.0], 0.3, 10, 3, 1e-6),
        ("grushin", [0.2, 1.5], 1.0, 16, 10, 1e-6),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 7, 2e-16),
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 2.3e-16),
        ("mixed-d2", [0.3, 0.8], 0.3, 20, 2, 1e-6),
        ("no-noise", [1.0, 0.0], 0.25, 3, 1, 1e-6),
        ("ou", [0.1], 0.2, 6, 1, 1e-6),
    ]

    @staticmethod
    def _check(case, chunk, monkeypatch, compare):
        """The run of `case` at one and two workers and CHUNK_PATHS = chunk
        against the reference loop's records, each output by compare."""
        name, x0, T, P, stride, tol = case
        system = _system(name)
        with np.errstate(all="ignore"):
            ref = reference_variational.simulate_variational(system, x0, T, 1e-3, 3, P,
                                                             stride, tol)
            want = {"covariance": reference_variational.reduced_covariance(ref, system),
                    "jacobian": ref.jacobians[:, -1],
                    "worst_jk_error": reference_variational.consistency_error(ref),
                    "states": ref.states, "blown": ref.blown, "aborted": ref.aborted}
        monkeypatch.setattr(dyn, "CHUNK_PATHS", chunk)
        monkeypatch.setattr(mal, "DEFAULT_CONSISTENCY_TOL", tol)
        for workers in (1, 2):
            vp = mal.simulate_variational(system, x0, T, 1e-3, seed=3, n_paths=P,
                                          store_stride=stride, workers=workers)
            for field_name, a in want.items():
                compare(getattr(vp, field_name), a)
        return want

    # 1 and 7 paths per chunk split every case's paths, 64 and 10**6 keep
    # them in one chunk
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**6])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-P{c[3]}-s{c[4]}")
    def test_blocks_are_the_whole_grid_to_the_bit(self, forking, monkeypatch, case, chunk):
        def compare(got, want):
            assert np.array_equal(_bits(got), _bits(want))

        self._check(case, chunk, monkeypatch, compare)
        assert len(forking) == 1

    # the 200 and 300 steps of the aborting and the blowing-up case drawn in
    # blocks of one step, of 7 and 64 steps with a short last block, of the
    # whole horizon and of more than it, in chunks of 7 paths
    @pytest.mark.parametrize("block", [1, 7, 64, "n_steps", "n_steps + 1"])
    @pytest.mark.parametrize("case", [CASES[4], CASES[5]], ids=lambda c: c[0])
    def test_step_blocks_are_the_whole_grid_to_the_bit(self, forking, monkeypatch, case, block):
        def compare(got, want):
            assert np.array_equal(_bits(got), _bits(want))

        n_steps = round(case[2] / 1e-3)
        block = {"n_steps": n_steps, "n_steps + 1": n_steps + 1}.get(block, block)
        monkeypatch.setattr(dyn, "STEP_BLOCK", block)
        self._check(case, 7, monkeypatch, compare)
        assert len(forking) == 1

    @pytest.mark.parametrize("chunk", [1, 7, 10**6])
    def test_non_finite_inverses(self, forking, monkeypatch, chunk):
        monkeypatch.setattr(mal, "_refresh_inverse", _poisoned(mal._refresh_inverse))
        monkeypatch.setattr(reference_variational, "refresh_inverse",
                            _poisoned(reference_variational.refresh_inverse))
        want = self._check(self.CASES[0], chunk, monkeypatch, assert_same_bits)
        assert len(forking) == 1
        nan = np.isnan(want["covariance"]).reshape(12, 4)
        # an infinite K meets the noise field's zero in K V_1: every entry nan
        assert nan.all(axis=1).any()
        # a nan in K's second row leaves C_00 finite
        assert (nan.any(axis=1) & ~nan.all(axis=1)).any()
        assert not nan.any(axis=1).all() and np.isnan(want["worst_jk_error"]).any()
        assert want["aborted"].any() and not want["aborted"].all()

    def test_peak_memory_is_below_one_store(self, grushin_minus1):
        system = grushin_minus1.system
        P, T, N = 250, 1001, 2
        store = P * T * N * N * 8  # bytes of one (P, T, N, N) array: 8 MB

        def run():
            vp = mal.simulate_variational(system, [0.2, 1.5], 1.0, 1e-3, seed=1, n_paths=P)
            assert vp.states.shape == (P, T, N)
            mal.malliavin_matrix(vp)

        assert traced_peak(run) < store


def _random_matrices(rng, P, singular_values):
    """P random matrices Q1 diag(s) Q2 with orthogonal Q1, Q2."""
    N = len(singular_values)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((P, N, N)))[0] for _ in range(2))
    return (Q1 * singular_values) @ Q2


def _singular_linear(N):
    """A linear system whose Heun step matrix at dt = 0.5 is singular: its
    drift Jacobian A gives G = dt A with the eigenvalues -1 +- i, on which
    I + G + G^2 / 2 vanishes (for N = 3, a 2 x 2 block; the third row is
    regular).  Every entry is exact in binary, so J_1 is exactly singular."""
    A = [[-2.0, 2.0], [-2.0, -2.0]] if N == 2 else [[-2.0, 2.0, 0.0], [-2.0, -2.0, 0.0],
                                                     [0.0, 0.0, -1.0]]
    return catalog.get("linear", {"A": A}).system


class TestClosedFormInverse:
    """The stored inverse K = adj(J) / det(J) for N <= 2, and LAPACK's for
    larger N and for a det that is not a normal float."""

    U = 2.0 ** -53

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("N", [1, 2])
    def test_inverse_is_within_cond_u(self, N, cond):
        P = 200
        J = _random_matrices(np.random.default_rng(29), P, np.geomspace(1.0, 1 / cond, N))
        K = mal._refresh_inverse(J, np.zeros_like(J), np.ones(P, dtype=bool))
        Jl = J.astype(np.longdouble)
        want = np.empty_like(Jl)
        for p in range(P):
            adj, det = reference_variational._adjugate([list(row) for row in Jl[p]])
            want[p] = [[a / det for a in row] for row in adj]
        err = np.max(np.abs(K - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))
        assert np.all(err <= 4 * N * cond * self.U)

        def residual(X):
            return np.max(np.abs(Jl @ X.astype(np.longdouble) - np.eye(N)))

        assert residual(K) <= 2 * max(residual(np.linalg.inv(J)), self.U)

    def test_three_dimensions_are_lapacks_to_the_bit(self):
        J = _random_matrices(np.random.default_rng(3), 50, np.array([1.0, 1e-2, 1e-4]))
        K = mal._refresh_inverse(J, np.zeros_like(J), np.ones(50, dtype=bool))
        assert np.array_equal(K, np.linalg.inv(J))

    # a well-conditioned J of entries near 1e-160 has a det near 1e-320,
    # subnormal and good to about 1e-3; LU inverts it as well as any other
    @pytest.mark.parametrize("N, scale", [(2, 1e-160), (2, 1e-155), (3, 1e-105)])
    def test_subnormal_det_goes_to_lapack(self, N, scale):
        J = scale * _random_matrices(np.random.default_rng(5), 8, np.ones(N))
        J[0, :2, :2] = scale * np.array([[0.6, -0.8], [0.8, 0.6]])
        J[0, 2:, :] = J[0, :, 2:] = 0.0
        if N == 3:
            J[0, 2, 2] = scale
        K = mal._refresh_inverse(J, np.zeros_like(J), np.ones(8, dtype=bool))
        want = np.linalg.inv(J)
        assert np.all(np.abs(K - want) <= 4 * self.U * np.abs(want).max(axis=(1, 2))[:, None, None])
        err = np.abs(J @ K - np.eye(N)).max(axis=(1, 2))
        assert np.all(err <= 4 * N * self.U)
        with np.errstate(all="ignore"):
            want = reference_variational.refresh_inverse(J, np.zeros_like(J), np.ones(8, dtype=bool))
        assert np.array_equal(_bits(K), _bits(want))

    def test_contracting_flow_keeps_its_inverse_accurate(self):
        # the Heun step matrix shrinks J by about 0.819 a step, so after 1,820
        # steps J is near 1e-158 and its det near 1e-316, subnormal; the tiny
        # noise keeps K V V^T K^T finite
        system = catalog.get("linear", {"A": [[-2.0, 1.0], [-1.0, -2.0]],
                                        "C": [[1e-20, 0.0]]}).system
        vp = mal.simulate_variational(system, [0.0, 0.0], 182.0, 0.1, seed=3, n_paths=2,
                                      store_stride=10)
        assert 1e-162 < np.abs(vp.jacobian).max() < 1e-154
        assert not vp.aborted.any() and not vp.blown.any()
        assert np.all(vp.worst_jk_error <= 8 * self.U)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_singular_and_dead_rows_keep_their_inverse(self, N):
        rng = np.random.default_rng(N)
        J = _random_matrices(rng, 4, np.ones(N))
        J[1] = 0.0                                              # alive, det 0
        J[2] = np.outer(np.arange(1, N + 1), np.arange(2, N + 2))  # rank 1: det 0 for N > 1
        J[3] = np.eye(N)                                        # regular, but not alive
        K = rng.standard_normal((4, N, N))
        alive = np.array([True, True, True, False])
        with np.errstate(all="ignore"):
            out = mal._refresh_inverse(J, K, alive)
            want = reference_variational.refresh_inverse(J, K, alive)
        assert np.allclose(out[0] @ J[0], np.eye(N), rtol=0, atol=1e-14)
        if N == 1:
            assert out[2, 0, 0] == 1 / J[2, 0, 0]
        kept = [1, 3] if N == 1 else [1, 2, 3]
        assert np.array_equal(out[kept], K[kept])
        assert np.array_equal(_bits(out), _bits(want))

    @pytest.mark.parametrize("N", [2, 3])
    def test_exactly_singular_jacobian_aborts(self, N):
        vp = mal.simulate_variational(_singular_linear(N), np.zeros(N), 1.0, 0.5, seed=1,
                                      n_paths=3)
        # J_1 is singular, so K keeps J_0^{-1} = I and |J_1 K - I| is 1
        assert vp.aborted.all() and not vp.blown.any()
        assert np.array_equal(vp.worst_jk_error, np.ones(3))

    @pytest.mark.parametrize("system, x0, lapack", [
        ("ou", [0.1], False),
        ("sine-ou", [0.0, 4.0], False),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], True),
        ("linear4", [0.0] * 4, True),
    ])
    def test_lapack_is_called_only_past_two_dimensions(self, monkeypatch, system, x0, lapack):
        if system == "linear4":
            system = catalog.get("linear", {"A": -np.eye(4), "C": np.eye(4)[:1]}).system
        else:
            system = _system(system)
        inv, count = np.linalg.inv, []

        def counted(a):
            count.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        vp = mal.simulate_variational(system, x0, 0.2, 1e-3, seed=2, n_paths=6, store_stride=10)
        assert not vp.aborted.any()
        assert bool(count) == lapack


class TestReducedCovariance:
    def test_ou_closed_form(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.1], 1.0, 1e-3, seed=5, n_paths=6)
        C = vp.covariance
        want = (math.exp(2 * k) - 1) / (2 * k)
        assert np.max(np.abs(C[:, 0, 0] / want - 1)) <= 0.02

    def test_zero_noise(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, circles.system.drift, (zero,), "no-noise")
        vp = mal.simulate_variational(system, [1.0, 0.0], 0.3, 1e-3, seed=6, n_paths=3)
        assert np.max(np.abs(vp.covariance)) == 0.0

    def test_grushin_zero_border(self, grushin_minus1):
        vp = mal.simulate_variational(grushin_minus1.system, [0.0, 1.0], 1.0, 1e-3,
                                      seed=7, n_paths=10)
        C = vp.covariance
        assert np.max(np.abs(C[:, 1, :])) == 0.0
        assert np.max(np.abs(C[:, :, 1])) == 0.0


class TestMalliavinMatrix:
    def test_ou_closed_form(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.1], 1.0, 1e-3, seed=8, n_paths=6)
        M = mal.malliavin_matrix(vp)
        want = (1 - math.exp(-2 * k)) / (2 * k)
        assert np.max(np.abs(M[:, 0, 0] / want - 1)) <= 0.02

    def test_zero_noise_zero_matrix(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, circles.system.drift, (zero,), "no-noise")
        vp = mal.simulate_variational(system, [1.0, 0.0], 0.3, 1e-3, seed=9, n_paths=3)
        assert np.max(np.abs(mal.malliavin_matrix(vp))) == 0.0

    def test_sine_ou_border_vanishes_pathwise(self, sine_ou_k2):
        vp = mal.simulate_variational(sine_ou_k2.system, [0.0, 4.0], 1.0, 1e-3,
                                      seed=10, n_paths=25)
        M = mal.malliavin_matrix(vp)
        for p in range(25):
            scale = np.max(np.abs(M[p, 0, 0]))
            assert np.max(np.abs(M[p, 1, :])) <= 1e-6 * scale

    def test_psd_invariant(self, sine_ou_k2, grushin_minus1):
        for entry in (sine_ou_k2, grushin_minus1):
            vp = mal.simulate_variational(entry.system, [0.1, 1.2], 0.8, 1e-3,
                                          seed=11, n_paths=8)
            M = mal.malliavin_matrix(vp)
            eig = np.linalg.eigvalsh(M)
            assert np.all(eig[:, 0] >= -1e-9 * np.maximum(eig[:, -1], 1e-30))

    def test_two_quadrature_routes_agree(self, sine_ou_k2, grushin_minus1):
        # J-form J_T K_s V(X_s) versus forward propagation of the linearized
        # one-step maps from each s (the derivative-process route)
        for entry in (sine_ou_k2, grushin_minus1):
            system = entry.system
            vp = mal.simulate_variational(system, [0.2, 1.5], 0.5, 1e-3, seed=12,
                                          n_paths=10)
            M_jform = mal.malliavin_matrix(vp)
            T, N = vp.states.shape[1], vp.states.shape[2]
            for p in range(10):
                # path p's per-step increments, drawn as the ensemble draws them
                rng = np.random.Generator(np.random.PCG64(dyn.path_seed(12, p)))
                dB = rng.standard_normal((T - 1, system.d)) * math.sqrt(vp.dt)
                D = system.noises[0].eval_batch(vp.states[p]).copy()
                for step in range(T - 1):
                    M1 = mal.step_matrix(system, vp.states[p, step][None, :],
                                         dB[step][None, :], vp.dt)[0]
                    D[: step + 1] = D[: step + 1] @ M1.T
                integ = D[:, :, None] * D[:, None, :]
                M_direct = np.trapezoid(integ, x=vp.times, axis=0)
                scale = max(np.max(np.abs(M_jform[p])), 1e-30)
                assert np.max(np.abs(M_direct - M_jform[p])) <= 1e-6 * scale


class TestBlockCheck:
    def test_identity_matrix(self):
        rep = mal.block_and_rank_check(np.eye(3), 3)
        assert rep.block_ok and rep.invertible and rep.upper_cond == 1.0

    def test_grushin_upper_block_positive(self, grushin_minus1):
        vp = mal.simulate_variational(grushin_minus1.system, [0.0, 1.0], 1.0, 1e-3,
                                      seed=13, n_paths=10)
        M = mal.malliavin_matrix(vp)
        reports, agg = mal.block_check_ensemble(M, 1)
        assert agg["block_ok_fraction"] == 1.0
        assert agg["invertible_fraction"] == 1.0
        assert all(r.matrix[0, 0] > 0 for r in reports)

    def test_degenerate_start_detected(self, sine_ou_k2):
        # starting on the plane where the noise field vanishes: no covariance
        vp = mal.simulate_variational(sine_ou_k2.system, [0.5, 0.0], 1.0, 1e-3,
                                      seed=14, n_paths=5)
        M = mal.malliavin_matrix(vp)
        assert np.max(np.abs(M)) <= 1e-12
        rep = mal.block_and_rank_check(M[0], 1)
        assert not rep.invertible

    def test_bad_split(self):
        with pytest.raises(ValueError):
            mal.block_and_rank_check(np.eye(2), 0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("cond_threshold", [10.0, mal.DEFAULT_COND_THRESHOLD])
    def test_batched_check_is_the_per_matrix_check_to_the_bit(self, N, cond_threshold):
        rng = np.random.default_rng(N)
        A = rng.standard_normal((30, N, N))
        M = A @ np.swapaxes(A, -1, -2)
        M[:10, 1:, :1] *= 1e-9           # within the split-1 block form
        M[:10, :1, 1:] *= 1e-9
        M[10] = 0.0                      # zero upper block, zero off-block
        M[11, :1, :1] = 0.0              # zero upper block, off-block entries
        M[12] = np.diag(np.r_[1.0, np.zeros(N - 1)])  # infinite condition past n = 1
        M[13, 0] *= 1e8                  # ill-conditioned
        seen = []
        for n in range(1, N + 1):
            reports, agg = mal.block_check_ensemble(M, n, cond_threshold)
            want = [reference_variational.block_and_rank_check(m, n, cond_threshold)
                    for m in M]
            seen += want
            got = [(r.off_block_max, r.off_block_rel, r.upper_cond, r.block_ok, r.invertible)
                   for r in reports]
            assert _bits(np.array(got, dtype=float)).tolist() == \
                _bits(np.array(want, dtype=float)).tolist()
            assert all(type(v) is t for g in got for v, t in zip(g, (float,) * 3 + (bool,) * 2))
            assert agg == {"paths": 30,
                           "block_ok_fraction": sum(w[3] for w in want) / 30,
                           "invertible_fraction": sum(w[4] for w in want) / 30}
            for p in (0, 10, 11, 12, 13):
                one = mal.block_and_rank_check(M[p], n, cond_threshold)
                assert one.to_dict() == reports[p].to_dict()
        # the cases the oracle is there for occur: an infinite condition, both
        # invertible verdicts and, past N = 1, an infinite off-block ratio and
        # both block verdicts
        seen = np.array(seen, dtype=float)
        assert np.isinf(seen[:, 2]).any() and set(seen[:, 4]) == {0.0, 1.0}
        assert N == 1 or (np.isinf(seen[:, 1]).any() and set(seen[:, 3]) == {0.0, 1.0})

    def test_nan_off_the_block_fails_the_block_check(self):
        # a nan right of the upper block, below it or both is the off-block
        # maximum, whatever the finite entries on the other side
        M = np.array([[[1.0, math.nan], [0.5, 1.0]], [[1.0, 0.5], [math.nan, 1.0]],
                      [[1.0, math.nan], [0.0, 0.0]], [[1.0, math.nan], [math.nan, 1.0]]])
        reports, agg = mal.block_check_ensemble(M, 1)
        for r, m in zip(reports, M):
            want = reference_variational.block_and_rank_check(m, 1, mal.DEFAULT_COND_THRESHOLD)
            got = (r.off_block_max, r.off_block_rel, r.upper_cond, r.block_ok, r.invertible)
            assert_same_bits(np.array(got, dtype=float), np.array(want, dtype=float))
            assert math.isnan(r.off_block_max) and not r.block_ok
        assert agg["block_ok_fraction"] == 0.0
        assert not mal.block_and_rank_check([[1.0, math.nan], [0.0, 0.0]], 1).block_ok

    @pytest.mark.parametrize("matrices, n", [
        (np.eye(2)[None], 3), (np.ones((1, 2, 3)), 1), (np.eye(2), 1), (np.ones(3), 1),
    ])
    def test_bad_shapes_rejected(self, matrices, n):
        with pytest.raises(ValueError, match="need a square matrix"):
            mal.block_check_ensemble(matrices, n)
