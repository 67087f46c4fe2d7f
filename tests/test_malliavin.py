import dataclasses
import functools
import math

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
        assert np.max(np.abs(vp.jacobians - np.eye(2))) == 0.0
        assert np.max(np.abs(vp.inverses - np.eye(2))) == 0.0

    def test_ou_jacobian_decay(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.3], 1.0, 1e-3, seed=2, n_paths=8)
        assert np.max(np.abs(vp.jacobians[:, -1, 0, 0] - math.exp(-k))) <= 1e-6

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
        # the deterministic block never picks up dependence on the leading one
        assert np.max(np.abs(vp.jacobians[:, :, 1, 0])) == 0.0


    def test_chunking_is_bit_identical(self, monkeypatch, sine_ou_k2):
        kw = dict(x0=[0.2, 1.5], T=0.3, dt=1e-3, seed=17, n_paths=20, store_stride=10)
        one = mal.simulate_variational(sine_ou_k2.system, **kw)
        monkeypatch.setattr(dyn, "CHUNK_PATHS", 7)
        many = mal.simulate_variational(sine_ou_k2.system, **kw)
        for name in ("times", "states", "jacobians", "inverses", "blown", "aborted"):
            assert np.array_equal(getattr(one, name), getattr(many, name)), name

    # sine-ou aborts 12 of 30 paths at different stored steps (see
    # test_simulation_is_the_reference_loop); riccati blows up 33 of 40
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name, x0, T, P, stride, tol", [
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 1.3e-16),
        ("riccati", [0.9], 1.5, 40, 10, 1e-6),
    ])
    def test_forked_workers_are_bit_identical(self, forking, name, x0, T, P, stride, tol,
                                              workers):
        if name == "riccati":
            system = dyn.SDESystem(1, vf.make_field(1, ["x*x"], ["x"]),
                                   (vf.make_field(1, ["0.5"], ["x"]),), name)
        else:
            system = _system(name)
        kw = dict(seed=3, n_paths=P, store_stride=stride, consistency_tol=tol)
        one = mal.simulate_variational(system, x0, T, 1e-3, **kw)
        many = mal.simulate_variational(system, x0, T, 1e-3, **kw, workers=workers)
        assert len(forking) == workers - 1
        assert one.aborted.sum() + one.blown.sum() > 0
        for field_name in ("times", "states", "jacobians", "inverses", "blown", "aborted"):
            assert np.array_equal(getattr(many, field_name), getattr(one, field_name)), field_name
        assert many.meta == one.meta

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
        # predictor and the step's linearizations at both
        assert counts == {"eval_batch": 0, "jacobian_batch": 0, "heun": 0, "variational": 50}

    def test_singular_jacobian_is_aborted(self):
        # dt DV0 = [[-1, -1], [1, -1]] makes the Heun step matrix
        # I + A + A^2/2 exactly zero, so J is finite but singular after one step
        V0 = vf.make_field(2, ["-2*x-2*y", "2*x-2*y"], ["x", "y"])
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, V0, (zero,), "singular-step")
        vp = mal.simulate_variational(system, [1.0, 0.0], 1.0, 0.5, seed=0, n_paths=2)
        assert np.array_equal(vp.jacobians[:, 1], np.zeros((2, 2, 2)))
        assert vp.aborted.all() and not vp.blown.any()
        assert np.all(np.isfinite(vp.inverses))


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

    # consistency tolerances of 1.3e-16 and 2e-16 sit among the paths' |JK - I|
    # errors (multiples of 2^-53 and up to 3e-16), so some paths abort at
    # different stored steps and others run to the end; the riccati drift
    # blows up 33 of its 40 paths, and mixed-d2 one of 20
    @pytest.mark.parametrize("name, x0, T, P, stride, tol, aborted, blown", [
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 1.3e-16, 12, 0),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 7, 2e-16, 10, 0),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 1, 2e-16, 12, 0),
        ("grushin", [0.2, 1.5], 0.3, 20, 3, 1e-6, 0, 0),
        ("mixed-d2", [0.3, 0.8], 0.3, 20, 2, 1e-6, 0, 1),
        ("riccati", [0.9], 1.5, 40, 10, 1e-6, 0, 33),
    ])
    def test_simulation_is_the_reference_loop(self, name, x0, T, P, stride, tol, aborted,
                                              blown):
        if name == "riccati":
            system = dyn.SDESystem(1, vf.make_field(1, ["x*x"], ["x"]),
                                   (vf.make_field(1, ["0.5"], ["x"]),), name)
        else:
            system = _system(name)
        vp = mal.simulate_variational(system, x0, T, 1e-3, seed=3, n_paths=P,
                                      store_stride=stride, consistency_tol=tol)
        want = reference_variational.simulate_variational(system, x0, T, 1e-3, 3, P,
                                                          stride, tol)
        for field_name, a in zip(("times", "states", "jacobians", "inverses", "blown",
                                  "aborted"), want):
            assert np.array_equal(getattr(vp, field_name), a), field_name
        assert (int(vp.aborted.sum()), int(vp.blown.sum())) == (aborted, blown)


def _nonfinite(vp):
    """vp with a nan inverse, inverses that turn infinite and a nan Jacobian."""
    inverses, jacobians = vp.inverses.copy(), vp.jacobians.copy()
    inverses[0, 5, 1, 0] = math.nan
    inverses[1, 17:] = math.inf
    jacobians[2, 3, 0, 1] = math.nan
    return dataclasses.replace(vp, inverses=inverses, jacobians=jacobians)


class TestTimeBlocks:
    """The covariance quadrature and the consistency check, walked in time
    blocks, against their whole-grid formulas."""

    # T stored times: sine-ou 201, grushin 101 and 101, ufg-heisenberg 30,
    # sine-ou with 12 aborted paths 201, mixed-d2 with one blown path 151,
    # no-noise 251 (every term a signed zero), ou 201 (N = 1, where numpy
    # sums the terms pairwise)
    CASES = [
        ("sine-ou", [0.0, 4.0], 0.2, 12, 1, 1e-6),
        ("grushin", [0.0, 1.0], 0.3, 10, 3, 1e-6),
        ("grushin", [0.2, 1.5], 1.0, 16, 10, 1e-6),
        ("ufg-heisenberg", [1.0, 0.0, 0.0], 0.2, 40, 7, 2e-16),
        ("sine-ou", [0.2, 1.5], 0.2, 30, 1, 1.3e-16),
        ("mixed-d2", [0.3, 0.8], 0.3, 20, 2, 1e-6),
        ("no-noise", [1.0, 0.0], 0.25, 3, 1, 1e-6),
        ("ou", [0.1], 0.2, 6, 1, 1e-6),
    ]

    @staticmethod
    def _run(name, x0, T, P, stride, tol):
        return mal.simulate_variational(_system(name), x0, T, 1e-3, seed=3, n_paths=P,
                                        store_stride=stride, consistency_tol=tol)

    # 1, 7 and 64 stored steps per block divide none of the grids' T or T - 1;
    # 10**6 puts every grid in one block
    @pytest.mark.parametrize("steps", [1, 7, 64, 10**6])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-P{c[3]}-s{c[4]}")
    def test_blocks_are_the_whole_grid_to_the_bit(self, monkeypatch, case, steps):
        system, vp = _system(case[0]), self._run(*case)
        P, _, N = vp.states.shape
        want = reference_variational.reduced_covariance(vp, system)
        want_err = reference_variational.consistency_error(vp)
        monkeypatch.setattr(mal, "BLOCK_ENTRIES", steps * P * N * N)
        assert np.array_equal(mal.reduced_covariance(vp, system).view(np.uint64),
                              want.view(np.uint64))
        assert np.array_equal(vp.consistency_error().view(np.uint64), want_err.view(np.uint64))

    @pytest.mark.parametrize("steps", [1, 7, 10**6])
    def test_non_finite_inverses(self, monkeypatch, steps):
        case = self.CASES[0]
        system, vp = _system(case[0]), _nonfinite(self._run(*case))
        monkeypatch.setattr(mal, "BLOCK_ENTRIES", steps * 12 * 4)
        with np.errstate(all="ignore"):
            want = reference_variational.reduced_covariance(vp, system)
            want_err = reference_variational.consistency_error(vp)
            got, got_err = mal.reduced_covariance(vp, system), vp.consistency_error()
        assert np.isnan(want[:2]).any() and np.isnan(want_err[:3]).all()
        assert_same_bits(got, want)
        assert_same_bits(got_err, want_err)

    def test_peak_memory_is_a_block(self, sine_ou_k2):
        vp = mal.simulate_variational(sine_ou_k2.system, [0.0, 4.0], 1.0, 1e-3, seed=1,
                                      n_paths=250)
        P, T, N = vp.states.shape
        whole = P * T * N * N * 8  # bytes of one (P, T, N, N) integrand: 8 MB
        assert traced_peak(lambda: mal.reduced_covariance(vp, sine_ou_k2.system)) < whole / 2
        assert traced_peak(vp.consistency_error) < whole / 4


class TestReducedCovariance:
    def test_ou_closed_form(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.1], 1.0, 1e-3, seed=5, n_paths=6)
        C = mal.reduced_covariance(vp, ou_system(k))
        want = (math.exp(2 * k) - 1) / (2 * k)
        assert np.max(np.abs(C[:, 0, 0] / want - 1)) <= 0.02

    def test_zero_noise(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, circles.system.drift, (zero,), "no-noise")
        vp = mal.simulate_variational(system, [1.0, 0.0], 0.3, 1e-3, seed=6, n_paths=3)
        C = mal.reduced_covariance(vp, system)
        assert np.max(np.abs(C)) == 0.0

    def test_grushin_zero_border(self, grushin_minus1):
        vp = mal.simulate_variational(grushin_minus1.system, [0.0, 1.0], 1.0, 1e-3,
                                      seed=7, n_paths=10)
        C = mal.reduced_covariance(vp, grushin_minus1.system)
        assert np.max(np.abs(C[:, 1, :])) == 0.0
        assert np.max(np.abs(C[:, :, 1])) == 0.0


class TestMalliavinMatrix:
    def test_ou_closed_form(self):
        k = 1.0
        vp = mal.simulate_variational(ou_system(k), [0.1], 1.0, 1e-3, seed=8, n_paths=6)
        M = mal.malliavin_matrix(vp, ou_system(k))
        want = (1 - math.exp(-2 * k)) / (2 * k)
        assert np.max(np.abs(M[:, 0, 0] / want - 1)) <= 0.02

    def test_zero_noise_zero_matrix(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, circles.system.drift, (zero,), "no-noise")
        vp = mal.simulate_variational(system, [1.0, 0.0], 0.3, 1e-3, seed=9, n_paths=3)
        assert np.max(np.abs(mal.malliavin_matrix(vp, system))) == 0.0

    def test_sine_ou_border_vanishes_pathwise(self, sine_ou_k2):
        vp = mal.simulate_variational(sine_ou_k2.system, [0.0, 4.0], 1.0, 1e-3,
                                      seed=10, n_paths=25)
        M = mal.malliavin_matrix(vp, sine_ou_k2.system)
        for p in range(25):
            scale = np.max(np.abs(M[p, 0, 0]))
            assert np.max(np.abs(M[p, 1, :])) <= 1e-6 * scale

    def test_psd_invariant(self, sine_ou_k2, grushin_minus1):
        for entry in (sine_ou_k2, grushin_minus1):
            vp = mal.simulate_variational(entry.system, [0.1, 1.2], 0.8, 1e-3,
                                          seed=11, n_paths=8)
            M = mal.malliavin_matrix(vp, entry.system)
            eig = np.linalg.eigvalsh(M)
            assert np.all(eig[:, 0] >= -1e-9 * np.maximum(eig[:, -1], 1e-30))

    def test_two_quadrature_routes_agree(self, sine_ou_k2, grushin_minus1):
        # J-form J_T K_s V(X_s) versus forward propagation of the linearized
        # one-step maps from each s (the derivative-process route)
        for entry in (sine_ou_k2, grushin_minus1):
            system = entry.system
            vp = mal.simulate_variational(system, [0.2, 1.5], 0.5, 1e-3, seed=12,
                                          n_paths=10)
            M_jform = mal.malliavin_matrix(vp, system)
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
        M = mal.malliavin_matrix(vp, grushin_minus1.system)
        reports, agg = mal.block_check_ensemble(M, 1)
        assert agg["block_ok_fraction"] == 1.0
        assert agg["invertible_fraction"] == 1.0
        assert all(r.matrix[0, 0] > 0 for r in reports)

    def test_degenerate_start_detected(self, sine_ou_k2):
        # starting on the plane where the noise field vanishes: no covariance
        vp = mal.simulate_variational(sine_ou_k2.system, [0.5, 0.0], 1.0, 1e-3,
                                      seed=14, n_paths=5)
        M = mal.malliavin_matrix(vp, sine_ou_k2.system)
        assert np.max(np.abs(M)) <= 1e-12
        rep = mal.block_and_rank_check(M[0], 1)
        assert not rep.invertible

    def test_bad_split(self):
        with pytest.raises(ValueError):
            mal.block_and_rank_check(np.eye(2), 0)
