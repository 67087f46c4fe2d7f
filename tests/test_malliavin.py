import functools
import math

import numpy as np
import pytest

from ufgsim import dynamics as dyn, fields as vf, malliavin as mal


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
        monkeypatch.setattr(mal, "_run_ensemble",
                            functools.partial(dyn._run_ensemble, chunk_size=7))
        many = mal.simulate_variational(sine_ou_k2.system, **kw)
        for name in ("times", "states", "jacobians", "inverses", "increments",
                     "blown", "aborted"):
            assert np.array_equal(getattr(one, name), getattr(many, name)), name

    def test_field_evaluations_per_step(self, monkeypatch, heisenberg):
        counts = {"eval_batch": 0, "jacobian_batch": 0}
        for name in counts:
            original = getattr(vf.VectorField, name)

            def counted(self, X, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, X)

            monkeypatch.setattr(vf.VectorField, name, counted)
        system = heisenberg.system
        mal.simulate_variational(system, [1.0, 0.0, 0.0], 0.05, 1e-3, seed=1, n_paths=3,
                                 store_stride=10)
        # drift and noises at X and at the shared Heun predictor, once each
        assert counts == {"eval_batch": 50 * 2 * (1 + system.d),
                          "jacobian_batch": 50 * 2 * (1 + system.d)}

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
                D = system.noises[0].eval_batch(vp.states[p]).copy()
                for step in range(T - 1):
                    M1 = mal.step_matrix(system, vp.states[p, step][None, :],
                                         vp.increments[p, step][None, :], vp.dt)[0]
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
