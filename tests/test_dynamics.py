import math

import numpy as np
import pytest

from ufgsim import catalog, dynamics as dyn, expr as ex, fields as vf
from ufgsim.diagnostics import gaussian, ks_distance
from conftest import sample_points


def expm_oracle(A):
    """Matrix exponential by scaling and squaring of the Taylor series."""
    A = np.asarray(A, dtype=float)
    s = max(0, int(np.ceil(np.log2(max(1e-16, np.linalg.norm(A, np.inf))))) + 4)
    B = A / (2 ** s)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 25):
        term = term @ B / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class TestSeeding:
    def test_splitmix64_reference_vectors(self):
        # frozen outputs of the SplitMix64 sequence (state += golden gamma,
        # xor-shift 30 / mul / xor-shift 27 / mul / xor-shift 31) at seed 0
        assert [dyn.splitmix64(i) for i in range(3)] == [
            0x09AAB36CFDA2D1B3,
            0x5B00C67197590451,
            0x0EB2AFB57F7F9972,
        ]

    def test_path_seed_mixing(self):
        seeds = {dyn.path_seed(42, p) for p in range(1000)}
        assert len(seeds) == 1000
        assert dyn.path_seed(42, 7) != dyn.path_seed(43, 7)


class TestFlow:
    def test_constant_field_exact(self):
        # no discretization error on constants; only summation roundoff remains
        c = vf.make_field(2, ["0.3", "-1.1"], ["x", "y"])
        out = dyn.flow(c, [1.0, 2.0], 2.5)
        assert np.max(np.abs(out - np.array([1.0 + 0.75, 2.0 - 2.75]))) <= 1e-12

    def test_circles_rotation(self, circles):
        out = dyn.flow(circles.v0perp, [1.0, 0.0], 1.0)
        assert np.max(np.abs(out - [math.cos(1.0), math.sin(1.0)])) <= 1e-8

    def test_heisenberg_contraction(self, heisenberg):
        out = dyn.flow(heisenberg.v0perp, [2.0, 1.0, -1.0], 0.7)
        assert np.max(np.abs(out - [2 * math.exp(-0.7), 1.0, -1.0])) <= 1e-8

    def test_backward_time(self, circles):
        x = np.array([0.8, 0.4])
        there = dyn.flow(circles.v0perp, x, 0.6)
        back = dyn.flow(circles.v0perp, there, -0.6)
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_batched_rows_with_different_times(self, circles):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = np.array([0.5, -0.25])
        out = dyn.flow(circles.v0perp, X, t)
        want0 = [math.cos(0.5), math.sin(0.5)]
        want1 = [math.sin(0.25), math.cos(0.25)]
        assert np.max(np.abs(out - [want0, want1])) <= 1e-9

    def test_blowup_reported(self):
        V = vf.make_field(1, ["x*x"], ["x"])
        with pytest.raises(dyn.FlowBlowUp):
            dyn.flow(V, [3.0], 5.0)

    def test_horizon_cap(self, circles):
        cfg = dyn.FlowConfig(dt=1e-2, max_time=1.0)
        with pytest.raises(ValueError, match="horizon"):
            dyn.flow(circles.v0perp, [1.0, 0.0], 2.0, cfg)


class TestFlowJacobian:
    def test_constant_field_identity(self):
        c = vf.make_field(2, ["0.3", "-1.1"], ["x", "y"])
        J = dyn.flow_jacobian(c, [0.0, 0.0], 1.7)
        assert np.array_equal(J, np.eye(2))

    def test_linear_field_matches_expm(self, rng):
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            comps = [
                f"{float(A[0, 0])!r}*x + {float(A[0, 1])!r}*y",
                f"{float(A[1, 0])!r}*x + {float(A[1, 1])!r}*y",
            ]
            V = vf.make_field(2, comps, ["x", "y"])
            t = float(rng.uniform(0.2, 1.0))
            J = dyn.flow_jacobian(V, rng.standard_normal(2), t)
            assert np.max(np.abs(J - expm_oracle(t * A))) <= 1e-8

    def test_orientation_preserved(self, rng, heisenberg, circles):
        for entry in (heisenberg, circles):
            for x in sample_points(entry, 3, rng):
                J = dyn.flow_jacobian(entry.system.drift, x, 0.8)
                assert np.linalg.det(J) > 0


class TestAdjoint:
    def test_field_is_fixed_by_its_own_flow(self, rng, circles, heisenberg, circle_line):
        for entry in (circles, heisenberg, circle_line):
            for V in entry.system.all_fields():
                x = sample_points(entry, 1, rng)[0]
                got = dyn.adjoint_push(V, V, 0.4, x)
                assert np.max(np.abs(got - V(x))) <= 1e-8

    def test_commuting_fields(self, rng, circles):
        V0, V1 = circles.system.drift, circles.system.noises[0]
        for x in sample_points(circles, 3, rng):
            got = dyn.adjoint_push(V0, V1, 0.9, x)
            assert np.max(np.abs(got - V1(x))) <= 1e-8

    def test_constant_commuting_fields(self):
        A = vf.make_field(2, ["1", "0"], ["x", "y"])
        B = vf.make_field(2, ["0", "2"], ["x", "y"])
        got = dyn.adjoint_push(A, B, 1.3, [0.2, -0.4])
        assert np.max(np.abs(got - [0.0, 2.0])) <= 1e-10

    def test_homomorphism_with_fd_outer_bracket(self, rng, circles, heisenberg):
        cfg = dyn.FlowConfig(dt=2e-3)
        for entry in (circles, heisenberg):
            base = entry.system.all_fields()
            U, V = base[-2], base[-1]
            W = base[0]
            UV = vf.lie_bracket(U, V)
            for _ in range(2):
                t = float(rng.uniform(0.1, 0.4))
                x = sample_points(entry, 1, rng)[0]

                def adU(y):
                    return dyn.adjoint_push(W, U, t, y, cfg)

                def adV(y):
                    return dyn.adjoint_push(W, V, t, y, cfg)

                n = len(x)
                h = 1e-5
                JU = np.empty((n, n))
                JV = np.empty((n, n))
                for i in range(n):
                    xp = x.copy(); xp[i] += h
                    xm = x.copy(); xm[i] -= h
                    JU[:, i] = (adU(xp) - adU(xm)) / (2 * h)
                    JV[:, i] = (adV(xp) - adV(xm)) / (2 * h)
                outer = JV @ adU(x) - JU @ adV(x)
                want = dyn.adjoint_push(W, UV, t, x, cfg)
                assert np.max(np.abs(outer - want)) <= 1e-4

    def test_pushforward_of_brackets_solves_time_dependent_hierarchy(self, rng,
                                                                     heisenberg,
                                                                     grushin_minus1):
        # Ad through the orthogonal-drift flow must reproduce the bracket of
        # the pushed-forward fields, with the extension by the drift picking
        # up an extra time derivative.
        cfg = dyn.FlowConfig(dt=2e-3)
        for entry in (heisenberg, grushin_minus1):
            system = entry.system
            vperp = entry.v0perp
            vpar = vf.VectorField(system.dim, tuple(
                ex.simplify(ex.Binary("sub", a, b))
                for a, b in zip(system.drift.components, vperp.components)
            ))
            table = vf.build_hierarchy(system.all_fields(), entry.level)
            alpha = vf.MultiIndex((1, 0))
            t = 0.3
            x = sample_points(entry, 1, rng)[0]

            def curly(field, y, tt=t):
                return dyn.adjoint_push(vperp, field, tt, y, cfg)

            n = system.dim
            h = 1e-5
            J1 = np.empty((n, n))
            J0 = np.empty((n, n))
            for i in range(n):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                J1[:, i] = (curly(system.noises[0], xp) - curly(system.noises[0], xm)) / (2 * h)
                J0[:, i] = (curly(vpar, xp) - curly(vpar, xm)) / (2 * h)
            spatial = J0 @ curly(system.noises[0], x) - J1 @ curly(vpar, x)
            ht = 1e-4
            dt_term = (curly(system.noises[0], x, t + ht)
                       - curly(system.noises[0], x, t - ht)) / (2 * ht)
            rhs = spatial - dt_term
            lhs = dyn.adjoint_push(vperp, table.field(alpha), t, x, cfg)
            assert np.max(np.abs(lhs - rhs)) <= 1e-4


class TestItoConversion:
    def test_gbm(self, rng):
        entry = catalog.get("gbm")
        drift = dyn.stratonovich_to_ito(entry.system)
        pts = rng.uniform(-2, 2, size=(20, 1))
        assert np.max(np.abs(drift.eval_batch(pts)[:, 0] + pts[:, 0])) <= 1e-12

    def test_additive_noise_no_correction(self):
        entry = catalog.get("linear", {"A": [[0.0, 1.0], [0.0, 0.0]], "C": [[0.0, 1.0]]})
        drift = dyn.stratonovich_to_ito(entry.system)
        x = np.array([0.7, -0.2])
        assert np.allclose(drift(x), entry.system.drift(x))

    def test_circle_line(self, rng, circle_line):
        drift = dyn.stratonovich_to_ito(circle_line.system)
        pts = rng.uniform(0.2, 6.0, size=(30, 1))
        z = pts[:, 0]
        want = np.sin(z) + np.sin(z) * (1 - np.cos(z))
        assert np.max(np.abs(drift.eval_batch(pts)[:, 0] - want)) <= 1e-12


class TestSimulate:
    def test_zero_noise_reduces_to_heun_ode(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        system = dyn.SDESystem(2, circles.system.drift, (zero,), "ode-only")
        ens = dyn.simulate_paths(system, [1.0, 0.0], 1.0, 1e-3, 3, seed=1, store_stride=1000)
        ref = dyn.flow(circles.system.drift, [1.0, 0.0], 1.0)
        err = np.max(np.abs(ens.states[:, -1, :] - ref))
        assert err <= 10 * (1e-3) ** 2  # second-order deterministic accuracy

    def test_gbm_mean(self):
        entry = catalog.get("gbm")
        ens = dyn.simulate_paths(entry.system, [1.0], 1.0, 1e-3, 10000, seed=4,
                                 store_stride=1000)
        xT = ens.states[:, -1, 0]
        se = xT.std(ddof=1) / math.sqrt(len(xT))
        assert abs(xT.mean() - math.exp(-1.0)) <= 3 * se

    def test_circles_log_radius_law(self, circles):
        t = 0.5
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], t, 1e-3, 4000, seed=9,
                                 store_stride=500)
        X = ens.states[:, -1, :]
        logr = np.log(np.hypot(X[:, 0], X[:, 1]))
        assert ks_distance(logr, gaussian(0.0, 2 * t)) <= 0.03

    def test_reproducible_and_chunk_invariant(self, circles):
        kw = dict(T=0.3, dt=1e-3, n_paths=64, seed=123, store_stride=100)
        a = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        b = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        c = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw, chunk_size=7)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, c.states)
        assert np.array_equal(a.increments, c.increments)

    def test_increment_variance(self, circles):
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 1.0, 1e-3, 400, seed=2,
                                 store_stride=250)
        # aggregated increments over each stored interval have variance dt * steps
        seg = ens.increments[:, 0, 0]
        assert abs(seg.var() - 0.25) <= 0.05

    def test_blowup_flagged_not_fatal(self):
        V0 = vf.make_field(1, ["x*x*x"], ["x"])
        V1 = vf.make_field(1, ["0.01"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "explosive")
        ens = dyn.simulate_paths(system, [3.0], 1.0, 1e-3, 8, seed=0, store_stride=1000)
        assert ens.blown.all()
        assert ens.meta["blowups"] == 8
        assert np.all(np.isfinite(ens.states))

    def test_store_times(self, circles):
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 1.0, 1e-3, 2, seed=0,
                                 store_times=[0.25, 0.5])
        assert np.allclose(ens.times, [0.0, 0.25, 0.5, 1.0])

    def test_weak_order_sanity(self):
        entry = catalog.get("gbm")
        e1 = dyn.simulate_paths(entry.system, [1.0], 1.0, 1e-3, 10000, seed=21,
                                store_stride=1000)
        e2 = dyn.simulate_paths(entry.system, [1.0], 1.0, 5e-4, 10000, seed=21,
                                store_stride=2000)
        m1 = e1.states[:, -1, 0].mean()
        m2 = e2.states[:, -1, 0].mean()
        se = e1.states[:, -1, 0].std(ddof=1) / 100.0
        assert abs(m1 - m2) <= se


class TestAuxiliaryProcess:
    def test_circles_stays_near_half_line(self, circles):
        t = 0.5
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], t, 1e-3, 500, seed=3,
                                 store_times=[0.25, t])
        z = dyn.auxiliary_process(ens, circles.v0perp)
        for k in range(1, len(z.times)):
            Z = z.states[:, k, :]
            angular = np.abs(Z[:, 1]) / np.hypot(Z[:, 0], Z[:, 1])
            assert np.max(angular) <= 5 * ens.dt
            assert np.all(Z[:, 0] > 0)

    def test_zero_orthogonal_component_is_identity(self, circles):
        zero = vf.make_field(2, ["0", "0"], ["x", "y"])
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.2, 1e-3, 20, seed=5,
                                 store_stride=100)
        z = dyn.auxiliary_process(ens, zero)
        assert np.array_equal(z.states, ens.states)

    def test_ode_block_returns_to_start(self, sine_ou_k2):
        ens = dyn.simulate_paths(sine_ou_k2.system, [0.0, 4.0], 1.0, 1e-3, 50, seed=6,
                                 store_times=[0.5, 1.0])
        z = dyn.auxiliary_process(ens, sine_ou_k2.v0perp)
        for k in range(len(z.times)):
            assert np.max(np.abs(z.states[:, k, 1] - 4.0)) <= 1e-6


def per_time_reference(ens, V, cfg):
    """Z with one backward flow per stored time, each started from t = 0."""
    Z = ens.states.copy()
    for k in range(1, len(ens.times)):
        Z[:, k, :] = dyn.flow(V, ens.states[:, k, :], -float(ens.times[k]), cfg)
    return Z


class TestBatchedTransport:
    """auxiliary_process runs all stored times in one loop, bit for bit as per-time flows."""

    @pytest.mark.parametrize("stride", [1, 7])
    def test_circles(self, circles, stride):
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.05, 1e-3, 20, seed=11,
                                 store_stride=stride)
        z = dyn.auxiliary_process(ens, circles.v0perp)
        want = per_time_reference(ens, circles.v0perp, dyn.FlowConfig(dt=ens.dt))
        assert np.array_equal(z.states, want)
        assert np.array_equal(z.times, ens.times) and np.array_equal(z.blown, ens.blown)

    def test_sine_ou_store_times(self, sine_ou_k2):
        ens = dyn.simulate_paths(sine_ou_k2.system, [0.0, 4.0], 0.3, 1e-3, 15, seed=12,
                                 store_times=[0.1, 0.25])
        z = dyn.auxiliary_process(ens, sine_ou_k2.v0perp)
        want = per_time_reference(ens, sine_ou_k2.v0perp, dyn.FlowConfig(dt=ens.dt))
        assert np.array_equal(z.states, want)

    def test_frozen_blown_path(self):
        V0 = vf.make_field(1, ["x*x*x"], ["x"])
        V1 = vf.make_field(1, ["0.01"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "explosive")
        ens = dyn.simulate_paths(system, [3.0], 0.1, 1e-3, 4, seed=0, store_stride=3)
        assert ens.blown.any()
        V = vf.make_field(1, ["cos(x)"], ["x"])
        z = dyn.auxiliary_process(ens, V)
        assert np.array_equal(z.states, per_time_reference(ens, V, dyn.FlowConfig(dt=ens.dt)))

    @pytest.mark.parametrize("flow_dt", [None, 7e-4])
    def test_times_off_the_step_grid(self, circles, flow_dt):
        # 0.3 / 0.003 is 99.99999999999999: some stored t/dt fall just above
        # an integer and take one step more than their index
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.3, 3e-3, 10, seed=13,
                                 store_stride=3)
        cfg = dyn.FlowConfig(dt=flow_dt or ens.dt)
        q = ens.times / cfg.dt
        assert np.any(np.ceil(q) != np.round(q))
        z = dyn.auxiliary_process(ens, circles.v0perp, cfg)
        assert np.array_equal(z.states, per_time_reference(ens, circles.v0perp, cfg))

    def test_blowup_raised_as_by_per_time_flows(self):
        V = vf.make_field(2, ["x1*x1", "0"], ["x1", "x2"])
        X = np.array([[1.0, 0.0], [3.0, 0.0]])  # the second row blows up at t = 1/3
        with pytest.raises(dyn.FlowBlowUp) as err:
            dyn._rk4_rows(V, X, np.array([0.01, 0.01]), np.array([10, 100]))
        assert 1 / 3 < err.value.time < 1.0
        with pytest.raises(dyn.FlowBlowUp):
            dyn.flow(V, X, 1.0)
        # the backward transport of x1 = -3 blows up at t = 1/3
        times = np.arange(101) * 0.01
        states = np.broadcast_to([-3.0, 0.0], (2, 101, 2)).copy()
        ens = dyn.PathEnsemble(0, 0.01, times, states, np.zeros((2, 100, 1)),
                               np.zeros(2, dtype=bool))
        with pytest.raises(dyn.FlowBlowUp):
            per_time_reference(ens, V, dyn.FlowConfig(dt=0.01))
        with pytest.raises(dyn.FlowBlowUp):
            dyn.auxiliary_process(ens, V)

    def test_horizon_cap(self, circles):
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.05, 1e-3, 2, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            dyn.auxiliary_process(ens, circles.v0perp, dyn.FlowConfig(max_time=0.01))


class TestFlowLimit:
    def test_sine_ou_limit(self, sine_ou_k2):
        res = dyn.flow_limit(sine_ou_k2.v0perp, [0.0, 4.0], 100.0)
        assert res.status == "converged"
        assert abs(res.point[1] - 2 * math.pi) <= 1e-6

    def test_fixed_point_immediate(self, sine_ou_k2):
        res = dyn.flow_limit(sine_ou_k2.v0perp, [1.0, 2 * math.pi], 10.0)
        assert res.status == "converged" and res.time == 0.0

    def test_grushin_divergence(self):
        entry = catalog.get("grushin", {"k": 1.0})
        res = dyn.flow_limit(entry.v0perp, [0.0, 1.0], 50.0, divergence_radius=1e6)
        assert res.status == "diverged"

    def test_not_converged_budget(self, circles):
        # pure rotation never stalls or diverges
        res = dyn.flow_limit(circles.v0perp, [1.0, 0.0], 2.0)
        assert res.status == "not_converged"

    def test_rank_instability_detected(self, circles):
        left = vf.make_field(2, ["-1", "0"], ["x", "y"])
        probe = lambda y: 1 if y[0] > 0.2 else 0
        res = dyn.flow_limit(left, [0.5, 0.0], 5.0, rank_probe=probe)
        assert res.status == "rank_unstable"


class TestRankAlongPath:
    def test_heisenberg_rank_profiles(self, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        ens = dyn.simulate_paths(heisenberg.system, [1.0, 0.0, 0.0], 0.5, 1e-3, 50,
                                 seed=8, store_stride=100)
        ranks = dyn.rank_along_path(ens.times, ens.states, tab)
        assert np.all(ranks == 3)
        ens2 = dyn.simulate_paths(heisenberg.system, [0.0, 1.0, 1.0], 0.5, 1e-3, 50,
                                  seed=8, store_stride=100)
        ranks2 = dyn.rank_along_path(ens2.times, ens2.states, tab)
        assert np.all(ranks2 == 2)

    def test_single_path_pairs(self, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        ens = dyn.simulate_paths(heisenberg.system, [1.0, 0.0, 0.0], 0.2, 1e-3, 1,
                                 seed=1, store_stride=100)
        pairs = dyn.rank_along_path(ens.times, ens.states[0], tab)
        assert pairs[0] == (0.0, 3)

    def test_zero_fields_rank_zero(self):
        Z = vf.make_field(2, ["0", "0"], ["x", "y"])
        tab = vf.build_hierarchy([Z, Z], 1)
        ranks = dyn.rank_along_path([0.0], np.zeros((1, 1, 2)), tab)
        assert np.all(ranks == 0)

    def test_monotone_along_circle_paths(self, circles):
        tab = vf.build_hierarchy(circles.system.all_fields(), 1)
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.5, 1e-3, 100, seed=10,
                                 store_stride=50)
        ranks = dyn.rank_along_path(ens.times, ens.states, tab)
        assert np.all(np.diff(ranks, axis=1) <= 0)


class TestLeafTracking:
    def test_circles_angle_tracks_time(self, circles):
        t = 0.75
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], t, 1e-3, 300, seed=12,
                                 store_times=[0.25, 0.5, t])
        for k, tk in enumerate(ens.times):
            X = ens.states[:, k, :]
            ang = np.arctan2(X[:, 1], X[:, 0])
            err = np.abs((ang - tk + math.pi) % (2 * math.pi) - math.pi)
            assert np.max(err) <= 5 * ens.dt
