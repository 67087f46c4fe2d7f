import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgsim import catalog, dynamics as dyn, expr as ex, fields as vf, geometry as geo
from ufgsim.diagnostics import gaussian, ks_distance
from conftest import (assert_same_bits, coordinates, field_component, heun_cases, sample_points,
                      traced_peak)


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

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_vectorised_path_seed_matches_scalar(self, paths):
        for master in (-1, 0, 2**64 + 5):
            got = dyn._path_seeds(master, np.array(paths, dtype=np.uint64))
            assert got.tolist() == [dyn.path_seed(master, p) for p in paths]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_vectorised_seeding_matches_numpy(self, seeds):
        # fails when numpy changes how SeedSequence or PCG64 seed themselves
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *seeds]
        words = dyn._pcg64_seed_words(np.array(seeds, dtype=np.uint64))
        bits = np.random.PCG64(0)
        for s, w in zip(seeds, words.tolist()):
            ref = np.random.PCG64(s)
            assert dyn._pcg64_state(w) == ref.state
            bits.state = dyn._pcg64_state(w)
            got = np.random.Generator(bits).standard_normal(7)
            assert np.array_equal(got, np.random.Generator(ref).standard_normal(7))


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

    def test_horizon_cap(self, monkeypatch, circles):
        monkeypatch.setattr(dyn, "MAX_FLOW_TIME", 1.0)
        with pytest.raises(ValueError, match="horizon"):
            dyn.flow(circles.v0perp, [1.0, 0.0], 2.0, dyn.FlowConfig(dt=1e-2))


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

    def test_reproducible_and_chunk_invariant(self, monkeypatch, circles):
        kw = dict(T=0.3, dt=1e-3, n_paths=64, seed=123, store_stride=100)
        a = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        b = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        monkeypatch.setattr(dyn, "CHUNK_PATHS", 7)
        c = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, c.states)
        assert np.array_equal(a.blown, c.blown)

    def test_increment_variance(self):
        # V0 = 0, V1 = 1: X_t - x0 = sqrt(2) B_t, of variance 2 t
        V0 = vf.make_field(1, ["0"], ["x"])
        V1 = vf.make_field(1, ["1"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "pure-noise")
        ens = dyn.simulate_paths(system, [1.0], 1.0, 1e-3, 400, seed=2, store_stride=250)
        var = (ens.states[:, 1:, 0] - 1.0).var(axis=0)
        assert np.all(np.abs(var / (2 * ens.times[1:]) - 1) <= 0.2)

    def test_blowup_flagged_not_fatal(self):
        V0 = vf.make_field(1, ["x*x*x"], ["x"])
        V1 = vf.make_field(1, ["0.01"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "explosive")
        ens = dyn.simulate_paths(system, [3.0], 1.0, 1e-3, 8, seed=0, store_stride=1000)
        assert ens.blown.all()
        assert int(ens.blown.sum()) == 8
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


def _heun_endpoints(system, x0, dB, dt):
    """States after len(dB[0]) steps of dyn._heun_step with the increments dB (P, n, d)."""
    X = np.broadcast_to(np.asarray(x0, dtype=float), (len(dB), system.dim)).copy()
    for s in range(dB.shape[1]):
        X = dyn._heun_step(system, X, dB[:, s], dt)[0]
    return X


class TestStrongOrder:
    """Mean |X_T - reference| of the Heun step at dt = T/2^k, k = 4..8, on
    Brownian paths summed from T/2^11, fitted against dt.  The reference is
    the closed form where one exists and a 2^11-step run otherwise.  Stochastic
    Heun has strong order 1 for commuting noise (one noise field here) and
    1/2 for ufg-heisenberg's two non-commuting fields (Rumelin 1982)."""

    T, P, FINE, COARSE = 0.5, 2000, 11, range(4, 9)
    CASES = {
        "gbm": ([1.0], lambda t, B: np.exp(-2 * t + dyn.SQRT2 * B), (0.85, 1.15)),
        "sine-ou": ([0.2, 1.5], None, (0.85, 1.15)),
        "grushin": ([0.2, 1.5], None, (0.85, 1.15)),
        "random-circles": ([1.0, 0.0], lambda t, B: np.exp(dyn.SQRT2 * B)
                           * np.array([math.cos(t), math.sin(t)]), (0.85, 1.15)),
        "ufg-heisenberg": ([1.0, 0.0, 0.0], None, (0.4, 0.65)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_slope(self, name):
        x0, closed_form, (lo, hi) = self.CASES[name]
        system = catalog.get(name).system
        n = 2 ** self.FINE
        rng = np.random.default_rng(31)
        dW = rng.standard_normal((self.P, n, system.d)) * math.sqrt(self.T / n)
        if closed_form is None:
            ref = _heun_endpoints(system, x0, dW, self.T / n)
        else:
            ref = closed_form(self.T, dW[:, :, 0].sum(axis=1)[:, None])
        dts, errs = [], []
        for k in self.COARSE:
            dB = dW.reshape(self.P, 2 ** k, n // 2 ** k, system.d).sum(axis=2)
            X = _heun_endpoints(system, x0, dB, self.T / 2 ** k)
            dts.append(self.T / 2 ** k)
            errs.append(np.mean(np.linalg.norm(X - ref, axis=1)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert lo <= slope <= hi, (name, slope, errs)


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
        ens = dyn.PathEnsemble(0, 0.01, times, states, np.zeros(2, dtype=bool))
        with pytest.raises(dyn.FlowBlowUp):
            per_time_reference(ens, V, dyn.FlowConfig(dt=0.01))
        with pytest.raises(dyn.FlowBlowUp):
            dyn.auxiliary_process(ens, V)

    def test_horizon_cap(self, monkeypatch, circles):
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.05, 1e-3, 2, seed=0)
        monkeypatch.setattr(dyn, "MAX_FLOW_TIME", 0.01)
        with pytest.raises(ValueError, match="horizon"):
            dyn.auxiliary_process(ens, circles.v0perp)


class TestFlowLimit:
    def test_sine_ou_limit(self, sine_ou_k2):
        res = dyn.flow_limit(sine_ou_k2.v0perp, [0.0, 4.0], 100.0)
        assert res.status == "converged"
        assert abs(res.point[1] - 2 * math.pi) <= 1e-6

    def test_fixed_point_immediate(self, sine_ou_k2):
        res = dyn.flow_limit(sine_ou_k2.v0perp, [1.0, 2 * math.pi], 10.0)
        assert res.status == "converged" and res.time == 0.0

    def test_grushin_divergence(self, monkeypatch):
        entry = catalog.get("grushin", {"k": 1.0})
        monkeypatch.setattr(dyn, "DIVERGENCE_RADIUS", 1e6)
        res = dyn.flow_limit(entry.v0perp, [0.0, 1.0], 50.0)
        assert res.status == "diverged"

    def test_not_converged_budget(self, circles):
        # pure rotation never stalls or diverges
        res = dyn.flow_limit(circles.v0perp, [1.0, 0.0], 2.0)
        assert res.status == "not_converged"


class TestRankAlongPath:
    def test_heisenberg_rank_profiles(self, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        ens = dyn.simulate_paths(heisenberg.system, [1.0, 0.0, 0.0], 0.5, 1e-3, 50,
                                 seed=8, store_stride=100)
        ranks = dyn.rank_along_path(ens.states, tab)
        assert np.all(ranks == 3)
        ens2 = dyn.simulate_paths(heisenberg.system, [0.0, 1.0, 1.0], 0.5, 1e-3, 50,
                                  seed=8, store_stride=100)
        ranks2 = dyn.rank_along_path(ens2.states, tab)
        assert np.all(ranks2 == 2)

    def test_single_path_pairs(self, heisenberg):
        tab = vf.build_hierarchy(heisenberg.system.all_fields(), 2)
        ens = dyn.simulate_paths(heisenberg.system, [1.0, 0.0, 0.0], 0.2, 1e-3, 1,
                                 seed=1, store_stride=100)
        ranks = dyn.rank_along_path(ens.states, tab)
        assert ranks.shape == (1, len(ens.times))
        assert (ens.times[0], ranks[0, 0]) == (0.0, 3)

    def test_zero_fields_rank_zero(self):
        Z = vf.make_field(2, ["0", "0"], ["x", "y"])
        tab = vf.build_hierarchy([Z, Z], 1)
        ranks = dyn.rank_along_path(np.zeros((1, 1, 2)), tab)
        assert np.all(ranks == 0)

    def test_monotone_along_circle_paths(self, circles):
        tab = vf.build_hierarchy(circles.system.all_fields(), 1)
        ens = dyn.simulate_paths(circles.system, [1.0, 0.0], 0.5, 1e-3, 100, seed=10,
                                 store_stride=50)
        ranks = dyn.rank_along_path(ens.states, tab)
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


# ---------------------------------------------------------------------------
# The compiled Heun step and the step loop, against the array arithmetic
# ---------------------------------------------------------------------------

def _reference_heun_step(system, X, dB, dt):
    """The stochastic Heun step as array arithmetic on eval_batch values."""
    with np.errstate(all="ignore"):
        a0 = system.drift.eval_batch(X)
        g0 = np.zeros_like(X)
        for i, V in enumerate(system.noises):
            g0 += V.eval_batch(X) * dB[:, i:i + 1]
        Xp = X + a0 * dt + dyn.SQRT2 * g0
        a1 = system.drift.eval_batch(Xp)
        g1 = np.zeros_like(X)
        for i, V in enumerate(system.noises):
            g1 += V.eval_batch(Xp) * dB[:, i:i + 1]
        return X + 0.5 * dt * (a0 + a1) + 0.5 * dyn.SQRT2 * (g0 + g1), Xp


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@given(heun_cases())
@settings(max_examples=200, deadline=None)
def test_compiled_heun_step_is_the_array_arithmetic_to_the_bit(case):
    system, X, dB, dt = case
    want = _reference_heun_step(system, X, dB, dt)
    N, d = system.dim, system.d
    got = dyn._heun_step(system, X, dB, dt)
    # the kernel itself, on a row-major workspace and output
    W = np.ascontiguousarray(dyn._heun_workspace(len(X), N, d, dt))
    W[:, :N], W[:, N:N + d] = X, dB
    out = np.empty((len(X), 2, N))
    system._heun_kernel(W, out)
    for k in range(2):
        assert_same_bits(got[k], want[k])
        assert_same_bits(out[:, k], want[k])


def test_compiled_heun_step_signed_zero_and_overflow_rows():
    # x' = x*x with noise x: rows at +-0.0 keep their signs, a row at 1e155
    # overflows to inf in the predictor and to nan in the corrector
    system = dyn.SDESystem(1, vf.make_field(1, ["x*x"], ["x"]), (vf.make_field(1, ["x"], ["x"]),))
    X = np.array([[0.0], [-0.0], [1e155], [1.0]])
    dB = np.array([[-0.0], [0.1], [0.0], [-0.0]])
    for dt in (1e-3, 0.5):
        want = _reference_heun_step(system, X, dB, dt)
        got = dyn._heun_step(system, X, dB, dt)
        for k in range(2):
            assert np.array_equal(_bits(got[k]), _bits(want[k]))
    assert np.isinf(got[1][2, 0]) and np.isnan(got[0][2, 0])


def _reference_paths(system, x0, T, dt, n_paths, seed, stride):
    """All paths in one batch; every step checks each row and rebuilds the
    state with np.where, as the step loop did before its fast path."""
    n_steps = round(T / dt)
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    d = system.d
    dB = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        rng = np.random.Generator(np.random.PCG64(dyn.path_seed(seed, p)))
        dB[p] = rng.standard_normal((n_steps, d)) * math.sqrt(dt)
    X = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, system.dim)).copy()
    states = np.empty((n_paths, len(steps), system.dim))
    alive = np.ones(n_paths, dtype=bool)
    blown = np.zeros(n_paths, dtype=bool)
    states[:, 0] = X
    for step in range(1, n_steps + 1):
        Xn, _ = _reference_heun_step(system, X, dB[:, step - 1], dt)
        ok = alive & np.isfinite(Xn).all(axis=1)
        blown |= alive & ~ok
        alive = ok
        X = np.where(alive[:, None], Xn, X)
        if step in steps:
            states[:, steps.index(step)] = X
    return states, blown


class TestStepLoop:
    # Two systems on which some paths blow up, none before step 100 of 1000:
    # x' = x^2 from 0.9 overflows near t = 1.1, earlier on some paths; with
    # noise sqrt(x) from 0.5 a predictor below 0 gives nan, and a frozen path
    # sits at a small positive x from which later steps are finite again.
    SYSTEMS = {"riccati": (["x*x"], ["0.5"], 0.9), "sqrt": (["0.2"], ["sqrt(x)"], 0.5)}

    @pytest.mark.parametrize("chunk_size", [2048, 7])
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_late_partial_blowups_match_per_row_loop(self, monkeypatch, name, chunk_size):
        drift, noise, x0 = self.SYSTEMS[name]
        system = dyn.SDESystem(1, vf.make_field(1, drift, ["x"]),
                               (vf.make_field(1, noise, ["x"]),), name)
        kw = dict(T=1.0, dt=1e-3, n_paths=40, seed=7)
        states, blown = _reference_paths(system, [x0], **kw, stride=10)
        assert 0 < blown.sum() < kw["n_paths"]
        assert np.all(states[:, 10] != states[:, 9])  # every path still moves at step 100
        monkeypatch.setattr(dyn, "CHUNK_PATHS", chunk_size)
        ens = dyn.simulate_paths(system, [x0], **kw, store_stride=10)
        assert np.array_equal(_bits(ens.states), _bits(states))
        assert np.array_equal(ens.blown, blown)

    def test_ensemble_matches_reference_on_catalog_system(self, monkeypatch, heisenberg):
        # d = 2, N = 3, a short last chunk (20 = 7 + 7 + 6) and no blow-up
        kw = dict(T=0.05, dt=1e-3, n_paths=20, seed=3)
        states, blown = _reference_paths(heisenberg.system, [1.0, 0.0, 0.0], **kw, stride=5)
        for chunk_size in (2048, 7):
            monkeypatch.setattr(dyn, "CHUNK_PATHS", chunk_size)
            ens = dyn.simulate_paths(heisenberg.system, [1.0, 0.0, 0.0], **kw, store_stride=5)
            assert np.array_equal(_bits(ens.states), _bits(states))
            assert not ens.blown.any() and not blown.any()

    @pytest.mark.parametrize("chunk_size", [2048, 7])
    def test_coupled_starts_match_separate_runs(self, monkeypatch, heisenberg, chunk_size):
        drift, noise, _ = self.SYSTEMS["riccati"]
        riccati = dyn.SDESystem(1, vf.make_field(1, drift, ["x"]),
                                (vf.make_field(1, noise, ["x"]),), "riccati")
        monkeypatch.setattr(dyn, "CHUNK_PATHS", chunk_size)
        cases = [(riccati, [[0.9], [-2.0]], 1.0),
                 (heisenberg.system, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], 0.05)]
        for system, starts, T in cases:
            kw = dict(T=T, dt=1e-3, n_paths=20, seed=7, store_stride=10)
            ens = dyn.simulate_paths(system, starts, **kw)
            assert ens.states.shape[:2] == ens.blown.shape == (2, 20)
            for j, x0 in enumerate(starts):
                one = dyn.simulate_paths(system, x0, **kw)
                assert np.array_equal(_bits(ens.states[j]), _bits(one.states))
                assert np.array_equal(ens.blown[j], one.blown)
            if system is riccati:  # one start blows up on some paths, the other on none
                assert ens.blown[0].any() and not ens.blown[1].any()

    # 1000 steps drawn in blocks of one step, of 7 and 300 steps with a short
    # last block (6 and 100 steps), of the whole horizon and of more than it
    @pytest.mark.parametrize("block", [1, 7, 300, 1000, 1001])
    @pytest.mark.parametrize("name, other", [("riccati", -2.0), ("sqrt", 2.0)])
    def test_step_blocks_match_per_row_loop(self, monkeypatch, forking, name, other, block):
        """Coupled starts, one with late partial blow-ups, in chunks of 7
        paths, at one and two workers."""
        system, x0 = _riccati_like(name)
        kw = dict(T=1.0, dt=1e-3, n_paths=40, seed=7)
        want = [_reference_paths(system, [x], **kw, stride=10) for x in (x0, other)]
        assert 0 < want[0][1].sum() < kw["n_paths"] and not want[1][1].any()
        monkeypatch.setattr(dyn, "CHUNK_PATHS", 7)
        monkeypatch.setattr(dyn, "STEP_BLOCK", block)
        for workers in (1, 2):
            ens = dyn.simulate_paths(system, [[x0], [other]], **kw, store_stride=10,
                                     workers=workers)
            for j, (states, blown) in enumerate(want):
                assert np.array_equal(_bits(ens.states[j]), _bits(states))
                assert np.array_equal(ens.blown[j], blown)
        assert len(forking) == 1

    def test_increment_memory_does_not_grow_with_the_horizon(self):
        # 2048 paths x 4000 steps, whose whole-horizon increment block would
        # take 65.5 MB, against blocks of STEP_BLOCK steps (4.1 MB)
        V0 = vf.make_field(1, ["-x"], ["x"])
        V1 = vf.make_field(1, ["1"], ["x"])
        system = dyn.SDESystem(1, V0, (V1,), "ou")
        dyn.simulate_paths(system, [0.0], 0.01, 1e-3, 2, seed=0)  # compiles the step
        peak = traced_peak(lambda: dyn.simulate_paths(system, [0.0], 4.0, 1e-3, 2048, seed=0,
                                                      store_times=[4.0]))
        assert peak < 16 * 2**20

    def test_blowups_raise_no_warnings(self):
        # drift and noise overflow together, so a step meets inf - inf
        V = vf.make_field(1, ["x*x"], ["x"])
        system = dyn.SDESystem(1, V, (V,), "explosive")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = dyn.simulate_paths(system, [3.0], 1.0, 1e-3, 4, seed=0, store_stride=100)
        assert ens.blown.all()

    def test_stored_entries_capped_before_allocation(self, circles):
        with pytest.raises(ValueError, match="stored values"):
            dyn.simulate_paths(circles.system, [1.0, 0.0], 1.0, 1e-3, 10**12, seed=0)
        # the cap counts the records: N = 2 per stored step
        P = dyn.MAX_STORED_ENTRIES // (2 * 1001) + 1
        with pytest.raises(ValueError, match="stored values"):
            dyn.simulate_paths(circles.system, [1.0, 0.0], 1.0, 1e-3, P, seed=0)


def _assert_same_ensemble(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(_bits(got.states), _bits(want.states))
    assert np.array_equal(got.blown, want.blown)


def _riccati_like(name):
    drift, noise, x0 = TestStepLoop.SYSTEMS[name]
    system = dyn.SDESystem(1, vf.make_field(1, drift, ["x"]),
                           (vf.make_field(1, noise, ["x"]),), name)
    return system, x0


class TestWorkers:
    """Paths split over forked workers give the serial arrays to the bit."""

    def test_worker_count_is_capped(self, monkeypatch):
        # the helper only counts: no process is started
        cores = len(os.sched_getaffinity(0))
        assert 1 <= dyn._worker_count(10**6, 10**9, 10**18) <= cores
        assert dyn._worker_count(1, 10**9, 10**18) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        least = dyn.MIN_PATH_STEPS_PER_WORKER
        assert dyn._worker_count(10**6, 10**9, 10**18) == 8
        assert dyn._worker_count(10**6, 5, 10**18) == 5
        assert dyn._worker_count(8, 10**9, 3 * least) == 3
        assert dyn._worker_count(8, 10**9, least - 1) == 1
        # perfbench's ensembles at --threads 2: zproc stays in one process,
        # simulate, derivative (two coupled starts), converge and malliavin
        # (a variational path-step weighs 1 + 2N = 5) fork
        assert dyn._worker_count(2, 100, 100 * 150) == 1
        assert dyn._worker_count(2, 1000, 1000 * 800) == 2
        assert dyn._worker_count(2, 2000, 2 * 2000 * 1000) == 2
        assert dyn._worker_count(2, 10000, 10000 * 1000) == 2
        assert dyn._worker_count(2, 250, 250 * 1000 * 5) == 2
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                dyn._worker_count(workers, 10, 10)
        # the horizon counts only as work, since a worker's increment block
        # spans at most STEP_BLOCK steps: three chunks of paths fork eight
        # workers over 1000 steps and over the longest horizon the draw cap
        # lets a chunk run, where a whole-horizon block allowed 3 and 1
        cap, chunk = dyn.MAX_INCREMENT_BLOCK, dyn.CHUNK_PATHS
        ranges = []
        monkeypatch.setattr(dyn, "_fork_ranges", lambda run, bounds: ranges.append(bounds))
        V = vf.make_field(1, ["0"], ["x"])
        system = dyn.SDESystem(1, V, (V,), "still")
        for n_steps in (1000, cap // (3 * chunk), cap // chunk):
            dyn.simulate_paths(system, [0.0], n_steps * 1e-3, 1e-3, 3 * chunk, seed=0,
                               store_times=[], workers=8)
        assert [len(bounds) for bounds in ranges] == [8, 8, 8]
        # no fork beside another thread
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(10,))
        thread.start()
        try:
            assert dyn._worker_count(8, 10**9, 10**18) == 1
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive() and dyn._worker_count(8, 10**9, 10**18) == 8

    def test_worker_count_without_affinity_or_fork(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert dyn._worker_count(10**6, 10**9, 10**18) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert dyn._worker_count(10**6, 10**9, 10**18) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "fork")
        assert dyn._worker_count(10**6, 10**9, 10**18) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", TestStepLoop.SYSTEMS)
    def test_late_partial_blowups(self, forking, name, workers):
        system, x0 = _riccati_like(name)
        kw = dict(T=1.0, dt=1e-3, n_paths=40, seed=7, store_stride=10)
        one = dyn.simulate_paths(system, [x0], **kw)
        assert not forking
        many = dyn.simulate_paths(system, [x0], **kw, workers=workers)
        assert len(forking) == workers - 1
        assert 0 < one.blown.sum() < kw["n_paths"]
        _assert_same_ensemble(many, one)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_single_and_coupled_starts(self, monkeypatch, forking, heisenberg, workers):
        # 20 paths: ranges of 10 or 6, 7 and 7, each of several chunks of 7
        monkeypatch.setattr(dyn, "CHUNK_PATHS", 7)
        riccati, _ = _riccati_like("riccati")
        cases = [(heisenberg.system, [1.0, 0.0, 0.0], 0.05),
                 (heisenberg.system, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], 0.05),
                 (riccati, [[0.9], [-2.0]], 1.0)]
        for system, x0, T in cases:
            kw = dict(T=T, dt=1e-3, n_paths=20, seed=7, store_stride=10)
            one = dyn.simulate_paths(system, x0, **kw)
            forking.clear()
            many = dyn.simulate_paths(system, x0, **kw, workers=workers)
            assert len(forking) == workers - 1
            _assert_same_ensemble(many, one)
        assert one.blown[0].any() and not one.blown[1].any()

    def test_fewer_paths_than_workers(self, forking, circles):
        kw = dict(T=0.05, dt=1e-3, n_paths=2, seed=11, store_times=[0.01, 0.03])
        one = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        many = dyn.simulate_paths(circles.system, [1.0, 0.0], **kw, workers=3)
        assert len(forking) == 1  # one path here, one in a child
        _assert_same_ensemble(many, one)

    def test_workers_below_one_rejected(self, circles):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            dyn.simulate_paths(circles.system, [1.0, 0.0], 0.01, 1e-3, 4, seed=0, workers=0)

    @staticmethod
    def _failing_paths(monkeypatch, seed, paths):
        """Seeding path p of `paths` raises ValueError('path p failed')."""
        words = dyn._pcg64_seed_words(dyn._path_seeds(seed, sorted(paths)))
        failing = {tuple(w): p for w, p in zip(words.tolist(), sorted(paths))}
        state = dyn._pcg64_state

        def seeding(w):
            if tuple(w) in failing:
                raise ValueError(f"path {failing[tuple(w)]} failed")
            return state(w)

        monkeypatch.setattr(dyn, "_pcg64_state", seeding)

    # 20 paths on 3 workers: paths 0-5 here, 6-12 and 13-19 in two children
    @pytest.mark.parametrize("paths", [{14}, {9, 16}, {3, 16}])
    def test_worker_error_is_the_serial_error(self, monkeypatch, forking, circles, paths):
        self._failing_paths(monkeypatch, 5, paths)
        kw = dict(T=0.01, dt=1e-3, n_paths=20, seed=5)
        with pytest.raises(ValueError) as serial:
            dyn.simulate_paths(circles.system, [1.0, 0.0], **kw)
        with pytest.raises(ValueError) as forked:
            dyn.simulate_paths(circles.system, [1.0, 0.0], **kw, workers=3)
        assert len(forking) == 2
        assert type(forked.value) is type(serial.value)
        assert str(forked.value) == str(serial.value) == f"path {min(paths)} failed"

    def test_error_that_does_not_unpickle_keeps_its_name_and_message(self, forking):
        def run(lo, hi):
            if lo:
                raise dyn.FlowBlowUp(1.5)

        with pytest.raises(RuntimeError) as err:
            dyn._fork_ranges(run, [(0, 1), (1, 2)])
        assert str(err.value) == "FlowBlowUp: flow state became non-finite near t = 1.5"

    def test_worker_that_dies_without_a_report(self, forking):
        def run(lo, hi):
            if lo:
                os._exit(7)

        with pytest.raises(RuntimeError, match="paths 1 to 2 ended without a report"):
            dyn._fork_ranges(run, [(0, 1), (1, 3)])

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_here_kills_the_workers(self, forking, error):
        def run(lo, hi):
            if lo:
                time.sleep(60)
            raise error("range 0")

        start = time.monotonic()
        with pytest.raises(error, match="range 0"):
            dyn._fork_ranges(run, [(0, 1), (1, 2), (2, 3)])
        assert len(forking) == 2 and time.monotonic() - start < 30


def test_csv_of_coupled_starts_rejected(circles):
    ens = dyn.simulate_paths(circles.system, [[1.0, 0.0], [0.5, 0.0]], 0.01, 1e-3, 3, seed=0)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="coupled"):
        ens.write_csv(buf)
    assert buf.getvalue() == ""


# ---------------------------------------------------------------------------
# The compiled RK4 step and the flow loops, against the array arithmetic
# ---------------------------------------------------------------------------

def _reference_rk4_step(V, X, h):
    """One RK4 step as array arithmetic on eval_batch values."""
    with np.errstate(all="ignore"):
        hc = h[:, None]
        k1 = V.eval_batch(X)
        k2 = V.eval_batch(X + 0.5 * hc * k1)
        k3 = V.eval_batch(X + 0.5 * hc * k2)
        k4 = V.eval_batch(X + hc * k3)
        return X + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4_rows(V, X, h, counts):
    """The row-suffix RK4 loop on the array arithmetic."""
    X = np.array(X, dtype=float)
    for s in range(int(counts.max(initial=0))):
        lo = int(np.searchsorted(counts, s, side="right"))
        Y = _reference_rk4_step(V, X[lo:], h[lo:])
        bad = ~np.isfinite(Y).all(axis=1)
        if bad.any():
            raise dyn.FlowBlowUp((s + 1) * float(np.max(np.abs(h[lo:][bad]))))
        X[lo:] = Y
    return X


def _reference_flow_each(V, X, t, cfg):
    counts, h = dyn._step_plan(t, cfg)
    order = np.argsort(counts, kind="stable")
    X = _reference_rk4_rows(V, X[order], h[order], counts[order])
    return X[np.argsort(order)]


def _reference_flow_jacobian(V, X, t, cfg):
    """The joint RK4 loop on eval_batch and jacobian_batch arrays, with the
    state checked first and then the Jacobian after each step."""
    n = X.shape[1]
    J = np.broadcast_to(np.eye(n), (len(X), n, n)).copy()
    counts, h = dyn._step_plan(t, cfg, shared=True)
    for k in range(int(counts[0])):
        with np.errstate(all="ignore"):
            hc = h[:, None]
            hj = h[:, None, None]
            k1 = V.eval_batch(X)
            K1 = V.jacobian_batch(X) @ J
            x2 = X + 0.5 * hc * k1
            k2 = V.eval_batch(x2)
            K2 = V.jacobian_batch(x2) @ (J + 0.5 * hj * K1)
            x3 = X + 0.5 * hc * k2
            k3 = V.eval_batch(x3)
            K3 = V.jacobian_batch(x3) @ (J + 0.5 * hj * K2)
            x4 = X + hc * k3
            k4 = V.eval_batch(x4)
            K4 = V.jacobian_batch(x4) @ (J + hj * K3)
            X = X + (hc / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            J = J + (hj / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
        if not np.all(np.isfinite(X)):
            raise dyn.FlowBlowUp((k + 1) * float(np.max(np.abs(h))))
        if not np.all(np.isfinite(J)):
            raise dyn.FlowBlowUp((k + 1) * float(np.max(np.abs(h))), "flow Jacobian")
    return J, X


def _outcome(f, *args):
    """The arrays f returns, or the time and message of the FlowBlowUp it raises."""
    try:
        out = f(*args)
    except dyn.FlowBlowUp as err:
        return err.time, str(err)
    return out if isinstance(out, tuple) else (out,)


def _assert_same_outcome(got, want):
    if isinstance(want[0], float):
        assert got == want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


@st.composite
def _flow_cases(draw):
    """A field of dimension 1..3, rows (some at +-0.0 or large enough to
    overflow) and per-row times: zero of both signs, negative, and step
    counts from 1 to 12 at dt = 1e-3."""
    N = draw(st.integers(1, 3))
    V = vf.VectorField(N, tuple(draw(field_component(N)) for _ in range(N)))
    rows = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.lists(coordinates, min_size=N, max_size=N),
                               min_size=rows, max_size=rows)))
    t = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1e-3, -1e-3, 0.0105]), st.floats(-0.012, 0.012)),
        min_size=rows, max_size=rows)))
    return V, X, t


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
def test_compiled_rk4_step_is_the_array_arithmetic_to_the_bit(case):
    V, X, t = case
    cfg = dyn.FlowConfig()
    _, h = dyn._step_plan(t, cfg)
    want = _reference_rk4_step(V, X, h)
    W = dyn._rk4_workspace(V, X, h)
    for field in (V, dyn.NumericField(V.dim, V.eval_batch)):
        out = np.empty(X.shape, order="F")
        field._rk4_kernel(W, out)
        assert_same_bits(out, want)
    # the kernel itself, on a row-major workspace and output
    out = np.empty(X.shape)
    V._rk4_kernel(np.ascontiguousarray(W), out)
    assert_same_bits(out, want)
    Xn = np.empty((len(X), 4 * V.dim + 1, V.dim))
    V._rk4_jacobian_kernel(W, Xn)
    assert_same_bits(Xn[:, 0], want)


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
def test_flow_loops_are_the_array_arithmetic_to_the_bit(case):
    V, X, t = case
    cfg = dyn.FlowConfig()
    want = _outcome(_reference_flow_each, V, X, t, cfg)
    _assert_same_outcome(_outcome(dyn._flow_each, V, X, t, cfg), want)
    counts, h = dyn._step_plan(t, cfg)
    order = np.argsort(counts, kind="stable")
    args = X[order], h[order], counts[order]
    _assert_same_outcome(_outcome(dyn._rk4_rows, V, *args),
                         _outcome(_reference_rk4_rows, V, *args))
    counts, h = dyn._step_plan(t, cfg, shared=True)
    _assert_same_outcome(_outcome(dyn.flow, V, X, t, cfg),
                         _outcome(_reference_rk4_rows, V, X, h, counts))


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
def test_flow_jacobian_is_the_old_loop_to_the_bit(case):
    V, X, t = case
    cfg = dyn.FlowConfig()
    want = _outcome(_reference_flow_jacobian, V, X, t, cfg)
    got = _outcome(lambda: dyn.flow_jacobian(V, X, t, cfg, with_endpoint=True))
    _assert_same_outcome(got, want)


def test_flow_blowup_times_match_the_array_arithmetic():
    # x' = x^2 leaves the finite range near t = 1/x0: at step 36 of 100 from
    # 3, 69 of 200 from 1.5, 8 of 50 from 20 and, backwards, 203 of 300 from
    # -0.5; the row at 0.5 does not reach its singular time
    V = vf.make_field(1, ["x*x"], ["x"])
    X = np.array([[0.5], [3.0], [1.5], [20.0], [-0.5]])
    t = np.array([0.9, 1.0, 2.0, 0.5, -3.0])
    cfg = dyn.FlowConfig(dt=0.01)
    for rows in ([0, 1], [0, 2], [0, 3], [0, 4], [1, 2, 3, 4]):
        want = _outcome(_reference_flow_each, V, X[rows], t[rows], cfg)
        assert isinstance(want[0], float) and want[0] > 0
        assert _outcome(dyn._flow_each, V, X[rows], t[rows], cfg) == want
        counts, h = dyn._step_plan(t[rows], cfg, shared=True)
        assert _outcome(dyn.flow, V, X[rows], t[rows], cfg) == _outcome(
            _reference_rk4_rows, V, X[rows], h, counts)
        assert _outcome(lambda: dyn.flow_jacobian(V, X[rows], t[rows], cfg)) == _outcome(
            _reference_flow_jacobian, V, X[rows], t[rows], cfg)


def _reference_numeric_jacobian(field, X):
    """NumericField.jacobian_batch as two field calls per column."""
    X = np.asarray(X, dtype=float)
    n = field.dim
    out = np.empty(X.shape[:-1] + (n, n))
    with np.errstate(all="ignore"):
        for i in range(n):
            h = field.fd_step * np.maximum(1.0, np.abs(X[..., i]))
            xp = X.copy()
            xm = X.copy()
            xp[..., i] += h
            xm[..., i] -= h
            out[..., :, i] = (field.eval_batch(xp) - field.eval_batch(xm)) / (2 * h[..., None])
    return out


def _check_numeric_jacobians(field, X, h):
    """The stacked jacobian_batch and RK4 Jacobian kernel against the column loop."""
    assert_same_bits(field.jacobian_batch(X), _reference_numeric_jacobian(field, X))
    N = field.dim
    W = dyn._rk4_workspace(field, X, h)
    out = np.empty((len(X), 4 * N + 1, N))
    field._rk4_jacobian_kernel(W, out)
    with np.errstate(all="ignore"):
        Xn, points = field._rk4_stages(W)
    assert_same_bits(out[:, 0], Xn)
    for s, Y in enumerate(points):
        assert_same_bits(out[:, 1 + s * N:1 + (s + 1) * N], _reference_numeric_jacobian(field, Y))


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
def test_numeric_jacobian_is_the_column_loop_to_the_bit(case):
    V, X, t = case
    _, h = dyn._step_plan(t, dyn.FlowConfig())
    _check_numeric_jacobians(dyn.NumericField(V.dim, V.eval_batch), X, h)


@pytest.mark.parametrize("name", ["ufg-heisenberg", "sinfields", "random-circles"])
def test_numeric_drift_orthogonal_jacobian_is_the_column_loop_to_the_bit(rng, name):
    entry = catalog.get(name)
    v0perp = geo.drift_orthogonal_field(vf.build_hierarchy(entry.system.all_fields(),
                                                           entry.level))
    X = sample_points(entry, 24, rng)
    _check_numeric_jacobians(v0perp, X, np.full(len(X), 0.05))
    # stacked points, as the stage points of the RK4 Jacobian kernel
    Y = X.reshape(4, 6, -1)
    assert_same_bits(v0perp.jacobian_batch(Y), _reference_numeric_jacobian(v0perp, Y))


def test_loading_the_catalog_compiles_no_rk4_kernel():
    # a fresh interpreter, so that no other test's flows have compiled anything
    script = """
import gc
from ufgsim import catalog, cli, dynamics, fields
compiled = []
dynamics._compile_rk4_step = lambda *a: compiled.append(a)
cli.build_parser()
entries = [catalog.get(name) for name in catalog.list_entries()]
left = [f for f in gc.get_objects() if isinstance(f, fields.VectorField)
        and {"_rk4_kernel", "_rk4_jacobian_kernel"} & vars(f).keys()]
print(len(entries), len(compiled), len(left))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env)
    n_entries, n_compiled, n_left = map(int, out.stdout.split())
    assert n_entries == len(catalog.list_entries()) and n_compiled == n_left == 0


class TestNonFiniteJacobians:
    """A flow Jacobian or an adjoint push that turns non-finite is reported."""

    sqrt_field = vf.make_field(1, ["sqrt(x)"], ["x"])

    def test_infinite_flow_jacobian_raises(self):
        # sqrt(x) stays at 0 from 0, where its derivative is infinite
        with pytest.raises(dyn.FlowBlowUp, match="flow Jacobian") as err:
            dyn.flow_jacobian(self.sqrt_field, [0.0], 0.5)
        assert err.value.time == pytest.approx(1e-3)

    def test_adjoint_push_through_it_raises(self):
        const = vf.make_field(1, ["1"], ["x"])
        with pytest.raises(dyn.FlowBlowUp, match="flow Jacobian"):
            dyn.adjoint_push(self.sqrt_field, const, 0.5, [0.0])

    def test_adjoint_push_rejects_nan_routes(self):
        # Y is nan at the endpoint, so both routes are nan and their distance too
        shift = vf.make_field(1, ["1"], ["x"])
        Y = vf.make_field(1, ["sqrt(x - 10)"], ["x"])
        with pytest.raises(RuntimeError, match="differ by nan"):
            dyn.adjoint_push(shift, Y, 0.5, [0.0])

    def test_overflow_raises_flow_blowup_without_warnings(self):
        V = vf.make_field(2, ["x*x", "y"], ["x", "y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dyn.FlowBlowUp, match="flow state"):
                dyn.flow_jacobian(V, [1e200, 1.0], 0.5)

    def test_finite_entries_whose_sum_overflows_do_not_raise(self):
        # each step checks the sum of the state and the Jacobian at once; a sum
        # that overflows on finite entries is not a blow-up
        V = vf.make_field(2, ["0", "0"], ["x", "y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J, X = dyn.flow_jacobian(V, [1.5e308, 1.5e308], 0.01, with_endpoint=True)
        assert np.array_equal(J, np.eye(2)) and np.array_equal(X, [1.5e308, 1.5e308])

    def test_points_of_another_dimension_rejected(self):
        V = vf.make_field(2, ["y", "-x"], ["x", "y"])
        for call in (lambda x: dyn.flow(V, x, 0.1), lambda x: dyn.flow_jacobian(V, x, 0.1),
                     lambda x: dyn.flow_limit(V, x, 0.1)):
            for x in ([1.0], [1.0, 0.0, 0.0]):
                with pytest.raises(ValueError, match="dimension"):
                    call(x)

    def test_nan_time_is_not_finite(self):
        for call in (lambda t: dyn.flow(self.sqrt_field, [1.0], t),
                     lambda t: dyn.flow_jacobian(self.sqrt_field, [1.0], t),
                     lambda t: dyn._flow_each(self.sqrt_field, np.ones((2, 1)),
                                              np.array([0.1, t]), dyn.FlowConfig())):
            with pytest.raises(ValueError, match="horizon nan is not finite"):
                call(math.nan)
