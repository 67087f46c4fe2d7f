import numpy as np
import pytest

from ufgsim.linalg import (
    alignment_certificate,
    greedy_independent_columns,
    pivoted_columns,
    project_onto_columns,
    svd_rank,
    sym_outer_max_eig,
)


class TestSvdRank:
    def test_plain_ranks(self):
        assert svd_rank(np.eye(3)) == 3
        assert svd_rank(np.zeros((3, 2))) == 0
        assert svd_rank(np.ones((3, 3))) == 1

    def test_relative_cutoff(self):
        F = np.diag([1.0, 1e-5, 1e-12])
        assert svd_rank(F, rtol=1e-8) == 2
        assert svd_rank(F, rtol=1e-14) == 3

    def test_absolute_floor(self):
        assert svd_rank(1e-13 * np.eye(2)) == 0

    def test_batched(self):
        frames = np.stack([np.eye(2), np.zeros((2, 2))])
        assert list(svd_rank(frames)) == [2, 0]

    def test_empty_frame(self):
        assert svd_rank(np.zeros((3, 0))) == 0


class TestProjection:
    def test_projects_into_span(self, rng):
        F = rng.standard_normal((4, 2))
        v = rng.standard_normal(4)
        p = project_onto_columns(F, v)
        assert np.allclose(F.T @ (v - p), 0, atol=1e-10)

    def test_vector_in_span_unchanged(self, rng):
        F = rng.standard_normal((4, 2))
        v = F @ rng.standard_normal(2)
        assert np.allclose(project_onto_columns(F, v), v, atol=1e-10)


class TestGreedySelection:
    def test_skips_collinear_columns(self):
        F = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert greedy_independent_columns(F) == [0, 2]

    def test_keeps_tiny_but_nonzero_columns(self):
        F = np.array([[1e-40], [0.0]])
        assert greedy_independent_columns(F) == [0]


class TestPivotedColumns:
    def test_largest_residual_first(self):
        F = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert pivoted_columns(F, 1) == [1]
        assert pivoted_columns(F, 2) == [1, 2]

    def test_ties_go_to_the_first_column_in_swapped_order(self):
        # the first pivot swaps column 2 to the front and column 0 to the back,
        # so of the tied columns 0 and 1 the second pivot is column 1
        F = np.diag([1.0, 1.0, 2.0])
        assert pivoted_columns(F, 2) == [1, 2]
        assert pivoted_columns(np.eye(3), 2) == [0, 1]


class TestAlignment:
    def test_max_eig_closed_form(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            M = 0.5 * (np.outer(a, b) + np.outer(b, a))
            want = max(np.linalg.eigvalsh(M).max(), 0.0)
            assert sym_outer_max_eig(a, b) == pytest.approx(want, abs=1e-12)

    def test_certificate_is_exact_threshold(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            u = rng.standard_normal(n)
            w = rng.standard_normal(n)
            tau = 10.0 ** rng.uniform(-8, -2)
            lam = alignment_certificate(u, w, tau)
            at = sym_outer_max_eig(u + lam * w, w)
            # recomputing the eigenvalue at the certified threshold cancels
            # terms of size |lam| |w|^2 down to tau, so the verification slack
            # must scale with the cancelled magnitude
            cancelled = 1 + abs(lam) * (w @ w) + np.linalg.norm(u) * np.linalg.norm(w)
            slack = 1e-12 * cancelled
            assert at == pytest.approx(tau, rel=1e-4, abs=slack)
            below = sym_outer_max_eig(u + (lam - 1e-6 * (1 + abs(lam))) * w, w)
            assert below <= tau + slack

    def test_vacuous_when_direction_vanishes(self):
        assert alignment_certificate(np.ones(3), np.zeros(3), 1e-9) == np.inf

    def test_stacked_rows_equal_one_dimensional_calls(self, rng):
        # leading axes stack: each row gives the bits of the 1-D call on it
        A = rng.standard_normal((4, 3, 5)) * 10.0 ** rng.integers(-3, 4, size=(4, 3, 1))
        B = rng.standard_normal((4, 3, 5))
        B[1, 2] = 0.0  # a vacuous row
        tau = 10.0 ** rng.uniform(-9, -3, size=(4, 3))
        eig = sym_outer_max_eig(A, B)
        cert = alignment_certificate(A, B, tau)
        assert eig.shape == cert.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            one_eig = sym_outer_max_eig(A[idx], B[idx])
            one_cert = alignment_certificate(A[idx], B[idx], float(tau[idx]))
            assert isinstance(one_eig, float) and isinstance(one_cert, float)
            assert (one_eig, one_cert) == (eig[idx], cert[idx])
        assert cert[1, 2] == np.inf
