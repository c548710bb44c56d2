"""Tests for the dense symmetric linear-algebra kernel.

Expected values come from independent oracles: a two-pass centered
covariance estimator, scipy's matrix-function routines, elementwise
Python loops, and hand-worked small cases.
"""

import numpy as np
import pytest
import scipy.linalg

from coralign.coral import fit_regularized
from coralign.errors import InvalidInputError, NotPSDError
from coralign.linalg import (
    frobenius_distance_sq,
    mean_and_covariance,
    pseudo_inv_sqrt,
    standardize,
    sym_eigen,
    sym_power,
)


def two_pass_cov(X):
    """Oracle: explicitly centered unbiased covariance, summed row by row."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mu = X.mean(axis=0)
    acc = np.zeros((d, d))
    for i in range(n):
        r = X[i] - mu
        acc += np.outer(r, r)
    return acc / (n - 1)


def random_spd(d, rng, spread=1.0):
    A = rng.standard_normal((d, d)) * spread
    return A @ A.T + 1e-3 * np.eye(d)


class TestMeanAndCovariance:
    def test_two_point_symmetric_case(self):
        stats = mean_and_covariance(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(stats.mean, [0.0, 0.0])
        np.testing.assert_allclose(stats.cov, [[2.0, -2.0], [-2.0, 2.0]])
        assert stats.n == 2

    def test_identical_rows_zero_covariance(self):
        X = np.tile([3.0, -7.0, 0.5], (6, 1))
        stats = mean_and_covariance(X)
        np.testing.assert_allclose(stats.cov, np.zeros((3, 3)))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((10, 4))
        stats = mean_and_covariance(X)
        np.testing.assert_allclose(stats.cov, two_pass_cov(X), atol=1e-10)

    def test_one_pass_equals_two_pass_larger_sizes(self):
        rng = np.random.default_rng(7)
        for n, d in [(50, 3), (200, 16), (1000, 64)]:
            X = rng.standard_normal((n, d)) * 10 + rng.standard_normal(d)
            got = mean_and_covariance(X).cov
            want = two_pass_cov(X)
            assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))

    @pytest.mark.parametrize("offset, scale", [(1e4, 1e-3), (1e8, 1.0)])
    def test_large_offset_matches_numpy(self, offset, scale):
        # unstandardized features far from the origin: summing squares
        # before subtracting the mean cancels away the variance
        rng = np.random.default_rng(5)
        X = offset + scale * rng.standard_normal((400, 6))
        got = mean_and_covariance(X).cov
        want = np.cov(X, rowvar=False)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        Y = offset + scale * rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6))
        A = fit_regularized(X, Y, lam=scale**2).A
        assert np.all(np.isfinite(A))

    def test_single_row_gives_zero_matrix(self):
        stats = mean_and_covariance(np.array([[4.0, 5.0, 6.0]]))
        np.testing.assert_allclose(stats.cov, np.zeros((3, 3)))
        np.testing.assert_allclose(stats.mean, [4.0, 5.0, 6.0])

    def test_covariance_is_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            X = np.random.default_rng(seed).standard_normal((rng.integers(2, 40), rng.integers(1, 12)))
            C = mean_and_covariance(X).cov
            assert np.abs(C - C.T).max() <= 1e-12
            w = np.linalg.eigvalsh(C)
            assert w.min() >= -1e-9 * max(w.max(), 0.0)

    def test_non_finite_input_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            mean_and_covariance(X)
        X = np.array([[1.0, np.inf], [2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            mean_and_covariance(X)


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        eig = sym_eigen(np.diag([9.0, 4.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [9.0, 4.0, 1.0])
        # eigenvectors of a diagonal matrix are signed unit vectors
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(3), atol=1e-12)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(11)
        M = random_spd(6, rng)
        eig = sym_eigen(M)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert np.linalg.norm(rebuilt - M) <= 1e-8 * np.linalg.norm(M)

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            M = random_spd(5, rng)
            V = sym_eigen(M).eigenvectors
            np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-9)

    def test_asymmetric_input_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            sym_eigen(M)


class TestSymPower:
    def test_identity_inverse_sqrt(self):
        np.testing.assert_allclose(sym_power(np.eye(4), -0.5), np.eye(4), atol=1e-12)

    def test_diagonal_inverse_sqrt(self):
        got = sym_power(np.diag([4.0, 9.0]), -0.5)
        np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_sqrt_squared_recovers_input(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = random_spd(6, rng)
            root = sym_power(M, 0.5)
            assert np.linalg.norm(root @ root - M) <= 1e-8 * np.linalg.norm(M)

    def test_inverse_sqrt_whitens(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = random_spd(5, rng)
            W = sym_power(M, -0.5)
            np.testing.assert_allclose(W @ M @ W, np.eye(5), atol=1e-7)

    def test_matches_scipy_sqrtm(self):
        rng = np.random.default_rng(2)
        M = random_spd(7, rng)
        np.testing.assert_allclose(sym_power(M, 0.5), scipy.linalg.sqrtm(M).real, atol=1e-9)

    def test_matches_scipy_fractional_power(self):
        rng = np.random.default_rng(4)
        M = random_spd(5, rng)
        for p in (-0.5, 0.5, 2.0, -1.0):
            want = scipy.linalg.fractional_matrix_power(M, p).real
            np.testing.assert_allclose(sym_power(M, p), want, atol=1e-8)

    def test_result_symmetric(self):
        rng = np.random.default_rng(5)
        M = random_spd(6, rng, spread=3.0)
        out = sym_power(M, -0.5)
        np.testing.assert_allclose(out, out.T, atol=1e-12)

    def test_clearly_indefinite_matrix_rejected(self):
        with pytest.raises(NotPSDError):
            sym_power(np.diag([1.0, -1.0]), 0.5)

    def test_floor_clamps_tiny_eigenvalues(self):
        # rank-1 matrix: the zero eigenvalue is floored, so the inverse sqrt
        # stays finite
        v = np.array([1.0, 2.0])
        M = np.outer(v, v)
        out = sym_power(M, -0.5, floor=1e-8)
        assert np.all(np.isfinite(out))


class TestPseudoInvSqrt:
    def test_full_rank_matches_sym_power(self):
        rng = np.random.default_rng(6)
        M = random_spd(6, rng)
        got, rank = pseudo_inv_sqrt(M)
        assert rank == 6
        np.testing.assert_allclose(got, sym_power(M, -0.5, floor=1e-300), atol=1e-8)

    def test_rank_one_hand_case(self):
        # M = v v^T with ||v|| = 2 has the single eigenvalue 4 on the unit
        # direction v/2, so the pseudo inverse square root scales that axis
        # by 1/2:  P (v/2) = v/4  and  P v = v/2.
        v = np.array([2.0, 0.0])
        P, rank = pseudo_inv_sqrt(np.outer(v, v))
        assert rank == 1
        np.testing.assert_allclose(P @ (v / 2), v / 4, atol=1e-12)
        np.testing.assert_allclose(P @ v, v / 2, atol=1e-12)
        np.testing.assert_allclose(P, np.array([[0.5, 0.0], [0.0, 0.0]]), atol=1e-12)

    def test_zero_matrix(self):
        P, rank = pseudo_inv_sqrt(np.zeros((3, 3)))
        assert rank == 0
        np.testing.assert_allclose(P, np.zeros((3, 3)))

    def test_rank_monotone_in_tolerance(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            g = np.random.default_rng(seed)
            d = 8
            A = g.standard_normal((d, 3))
            M = A @ A.T  # rank 3
            ranks = [pseudo_inv_sqrt(M, rank_tol=t)[1] for t in (1e-14, 1e-10, 1e-4, 1e-1, 10.0)]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_deficient_matches_scipy_pinv(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 2))
        M = A @ A.T
        P, rank = pseudo_inv_sqrt(M)
        assert rank == 2
        # P squared should equal the Moore-Penrose pseudoinverse of M
        np.testing.assert_allclose(P @ P, np.linalg.pinv(M), atol=1e-8)


class TestFrobeniusDistanceSq:
    def test_identical(self):
        M = np.arange(6.0).reshape(2, 3)
        assert frobenius_distance_sq(M, M) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance_sq(np.eye(2), np.zeros((2, 2))) == pytest.approx(2.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 7))
        B = rng.standard_normal((5, 7))
        acc = 0.0
        for i in range(5):
            for j in range(7):
                acc += (A[i, j] - B[i, j]) ** 2
        assert frobenius_distance_sq(A, B) == pytest.approx(acc, rel=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(13)
        A, B = rng.standard_normal((2, 4, 4))
        assert frobenius_distance_sq(A, B) == pytest.approx(frobenius_distance_sq(B, A), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            frobenius_distance_sq(np.eye(2), np.eye(3))


class TestStandardize:
    def test_two_point_column(self):
        out, means, stds = standardize(np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(out, [[-np.sqrt(0.5)], [np.sqrt(0.5)]])
        np.testing.assert_allclose(means, [3.0])
        np.testing.assert_allclose(stds, [np.sqrt(2.0)])

    def test_output_columns_standardized(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 6)) * 3 + 5
        out, _, _ = standardize(X)
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(6), atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), np.ones(6), atol=1e-8)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(15)
        X, _, _ = standardize(rng.standard_normal((30, 4)))
        again, means, stds = standardize(X)
        np.testing.assert_allclose(again, X, atol=1e-8)

    def test_constant_column_centered_with_unit_std(self):
        out, means, stds = standardize(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_allclose(out, np.zeros((3, 1)))
        np.testing.assert_allclose(means, [5.0])
        np.testing.assert_allclose(stds, [1.0])

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            standardize(np.array([[1.0, 2.0]]))
