"""Tests for the dense symmetric linear-algebra kernel and SymOperator.

Expected values come from independent oracles: a two-pass centered
covariance estimator, scipy's matrix-function routines, elementwise
Python loops, and hand-worked small cases.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coralign import classify, deep, linalg
from coralign.bench.data import Dataset
from coralign.coral import fit_regularized
from coralign.errors import InvalidInputError, NotPSDError, NumericalError
from coralign.linalg import (
    SymOperator,
    covariance_operator,
    mean_and_covariance,
    psd_operator,
    standardize,
    sym_eigen,
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


def matrix_power(M, p):
    """M^p through the operator: one eigendecomposition, one power."""
    return psd_operator(M).power(p).dense()


def pinv_root(M):
    """The operator's pseudo-inverse square root of M and its rank."""
    op = psd_operator(M)
    return op.pinv_sqrt().dense(), op.rank


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        np.testing.assert_allclose(eig.spectrum, [1.0, 1.0, 1.0])
        assert eig.shift == 0.0

    def test_diagonal_sorted_ascending(self):
        eig = sym_eigen(np.diag([9.0, 4.0, 1.0]))
        np.testing.assert_allclose(eig.spectrum, [1.0, 4.0, 9.0])
        # eigenvectors of a diagonal matrix are signed unit vectors
        np.testing.assert_allclose(np.abs(eig.basis), np.eye(3)[:, ::-1], atol=1e-12)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(11)
        M = random_spd(6, rng)
        eig = sym_eigen(M)
        rebuilt = (eig.basis * eig.spectrum) @ eig.basis.T
        assert np.linalg.norm(rebuilt - M) <= 1e-8 * np.linalg.norm(M)

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            M = random_spd(5, rng)
            V = sym_eigen(M).basis
            np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-9)

    def test_asymmetric_input_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            sym_eigen(M)


class TestSymPower:
    """Matrix powers of a PSD matrix: psd_operator(M).power(p).dense()."""

    def test_identity_inverse_sqrt(self):
        np.testing.assert_allclose(matrix_power(np.eye(4), -0.5), np.eye(4), atol=1e-12)

    def test_diagonal_inverse_sqrt(self):
        got = matrix_power(np.diag([4.0, 9.0]), -0.5)
        np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_sqrt_squared_recovers_input(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = random_spd(6, rng)
            root = matrix_power(M, 0.5)
            assert np.linalg.norm(root @ root - M) <= 1e-8 * np.linalg.norm(M)

    def test_inverse_sqrt_whitens(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = random_spd(5, rng)
            W = matrix_power(M, -0.5)
            np.testing.assert_allclose(W @ M @ W, np.eye(5), atol=1e-7)

    def test_matches_scipy_sqrtm(self):
        rng = np.random.default_rng(2)
        M = random_spd(7, rng)
        np.testing.assert_allclose(matrix_power(M, 0.5), scipy.linalg.sqrtm(M).real, atol=1e-9)

    def test_matches_scipy_fractional_power(self):
        rng = np.random.default_rng(4)
        M = random_spd(5, rng)
        for p in (-0.5, 0.5, 2.0, -1.0):
            want = scipy.linalg.fractional_matrix_power(M, p).real
            np.testing.assert_allclose(matrix_power(M, p), want, atol=1e-8)
        for lam in (0.3, 2.0):
            want = scipy.linalg.fractional_matrix_power(M + lam * np.eye(5), -0.5).real
            got = psd_operator(M, lam).power(-0.5).dense()
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_result_symmetric(self):
        rng = np.random.default_rng(5)
        M = random_spd(6, rng, spread=3.0)
        out = matrix_power(M, -0.5)
        np.testing.assert_array_equal(out, out.T)

    def test_clearly_indefinite_matrix_rejected(self):
        with pytest.raises(NotPSDError):
            matrix_power(np.diag([1.0, -1.0]), 0.5)

    def test_floor_clamps_tiny_eigenvalues(self):
        # rank-1 matrix: with lam = 0 the zero eigenvalue is floored at
        # 1e-12 * lambda_max, so the inverse sqrt stays finite
        v = np.array([1.0, 2.0])
        out = matrix_power(np.outer(v, v), -0.5)
        assert np.all(np.isfinite(out))
        # with lam > 0 the clamp is lam itself, however large lambda_max:
        # a floor of 1e-12 * lambda_max (100 here) would give the unit
        # block about 0.1 instead of about 1; eigh's own error is about
        # eps * lambda_max = 2e-2 absolute, 1e-6 on the inverse root
        M = np.diag([1e14, 0.0, 0.5])
        M[1, 2] = M[2, 1] = 1e-3
        op = psd_operator(M, 1.0)
        assert op.spectrum.min() >= 1.0
        want = scipy.linalg.fractional_matrix_power(M + np.eye(3), -0.5).real
        np.testing.assert_allclose(op.power(-0.5).dense(), want, atol=1e-5)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_power(np.zeros((3, 3)), 0.5), 0.0)
        with pytest.raises(NumericalError):
            matrix_power(np.zeros((3, 3)), -0.5)
        np.testing.assert_allclose(
            psd_operator(np.zeros((3, 3)), 4.0).power(-0.5).dense(), 0.5 * np.eye(3)
        )


class TestPseudoInvSqrt:
    """SymOperator.pinv_sqrt, rank_mask and rank on psd_operator(M)."""

    def test_full_rank_matches_sym_power(self):
        rng = np.random.default_rng(6)
        M = random_spd(6, rng)
        got, rank = pinv_root(M)
        assert rank == 6
        np.testing.assert_allclose(got, matrix_power(M, -0.5), atol=1e-8)

    def test_rank_one_hand_case(self):
        # M = v v^T with ||v|| = 2 has the single eigenvalue 4 on the unit
        # direction v/2, so the pseudo inverse square root scales that axis
        # by 1/2:  P (v/2) = v/4  and  P v = v/2.
        v = np.array([2.0, 0.0])
        P, rank = pinv_root(np.outer(v, v))
        assert rank == 1
        np.testing.assert_allclose(P @ (v / 2), v / 4, atol=1e-12)
        np.testing.assert_allclose(P @ v, v / 2, atol=1e-12)
        np.testing.assert_allclose(P, np.array([[0.5, 0.0], [0.0, 0.0]]), atol=1e-12)

    def test_zero_matrix(self):
        P, rank = pinv_root(np.zeros((3, 3)))
        assert rank == 0
        np.testing.assert_allclose(P, np.zeros((3, 3)))

    def test_rank_of_a_rank_three_product(self):
        for seed in range(10):
            A = np.random.default_rng(seed).standard_normal((8, 3))
            assert pinv_root(A @ A.T)[1] == 3

    def test_deficient_matches_scipy_pinv(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 2))
        M = A @ A.T
        P, rank = pinv_root(M)
        assert rank == 2
        # P squared should equal the Moore-Penrose pseudoinverse of M
        np.testing.assert_allclose(P @ P, np.linalg.pinv(M), atol=1e-8)


class TestSymOperator:
    """apply, dense and power agree across dense and thin bases."""

    def _thin(self, rng, d=7, k=3, shift=0.4):
        V, _ = np.linalg.qr(rng.standard_normal((d, k)))
        return SymOperator(shift, V, rng.uniform(0.5, 2.0, k))

    def test_dense_is_shift_plus_low_rank(self):
        op = self._thin(np.random.default_rng(70))
        want = op.shift * np.eye(7) + (op.basis * op.spectrum) @ op.basis.T
        np.testing.assert_allclose(op.dense(), want, atol=1e-14)

    @pytest.mark.parametrize("rows", [None, 1, 2, 7, 40])
    def test_apply_matches_dense_product(self, rows):
        rng = np.random.default_rng(71)
        for op in (self._thin(rng), psd_operator(random_spd(7, rng), 0.2)):
            X = rng.standard_normal(7) if rows is None else rng.standard_normal((rows, 7))
            np.testing.assert_allclose(op.apply(X), X @ op.dense(), rtol=1e-12, atol=1e-12)

    def test_rank_counts_the_shift_outside_a_thin_basis(self):
        op = self._thin(np.random.default_rng(73))  # d = 7, k = 3, shift 0.4
        assert op.rank == 7
        assert SymOperator(0.0, op.basis, op.spectrum).rank == 3
        # a shift below DEFAULT_RANK_TOL times the largest eigenvalue is 0
        assert SymOperator(1e-12, op.basis, op.spectrum).rank == 3
        assert SymOperator(0.0, op.basis, np.zeros(3)).rank == 0

    def test_power_composes(self):
        op = self._thin(np.random.default_rng(72))
        M = op.dense()
        np.testing.assert_allclose(op.power(-0.5).dense() @ op.power(-0.5).dense(),
                                   np.linalg.inv(M), atol=1e-12)
        np.testing.assert_allclose(op.power(0.5).dense(), scipy.linalg.sqrtm(M).real,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [3, 9, 60])
    def test_covariance_operator_matches_dense_covariance(self, n):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((n, 12)) @ rng.standard_normal((12, 12)) + 5.0
        op = covariance_operator(X, 0.7)
        assert op.basis.shape == ((12, n - 1) if n - 1 < 12 else (12, 12))
        want = mean_and_covariance(X).cov + 0.7 * np.eye(12)
        np.testing.assert_allclose(op.dense(), want, rtol=1e-10, atol=1e-10)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            psd_operator(np.eye(2), -1.0)
        with pytest.raises(InvalidInputError):
            covariance_operator(np.ones((2, 5)), -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        # both used to reach eigh and fail to converge
        with pytest.raises(InvalidInputError, match="finite"):
            psd_operator(np.eye(2), lam)
        for rows in (2, 9):  # wide (Gram) and tall (covariance) paths
            with pytest.raises(InvalidInputError, match="finite"):
                covariance_operator(np.arange(rows * 5.0).reshape(rows, 5) ** 2, lam)


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

    @pytest.mark.parametrize("value", [0.1, 1e8 + 0.3, -7.3e-5])
    def test_constant_column_whose_mean_rounds_comes_out_zero(self, value):
        # the computed std of 1000 copies of 0.1 is 1.4e-15, not 0, and it
        # once scaled the column to 0.9995 in every row
        rng = np.random.default_rng(16)
        X = np.column_stack([rng.standard_normal(1000), np.full(1000, value),
                             1e8 + rng.standard_normal(1000)])
        assert X[:, 1].std(ddof=1) > 0.0
        out, means, stds = standardize(X)
        np.testing.assert_array_equal(out[:, 1], np.zeros(1000))  # exactly
        assert means[1] == value and stds[1] == 1.0
        # the other columns are standardized as before, bit for bit
        want_stds = X.std(axis=0, ddof=1)
        want = (X - X.mean(axis=0)) / want_stds
        np.testing.assert_array_equal(out[:, [0, 2]], want[:, [0, 2]])
        np.testing.assert_array_equal(stds[[0, 2]], want_stds[[0, 2]])

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5), (1000, 20), (700, 96)])
    def test_equals_centring_twice_bit_for_bit(self, shape):
        # the std from the returned centred array, scaled in place, against
        # np.std and a second centring; column 0 exactly constant, column 1
        # constant with a mean that rounds
        rng = np.random.default_rng(17)
        n, d = shape
        X = rng.standard_normal(shape) * rng.uniform(0.1, 100.0, d) + rng.uniform(-1e6, 1e6, d)
        X[:, 0] = 3.0
        X[:, 1] = 0.1
        if n > 2:
            assert X[:, 1].std(ddof=1) > 0.0
        means = X.mean(axis=0)
        stds = X.std(axis=0, ddof=1)
        for j in (0, 1):
            means[j], stds[j] = X[0, j], 0.0
        stds = np.where(stds == 0.0, 1.0, stds)
        want = (X - means) / stds
        got = standardize(X)
        for g, w in zip(got, (want, means, stds)):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(w))
        assert got[0].flags.c_contiguous

    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(2, 200), d=st.integers(1, 9), block=st.integers(1, 40),
           scale=st.sampled_from([1e-3, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
    # one column, and two columns above one default block
    @example(n=70000, d=1, block=linalg._BLOCK_ENTRIES, scale=1.0, seed=0)
    @example(n=40000, d=2, block=linalg._BLOCK_ENTRIES, scale=1.0, seed=1)
    def test_square_sums_in_row_blocks_equal_the_whole_reduce(self, n, d, block, scale, seed):
        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((n, d)) + rng.uniform(-10.0, 10.0, d)
        centred = X - X.mean(axis=0)
        want = np.add.reduce(np.square(centred), axis=0)
        with mock.patch.object(linalg, "_BLOCK_ENTRIES", block):
            assert linalg._column_square_sums(centred).tobytes() == want.tobytes()
            _, _, stds = standardize(X)
        assert stds.tobytes() == np.sqrt(want / (n - 1)).tobytes()

    def test_forms_no_square_beside_its_output(self):
        # the returned array and one row block of squares; a whole n x d
        # square of the centred rows beside it took 2.0 arrays
        n, d = 4000, 256
        X = np.random.default_rng(18).standard_normal((n, d))
        tracemalloc.start()
        try:
            standardize(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.nbytes

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            standardize(np.array([[1.0, 2.0]]))


def _label_callers():
    """Each caller of class_labels as (argument name, call with labels):
    ten rows of two classes."""
    rng = np.random.default_rng(40)
    X, Xt = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
    y = np.array([0, 1] * 5)
    cfg = deep.TrainConfig(iterations=2, batch_size=4)

    def train(source_labels, target_labels):
        deep.train_joint(deep.init_network([2, 4, 2], seed=0), X, source_labels, Xt, cfg,
                         0, target_labels=target_labels)

    return y, {
        "fit_cross_validated": ("labels", lambda labels: classify.fit_cross_validated(
            [X], labels, [1.0], folds=2, seed=0, epochs=20)),
        "train_svm": ("labels", lambda labels: classify.train_svm(X, labels, 1.0, 20, 0)),
        "train_joint source": ("source labels", lambda labels: train(labels, y)),
        "train_joint target": ("target labels", lambda labels: train(y, labels)),
        "Dataset": ("labels", lambda labels: Dataset(X, labels)),
    }


# What each bad case's error says after the argument's name.
_LABEL_ERRORS = {"short": "must have shape", "2-d": "must have shape",
                 "fractional": "must be integers", "nan": "must be integers",
                 "inf": "must be integers", "huge": "must be integers",
                 "negative": "must be non-negative class indices"}


def _bad_labels(y, case):
    bad = y.astype(float)
    if case == "short":
        return y[:-1]
    if case == "2-d":
        return y[:, None]
    if case == "fractional":
        return bad + 0.5
    bad[0] = {"nan": np.nan, "inf": np.inf, "huge": 1e30, "negative": -1.0}[case]
    return bad


class TestClassLabels:
    @pytest.mark.parametrize("case", list(_LABEL_ERRORS))
    @pytest.mark.parametrize("caller", ["fit_cross_validated", "train_svm",
                                        "train_joint source", "train_joint target", "Dataset"])
    def test_every_caller_rejects_bad_labels_naming_them(self, caller, case):
        y, callers = _label_callers()
        name, call = callers[caller]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^{name} {_LABEL_ERRORS[case]}"):
                call(_bad_labels(y, case))

    def test_integral_floats_and_integers_give_the_same_labels(self):
        y = np.array([2, 0, 1, 0])
        for labels in (y, y.astype(float), list(y)):
            got = linalg.class_labels(labels, 4)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, y)
