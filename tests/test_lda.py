"""Tests for shared-covariance linear discriminant weights and the
cross-domain weight correction.

Oracles: hand linear solves, scipy solves and matrix powers composed
independently, and direct formula evaluation.
"""

import numpy as np
import pytest
import scipy.linalg

from coralign.errors import InvalidInputError, NumericalError
from coralign.lda import domain_distance, fit_coral_lda, fit_lda
from coralign.bench.data import generate_shift, rotated_anisotropic_spec
from coralign.linalg import (DomainStats, covariance_operator, mean_and_covariance,
                             psd_operator, standardize)


def random_spd(d, rng):
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.5 * np.eye(d)


def random_stats(d, rng):
    return DomainStats(mean=rng.standard_normal(d), cov=random_spd(d, rng), n=50)


class TestFitLda:
    def test_identity_covariance(self):
        w = fit_lda(np.array([1.0, 0.0]), psd_operator(np.eye(2), 0.0))
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_equal_means_give_zero_weights(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(4)
        w = fit_lda(mu - mu.copy(), psd_operator(random_spd(4, rng), 0.5))
        np.testing.assert_allclose(w, np.zeros(4), atol=1e-12)

    def test_diagonal_hand_solve(self):
        w = fit_lda(np.array([2.0, 3.0]), psd_operator(np.diag([2.0, 1.0]), 0.0))
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)

    def test_matches_scipy_solve(self):
        rng = np.random.default_rng(1)
        C = random_spd(5, rng)
        diff = rng.standard_normal(5)
        want = scipy.linalg.solve(C + np.eye(5), diff, assume_a="pos")
        np.testing.assert_allclose(fit_lda(diff, psd_operator(C, 1.0)), want, atol=1e-10)

    def test_singular_unregularized_rejected(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError):
            fit_lda(np.array([1.0, 0.0]), psd_operator(C, 0.0))

    def test_singular_covariance_rejected_whatever_the_solve_returns(self, monkeypatch):
        # the clamp at lam = 0 keeps the inverse finite, and no solve is
        # consulted: the rank rule alone must reject
        X = np.random.default_rng(0).standard_normal((40, 2))
        C = mean_and_covariance(np.hstack([X, X[:, :1]])).cov
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.ones_like(b))
        with pytest.raises(NumericalError, match="rank 2 of 3"):
            fit_lda(np.array([1.0, 0.5, 1.0]), psd_operator(C, 0.0))

    def test_thin_operator_at_shift_zero_is_singular(self):
        # wide rows give a basis of n - 1 = 8 of 30 directions; at shift 0
        # the other 22 have eigenvalue 0
        X = np.random.default_rng(5).standard_normal((9, 30))
        thin = covariance_operator(X, 0.0)
        assert thin.basis.shape == (30, 8)
        with pytest.raises(NumericalError, match="rank 8 of 30"):
            fit_lda(np.ones(30), thin)

    @pytest.mark.parametrize("lam", [0.5, 1e-3])
    def test_thin_operator_matches_dense(self, lam):
        # at shift lam > 0 the directions outside the thin basis have
        # eigenvalue lam and the inverse is exact
        rng = np.random.default_rng(6)
        X = rng.standard_normal((9, 30)) * np.linspace(0.5, 3.0, 30)
        diffs = rng.standard_normal((3, 30))
        thin = covariance_operator(X, lam)
        assert thin.basis.shape == (30, 8)
        want = fit_lda(diffs, psd_operator(mean_and_covariance(X).cov, lam))
        got = fit_lda(diffs, thin)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_thin_operator_with_a_negligible_shift_is_singular(self):
        # eigenvalue lam outside the basis, below 1e-10 of the largest
        X = np.random.default_rng(5).standard_normal((9, 30)) * 1e6
        with pytest.raises(NumericalError, match="rank 8 of 30"):
            fit_lda(np.ones(30), covariance_operator(X, 1e-3))

    def test_shape_and_lambda_checks(self):
        source = psd_operator(np.eye(3))
        for diffs in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))):
            with pytest.raises(InvalidInputError):
                fit_lda(diffs, source)
        with pytest.raises(InvalidInputError):
            psd_operator(np.eye(3), -1.0)

    def test_stacked_rows_match_per_row_fits(self):
        # one pass of the inverse for K mean differences gives each row's
        # own weight
        rng = np.random.default_rng(11)
        source, D = psd_operator(random_spd(7, rng), 0.3), rng.standard_normal((5, 7))
        W = fit_lda(D, source)
        assert W.shape == (5, 7)
        for w, diff in zip(W, D):
            want = fit_lda(diff, source)
            assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)


class TestFitCoralLda:
    def test_matching_covariances_reduce_to_plain_lda(self):
        for seed in range(20):
            g = np.random.default_rng(seed)
            d = int(g.integers(2, 8))
            C = random_spd(d, g)
            diff = g.standard_normal(d) - g.standard_normal(d)
            w_coral = fit_coral_lda(diff, psd_operator(C, 1.0), psd_operator(C.copy(), 1.0))
            w_plain = fit_lda(diff, psd_operator(C, 1.0))
            assert np.linalg.norm(w_coral - w_plain) <= 1e-8 * max(np.linalg.norm(w_plain), 1e-12)

    def test_identity_covariances_identity_reduction(self):
        identity = psd_operator(np.eye(2), 0.0)
        got = fit_coral_lda(np.array([2.0, -1.0]) - np.array([0.5, 0.5]), identity, identity)
        np.testing.assert_allclose(got, [1.5, -1.5], atol=1e-10)

    def test_matches_scipy_composition_oracle(self):
        rng = np.random.default_rng(3)
        Cs = random_spd(6, rng)
        Ct = random_spd(6, rng)
        diff = rng.standard_normal(6)
        got = fit_coral_lda(diff, psd_operator(Cs, 0.0), psd_operator(Ct, 0.0))
        want = (
            scipy.linalg.fractional_matrix_power(Ct, -0.5).real.T
            @ scipy.linalg.fractional_matrix_power(Cs, -0.5).real
            @ diff
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_decorrelated_factorization(self):
        # w . u must equal the whitened inner product w_hat . u_hat
        rng = np.random.default_rng(4)
        Cs, Ct = random_spd(5, rng), random_spd(5, rng)
        diff = rng.standard_normal(5) - rng.standard_normal(5)
        lam = 1.0
        w = fit_coral_lda(diff, psd_operator(Cs, lam), psd_operator(Ct, lam))
        I = np.eye(5)
        w_hat = scipy.linalg.fractional_matrix_power(Cs + lam * I, -0.5).real @ diff
        for _ in range(20):
            u = rng.standard_normal(5)
            u_hat = scipy.linalg.fractional_matrix_power(Ct + lam * I, -0.5).real @ u
            assert float(w @ u) == pytest.approx(w_hat @ u_hat, abs=1e-9)

    def test_thin_whitening_matches_dense(self):
        # wide data: operators from the Gram route, never d x d, give the
        # weight the dense covariances give
        rng = np.random.default_rng(7)
        Xs, Xt = rng.standard_normal((9, 30)), 2.0 * rng.standard_normal((12, 30))
        diff = rng.standard_normal(30) - rng.standard_normal(30)
        thin = [covariance_operator(X, 0.5) for X in (Xs, Xt)]
        assert thin[0].basis.shape == (30, 8)
        dense = [psd_operator(mean_and_covariance(X).cov, 0.5) for X in (Xs, Xt)]
        want = fit_coral_lda(diff, *dense)
        np.testing.assert_allclose(fit_coral_lda(diff, *thin), want,
                                   rtol=1e-9, atol=1e-12)

    def test_stacked_rows_match_per_row_fits(self):
        rng = np.random.default_rng(12)
        Cs, Ct = psd_operator(random_spd(6, rng), 0.5), psd_operator(random_spd(6, rng), 0.5)
        D = rng.standard_normal((4, 6))
        W = fit_coral_lda(D, Cs, Ct)
        assert W.shape == (4, 6)
        for w, diff in zip(W, D):
            want = fit_coral_lda(diff, Cs, Ct)
            assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)

    def test_dimension_mismatch_rejected(self):
        C1, C2 = psd_operator(np.eye(1), 1.0), psd_operator(np.eye(2), 1.0)
        with pytest.raises(InvalidInputError):
            fit_coral_lda(np.array([1.0]), C1, C2)
        with pytest.raises(InvalidInputError):
            fit_coral_lda(np.array([1.0]), C2, C2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", ["lda", "coral-lda"])
def test_fits_reject_non_finite_mean_differences(fit, bad):
    # the input's fault: fit_coral_lda returned NaN weights without an
    # error, and fit_lda raised NumericalError on the weights it computed
    source = psd_operator(random_spd(3, np.random.default_rng(2)), 1.0)
    for diffs in (np.array([1.0, bad, 0.0]), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, bad]])):
        with pytest.raises(InvalidInputError, match="^mean differences must be finite$"):
            fit_lda(diffs, source) if fit == "lda" else fit_coral_lda(diffs, source, source)


def singular_covariance():
    """The covariance of 40 rows whose third column copies the first:
    rank 2 of 3."""
    X = np.random.default_rng(0).standard_normal((40, 2))
    return mean_and_covariance(np.hstack([X, X[:, :1]])).cov


class TestOneRuleForBothFits:
    """fit_coral_lda checks each operator by fit_lda's rank and
    finiteness rules."""

    def test_singular_source_rejected_at_lam_0(self):
        # the clamp at lam = 0 keeps W_S finite: the rank rule must reject
        source = psd_operator(singular_covariance(), 0.0)
        with pytest.raises(NumericalError, match="^covariance not invertible: "
                                                 "C_S \\+ lam I has rank 2 of 3$"):
            fit_coral_lda(np.array([1.0, 0.5, 1.0]), source, psd_operator(np.eye(3), 0.0))

    def test_thin_target_at_shift_zero_rejected(self):
        # n - 1 = 8 of 30 directions; the other 22 have eigenvalue 0
        thin = covariance_operator(np.random.default_rng(5).standard_normal((9, 30)), 0.0)
        with pytest.raises(NumericalError, match="^covariance not invertible: "
                                                 "C_T \\+ lam I has rank 8 of 30$"):
            fit_coral_lda(np.ones(30), psd_operator(np.eye(30), 1.0), thin)

    @pytest.mark.parametrize("fit", ["lda", "coral-lda"])
    def test_overflowing_weights_rejected_without_a_warning(self, fit):
        # full rank, but 1e10 / 1e-300 overflows; any warning would fail
        # the suite before the NumericalError surfaced
        op = psd_operator(1e-300 * np.eye(3), 0.0)
        assert op.rank == 3
        diff = 1e10 * np.ones(3)
        with pytest.raises(NumericalError, match="^discriminant weights are non-finite$"):
            fit_lda(diff, op) if fit == "lda" else fit_coral_lda(diff, op, op)


class TestDomainDistance:
    def test_identical_stats(self):
        rng = np.random.default_rng(7)
        a = random_stats(4, rng)
        b = DomainStats(mean=a.mean.copy(), cov=a.cov.copy(), n=a.n)
        assert domain_distance(a, b) == 0.0

    def test_identity_vs_zero_covariance(self):
        mu = np.array([1.0, 1.0])
        a = DomainStats(mean=mu, cov=np.eye(2), n=10)
        b = DomainStats(mean=mu.copy(), cov=np.zeros((2, 2)), n=10)
        assert domain_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        a, b = random_stats(5, rng), random_stats(5, rng)
        got = domain_distance(a, b)
        want = np.linalg.norm(a.cov - b.cov, "fro") / (
            np.linalg.norm(a.cov, "fro") + np.linalg.norm(b.cov, "fro")
        ) + np.linalg.norm(a.mean - b.mean) / (
            np.linalg.norm(a.mean) + np.linalg.norm(b.mean)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_stats(3, rng), random_stats(3, rng)
            d_ab = domain_distance(a, b)
            d_ba = domain_distance(b, a)
            assert d_ab == pytest.approx(d_ba, rel=1e-12)
            assert 0.0 <= d_ab <= 2.0

    def test_standardized_domains_give_the_covariance_term(self):
        # both means are round-off after standardizing; their ratio is noise
        src, tgt = generate_shift(rotated_anisotropic_spec(0))
        a = mean_and_covariance(standardize(src.features)[0])
        b = mean_and_covariance(standardize(tgt.features)[0])
        cov_term = np.linalg.norm(a.cov - b.cov) / (
            np.linalg.norm(a.cov) + np.linalg.norm(b.cov)
        )
        assert domain_distance(a, b) == cov_term

    def test_zero_denominators_contribute_zero(self):
        zero = DomainStats(mean=np.zeros(3), cov=np.zeros((3, 3)), n=5)
        same = DomainStats(mean=np.zeros(3), cov=np.zeros((3, 3)), n=5)
        assert domain_distance(zero, same) == 0.0

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(InvalidInputError):
            domain_distance(random_stats(3, rng), random_stats(4, rng))
