"""Tests for shared-covariance linear discriminant scoring and the
cross-domain weight correction.

Oracles: hand linear solves, scipy matrix powers composed independently,
direct formula evaluation, and brute-force grid search.
"""

import numpy as np
import pytest
import scipy.linalg

from coralign.errors import InvalidInputError, NumericalError
from coralign.lda import (
    LdaInputs,
    LdaModel,
    domain_distance,
    fit_coral_lda,
    fit_lda,
    score,
    semi_supervised_combine,
)
from coralign.bench.data import generate_shift, rotated_anisotropic_spec
from coralign.linalg import DomainStats, mean_and_covariance, standardize


def random_spd(d, rng):
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.5 * np.eye(d)


def random_stats(d, rng):
    return DomainStats(mean=rng.standard_normal(d), cov=random_spd(d, rng), n=50)


class TestFitLda:
    def test_identity_covariance(self):
        inp = LdaInputs(
            mu_pos=np.array([1.0, 0.0]),
            mu_neg=np.array([0.0, 0.0]),
            cov_source=np.eye(2),
            lam=0.0,
        )
        np.testing.assert_allclose(fit_lda(inp).w, [1.0, 0.0], atol=1e-12)

    def test_equal_means_give_zero_weights(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(4)
        inp = LdaInputs(mu_pos=mu, mu_neg=mu.copy(), cov_source=random_spd(4, rng), lam=0.5)
        np.testing.assert_allclose(fit_lda(inp).w, np.zeros(4), atol=1e-12)

    def test_diagonal_hand_solve(self):
        inp = LdaInputs(
            mu_pos=np.array([2.0, 3.0]),
            mu_neg=np.array([0.0, 0.0]),
            cov_source=np.diag([2.0, 1.0]),
            lam=0.0,
        )
        np.testing.assert_allclose(fit_lda(inp).w, [1.0, 3.0], atol=1e-12)

    def test_matches_scipy_solve(self):
        rng = np.random.default_rng(1)
        C = random_spd(5, rng)
        diff = rng.standard_normal(5)
        inp = LdaInputs(
            mu_pos=diff, mu_neg=np.zeros(5), cov_source=C, lam=1.0
        )
        want = scipy.linalg.solve(C + np.eye(5), diff, assume_a="pos")
        np.testing.assert_allclose(fit_lda(inp).w, want, atol=1e-10)

    def test_singular_unregularized_rejected(self):
        inp = LdaInputs(
            mu_pos=np.array([1.0, 0.0]),
            mu_neg=np.array([0.0, 0.0]),
            cov_source=np.array([[1.0, 1.0], [1.0, 1.0]]),
            lam=0.0,
        )
        with pytest.raises(NumericalError):
            fit_lda(inp)


class TestFitCoralLda:
    def test_matching_covariances_reduce_to_plain_lda(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            g = np.random.default_rng(seed)
            d = int(g.integers(2, 8))
            C = random_spd(d, g)
            inp = LdaInputs(
                mu_pos=g.standard_normal(d),
                mu_neg=g.standard_normal(d),
                cov_source=C,
                cov_target=C.copy(),
                lam=1.0,
            )
            w_coral = fit_coral_lda(inp).w
            w_plain = fit_lda(inp).w
            assert np.linalg.norm(w_coral - w_plain) <= 1e-8 * max(np.linalg.norm(w_plain), 1e-12)

    def test_identity_covariances_identity_reduction(self):
        inp = LdaInputs(
            mu_pos=np.array([2.0, -1.0]),
            mu_neg=np.array([0.5, 0.5]),
            cov_source=np.eye(2),
            cov_target=np.eye(2),
            lam=0.0,
        )
        np.testing.assert_allclose(fit_coral_lda(inp).w, [1.5, -1.5], atol=1e-10)

    def test_matches_scipy_composition_oracle(self):
        rng = np.random.default_rng(3)
        Cs = random_spd(6, rng)
        Ct = random_spd(6, rng)
        diff = rng.standard_normal(6)
        inp = LdaInputs(
            mu_pos=diff, mu_neg=np.zeros(6), cov_source=Cs, cov_target=Ct, lam=0.0
        )
        got = fit_coral_lda(inp).w
        want = (
            scipy.linalg.fractional_matrix_power(Ct, -0.5).real.T
            @ scipy.linalg.fractional_matrix_power(Cs, -0.5).real
            @ diff
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_decorrelated_factorization(self):
        # score(w, u) must equal the whitened inner product w_hat . u_hat
        rng = np.random.default_rng(4)
        Cs, Ct = random_spd(5, rng), random_spd(5, rng)
        mu_pos, mu_neg = rng.standard_normal(5), rng.standard_normal(5)
        lam = 1.0
        inp = LdaInputs(mu_pos=mu_pos, mu_neg=mu_neg, cov_source=Cs, cov_target=Ct, lam=lam)
        model = fit_coral_lda(inp)
        I = np.eye(5)
        w_hat = scipy.linalg.fractional_matrix_power(Cs + lam * I, -0.5).real @ (mu_pos - mu_neg)
        for _ in range(20):
            u = rng.standard_normal(5)
            u_hat = scipy.linalg.fractional_matrix_power(Ct + lam * I, -0.5).real @ u
            assert score(model, u) == pytest.approx(w_hat @ u_hat, abs=1e-9)

    def test_missing_target_covariance_rejected(self):
        inp = LdaInputs(
            mu_pos=np.array([1.0]), mu_neg=np.array([0.0]), cov_source=np.eye(1)
        )
        with pytest.raises(InvalidInputError):
            fit_coral_lda(inp)


class TestScore:
    def test_axis_projection(self):
        model = LdaModel(w=np.array([1.0, 0.0]), mode="plain", provenance="test")
        assert score(model, np.array([3.0, 7.0])) == 3.0

    def test_linearity_under_negation(self):
        rng = np.random.default_rng(5)
        model = LdaModel(w=rng.standard_normal(4), mode="plain", provenance="test")
        u = rng.standard_normal(4)
        assert score(model, u) + score(model, -u) == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_per_row_oracle(self):
        rng = np.random.default_rng(6)
        model = LdaModel(w=rng.standard_normal(6), mode="plain", provenance="test")
        U = rng.standard_normal((30, 6))
        got = score(model, U)
        for i in range(30):
            assert got[i] == pytest.approx(float(np.dot(model.w, U[i])), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = LdaModel(w=np.array([1.0, 2.0]), mode="plain", provenance="test")
        with pytest.raises(InvalidInputError):
            score(model, np.array([1.0, 2.0, 3.0]))


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


class TestSemiSupervisedCombine:
    def _labeled_blobs(self, rng, w, n=40, margin=2.0):
        """Binary validation set separated along w with the given margin."""
        w = w / np.linalg.norm(w)
        d = len(w)
        X = rng.standard_normal((n, d)) * 0.3
        y = np.array([0, 1] * (n // 2))
        X += np.where(y[:, None] == 1, margin, -margin) * w[None, :]
        return X, y

    def test_identical_models_tie_break_to_largest_alpha(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal(3)
        m1 = LdaModel(w=w, mode="plain", provenance="s")
        m2 = LdaModel(w=w.copy(), mode="plain", provenance="t")
        X, y = self._labeled_blobs(rng, w)
        _, alpha = semi_supervised_combine(m1, m2, X, y, grid=[0.0, 0.25, 0.5, 1.0])
        assert alpha == 1.0

    def test_opposed_models_pick_target(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(4)
        m_src = LdaModel(w=-w, mode="plain", provenance="s")
        m_tgt = LdaModel(w=w, mode="plain", provenance="t")
        X, y = self._labeled_blobs(rng, w)
        _, alpha = semi_supervised_combine(m_src, m_tgt, X, y, grid=[0.0, 0.5, 1.0])
        assert alpha == 0.0

    def test_matches_brute_force_grid_oracle(self):
        rng = np.random.default_rng(13)
        m_src = LdaModel(w=rng.standard_normal(5), mode="plain", provenance="s")
        m_tgt = LdaModel(w=rng.standard_normal(5), mode="plain", provenance="t")
        X = rng.standard_normal((60, 5))
        y = (rng.random(60) < 0.5).astype(int)
        grid = [0.0, 0.5, 1.0]
        combined, alpha = semi_supervised_combine(m_src, m_tgt, X, y, grid=grid)

        best_alpha, best_acc = None, -1.0
        for a in grid:  # ascending, >= keeps the larger alpha on ties
            w = a * m_src.w + (1 - a) * m_tgt.w
            acc = np.mean((X @ w > 0).astype(int) == y)
            if acc >= best_acc:
                best_alpha, best_acc = a, acc
        assert alpha == best_alpha
        np.testing.assert_allclose(combined.w, alpha * m_src.w + (1 - alpha) * m_tgt.w)

    def test_single_class_validation_rejected(self):
        rng = np.random.default_rng(14)
        m = LdaModel(w=rng.standard_normal(3), mode="plain", provenance="s")
        X = rng.standard_normal((10, 3))
        with pytest.raises(InvalidInputError):
            semi_supervised_combine(m, m, X, np.zeros(10, dtype=int), grid=[0.0, 1.0])

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(15)
        m = LdaModel(w=rng.standard_normal(3), mode="plain", provenance="s")
        X, y = self._labeled_blobs(rng, m.w)
        with pytest.raises(InvalidInputError):
            semi_supervised_combine(m, m, X, y, grid=[])
