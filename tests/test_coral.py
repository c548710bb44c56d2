"""Tests for the linear covariance-alignment transform.

Oracles: scipy matrix functions for the regularized path, eigenvalue
truncation for the deficient-rank analytical cases, per-row loops for
application, and score comparison for the weight-space equivalence.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coralign import coral, linalg
from coralign.classify import LinearModel, predict
from coralign.coral import (
    CoralTransform,
    _full_bases,
    apply_to_features,
    apply_to_weights,
    fit_analytical,
    fit_regularized,
    whiten_both_baseline,
)
from coralign.errors import InvalidInputError, NumericalError
from coralign.linalg import DEFAULT_RANK_TOL, mean_and_covariance, standardize


def random_full_rank(n, d, rng):
    """Standardized features with a well-conditioned random covariance."""
    X = rng.standard_normal((n, d)) @ (rng.standard_normal((d, d)) + 2 * np.eye(d))
    return standardize(X)[0]


class TestFitRegularized:
    def test_identical_covariances_give_identity(self):
        rng = np.random.default_rng(0)
        Ds = rng.standard_normal((40, 5))
        Dt = Ds[rng.permutation(40)]
        T = fit_regularized(Ds, Dt, lam=1.0)
        np.testing.assert_allclose(T.A, np.eye(5), atol=1e-8)
        assert T.mode == "regularized"
        assert T.lam == 1.0

    def test_scalar_case(self):
        # sample variances exactly 4 and 1, lambda 1 -> sqrt((1+1)/(4+1))
        Ds = np.array([[np.sqrt(2.0)], [-np.sqrt(2.0)]])
        Dt = np.array([[np.sqrt(0.5)], [-np.sqrt(0.5)]])
        T = fit_regularized(Ds, Dt, lam=1.0)
        np.testing.assert_allclose(T.A, [[np.sqrt(0.4)]], atol=1e-12)

    def test_transformed_covariance_matches_scipy_oracle(self):
        rng = np.random.default_rng(1)
        Ds = random_full_rank(120, 8, rng)
        Dt = random_full_rank(150, 8, rng)
        lam = 0.5
        T = fit_regularized(Ds, Dt, lam=lam)
        got = mean_and_covariance(apply_to_features(T, Ds)).cov

        Cs = mean_and_covariance(Ds).cov
        Ct = mean_and_covariance(Dt).cov
        I = np.eye(8)
        inv_root = scipy.linalg.fractional_matrix_power(Cs + lam * I, -0.5).real
        color = scipy.linalg.fractional_matrix_power(Ct + lam * I, 0.5).real
        want = color @ inv_root @ Cs @ inv_root @ color
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_mean_invariant(self):
        rng = np.random.default_rng(2)
        Ds = rng.standard_normal((60, 4))
        Dt = rng.standard_normal((80, 4))
        A0 = fit_regularized(Ds, Dt, lam=1.0).A
        A1 = fit_regularized(Ds + np.array([5.0, -3.0, 0.25, 100.0]), Dt, lam=1.0).A
        assert np.linalg.norm(A0 - A1) < 1e-9

    def test_zero_lambda_rejected_toward_analytical(self):
        rng = np.random.default_rng(3)
        Ds, Dt = rng.standard_normal((2, 20, 3))
        with pytest.raises(InvalidInputError, match="analytical"):
            fit_regularized(Ds, Dt, lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        # NaN and inf used to reach eigh and fail to converge
        rng = np.random.default_rng(3)
        Ds, Dt = rng.standard_normal((2, 20, 3))
        with pytest.raises(InvalidInputError, match="lambda"):
            fit_regularized(Ds, Dt, lam=lam)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInputError):
            fit_regularized(rng.standard_normal((10, 3)), rng.standard_normal((10, 4)), lam=1.0)

    def test_wide_data_matches_tall_path(self):
        # fewer rows than columns triggers the factored route; it must agree
        # with the dense spectral route computed here explicitly
        rng = np.random.default_rng(5)
        Ds = rng.standard_normal((6, 10))
        Dt = rng.standard_normal((7, 10))
        lam = 1.0
        T = fit_regularized(Ds, Dt, lam=lam)
        I = np.eye(10)
        Cs = mean_and_covariance(Ds).cov
        Ct = mean_and_covariance(Dt).cov
        inv_root = scipy.linalg.fractional_matrix_power(Cs + lam * I, -0.5).real
        color = scipy.linalg.fractional_matrix_power(Ct + lam * I, 0.5).real
        np.testing.assert_allclose(T.A, inv_root @ color, atol=1e-9)


# The relative Frobenius error fit_regularized's docstring states for its
# three identities, at lam >= 1e-3 tr(C_S) / d.
REGULARIZED_BOUND = 1e-10


def conditioned_rows(rng, n, d, log_kappa, scale):
    """n rows off the origin whose population covariance, in a random
    rotation, has condition number 10**log_kappa and largest variance
    scale**2."""
    s = scale * 10.0 ** (-0.5 * log_kappa * np.linspace(0.0, 1.0, d))
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (rng.standard_normal((n, d)) * s) @ Q + rng.standard_normal(d)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def regularized_cases(test):
    """test run on drawn (d, n_s, n_t, log_kappa, log_lam, seed) and on
    fixed extremes: d = 1 and d = 12 with n = 2 rows on one side, and a
    tall pair, at log_kappa 14 and the smallest lam of the bound."""
    for d, n in ((1, 2), (12, 2), (12, 40)):
        test = example(d=d, n_s=n, n_t=42 - n, log_kappa=14.0, log_lam=-3.0,
                       seed=d + n)(test)
    return settings(max_examples=60, deadline=None, database=None, derandomize=True)(
        given(d=st.integers(1, 12), n_s=st.integers(2, 40), n_t=st.integers(2, 40),
              log_kappa=st.floats(0.0, 14.0), log_lam=st.floats(-3.0, 1.0),
              seed=st.integers(0, 2**32 - 1))(test))


class TestRegularizedInvariants:
    """Property tests of fit_regularized's stated bound, tall and wide,
    n = 2 and d = 1 included, covariances conditioned up to 1e14."""

    def case(self, d, n_s, n_t, log_kappa, log_lam, seed):
        rng = np.random.default_rng(seed)
        X = conditioned_rows(rng, n_s, d, log_kappa, 1.0)
        Y = conditioned_rows(rng, n_t, d, rng.uniform(0.0, log_kappa),
                             10.0 ** rng.uniform(-2.0, 2.0))
        lam = 10.0 ** log_lam * np.trace(mean_and_covariance(X).cov) / d
        return rng, X, Y, lam

    @regularized_cases
    def test_maps_the_source_operator_onto_the_target_one(self, d, n_s, n_t, log_kappa,
                                                          log_lam, seed):
        _, X, Y, lam = self.case(d, n_s, n_t, log_kappa, log_lam, seed)
        A = fit_regularized(X, Y, lam).A
        eye = lam * np.eye(d)
        got = A.T @ (mean_and_covariance(X).cov + eye) @ A
        assert relative_error(got, mean_and_covariance(Y).cov + eye) <= REGULARIZED_BOUND

    @regularized_cases
    def test_orthogonal_equivariance(self, d, n_s, n_t, log_kappa, log_lam, seed):
        rng, X, Y, lam = self.case(d, n_s, n_t, log_kappa, log_lam, seed)
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        want = Q.T @ fit_regularized(X, Y, lam).A @ Q
        assert relative_error(fit_regularized(X @ Q, Y @ Q, lam).A, want) <= REGULARIZED_BOUND

    @regularized_cases
    def test_scale_invariance(self, d, n_s, n_t, log_kappa, log_lam, seed):
        rng, X, Y, lam = self.case(d, n_s, n_t, log_kappa, log_lam, seed)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        got = fit_regularized(c * X, c * Y, c * c * lam).A
        assert relative_error(got, fit_regularized(X, Y, lam).A) <= REGULARIZED_BOUND


class TestFitAnalytical:
    def test_full_rank_reaches_target_covariance(self):
        rng = np.random.default_rng(10)
        Ds = random_full_rank(200, 6, rng)
        Dt = random_full_rank(220, 6, rng)
        T = fit_analytical(Ds, Dt)
        got = mean_and_covariance(apply_to_features(T, Ds)).cov
        Ct = mean_and_covariance(Dt).cov
        assert np.linalg.norm(got - Ct) < 1e-6
        assert T.rank_used == 6
        assert T.mode == "analytical"

    def test_source_rank_exceeds_target_rank(self):
        # target supported on its first 2 coordinates: rank(C_T)=2 < rank(C_S)=4,
        # and the aligned source covariance must equal C_T itself
        rng = np.random.default_rng(11)
        Ds = random_full_rank(100, 4, rng)
        Dt = np.zeros((80, 4))
        Dt[:, :2] = rng.standard_normal((80, 2)) @ rng.standard_normal((2, 2))
        T = fit_analytical(Ds, Dt)
        got = mean_and_covariance(apply_to_features(T, Ds)).cov
        Ct = mean_and_covariance(Dt).cov
        assert T.rank_used == 2
        assert np.linalg.norm(got - Ct) < 1e-6

    def test_source_rank_below_target_rank_truncates(self):
        # source on 2 coordinates; target full rank with its top-2 eigenspace
        # inside those same coordinates, so the aligned covariance equals the
        # rank-2 eigendecomposition truncation of C_T
        rng = np.random.default_rng(12)
        d, r = 5, 2
        Ds = np.zeros((90, d))
        Ds[:, :r] = rng.standard_normal((90, r)) @ rng.standard_normal((r, r))
        G = 10.0 * rng.standard_normal((120, r))
        H = 0.1 * rng.standard_normal((120, d - r))
        G = G - G.mean(axis=0)
        H = H - H.mean(axis=0)
        H = H - G @ np.linalg.lstsq(G, H, rcond=None)[0]  # exact zero cross-covariance
        Dt = np.hstack([G, H])
        T = fit_analytical(Ds, Dt)
        got = mean_and_covariance(apply_to_features(T, Ds)).cov

        Ct = mean_and_covariance(Dt).cov
        w, V = np.linalg.eigh(Ct)
        order = np.argsort(w)[::-1]
        w, V = w[order], V[:, order]
        truncation = (V[:, :r] * w[:r]) @ V[:, :r].T
        assert T.rank_used == r
        assert np.linalg.norm(got - truncation) < 1e-6

    def test_optimality_tight_over_random_pairs(self):
        rng = np.random.default_rng(13)
        for d in (2, 8, 16):
            for _ in range(5):
                Ds = random_full_rank(4 * d, d, rng)
                Dt = random_full_rank(4 * d, d, rng)
                T = fit_analytical(Ds, Dt)
                got = mean_and_covariance(apply_to_features(T, Ds)).cov
                Ct = mean_and_covariance(Dt).cov
                num = np.linalg.norm(got - Ct) ** 2
                assert num <= 1e-10 * np.linalg.norm(Ct) ** 2


def eigh_power(M, p, keep=None):
    """V diag(w^p) V^T from plain np.linalg.eigh; eigenpairs outside keep -> 0."""
    w, V = np.linalg.eigh(M)
    keep = np.ones(len(w), bool) if keep is None else keep(w)
    return (V[:, keep] * w[keep] ** p) @ V[:, keep].T


def dense_analytical(Ds, Dt):
    """pinv_sqrt(C_S) @ root_r(C_T) from dense d x d covariances."""
    def kept(w):
        return w > DEFAULT_RANK_TOL * max(w.max(), 0.0)

    Cs = mean_and_covariance(Ds).cov
    inv_root = eigh_power(Cs, -0.5, kept)
    rank_s = int(kept(np.linalg.eigvalsh(Cs)).sum())
    w, V = np.linalg.eigh(mean_and_covariance(Dt).cov)
    w, V = w[::-1], V[:, ::-1]
    r = min(rank_s, int(kept(w).sum()))
    root = (V[:, :r] * np.sqrt(w[:r])) @ V[:, :r].T
    return inv_root @ root, r


def dense_regularized(Ds, Dt, lam):
    I = np.eye(Ds.shape[1])
    return (eigh_power(mean_and_covariance(Ds).cov + lam * I, -0.5)
            @ eigh_power(mean_and_covariance(Dt).cov + lam * I, 0.5))


def svd_power(X, lam, p):
    """(cov(X) + lam I)^p from the thin SVD of the centred rows."""
    n, d = X.shape
    _, s, Vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    out = (Vt.T * ((s * s / (n - 1) + lam) ** p - lam**p)) @ Vt
    return out + lam**p * np.eye(d)


def wide_case(name, rng, d=24):
    """A (source, target) pair where at least one side has n - 1 < d."""
    def draw(n):
        return rng.standard_normal((n, d)) @ rng.standard_normal((d, d))

    if name == "both-wide":
        return draw(10), draw(14)
    if name == "source-wide-target-tall":
        return draw(10), draw(60)
    if name == "source-tall-target-wide":
        return draw(60), draw(10)
    if name == "duplicated-source-rows":
        base = draw(6)
        return np.vstack([base, base[::-1]]), draw(14)
    if name == "constant-source":
        return np.full((8, d), 3.0), draw(14)
    if name == "single-row-source":
        return draw(1), draw(14)
    raise ValueError(name)


WIDE_CASES = [
    "both-wide", "source-wide-target-tall", "source-tall-target-wide",
    "duplicated-source-rows", "constant-source", "single-row-source",
]


class TestWideRoute:
    @pytest.mark.parametrize("case", WIDE_CASES)
    def test_analytical_matches_dense_formula(self, case):
        Ds, Dt = wide_case(case, np.random.default_rng(60))
        want, r = dense_analytical(Ds, Dt)
        T = fit_analytical(Ds, Dt)
        assert T.rank_used == r
        assert np.linalg.norm(T.A - want) <= 1e-9 * np.linalg.norm(want)

    def test_degenerate_sources_give_zero_transform(self):
        rng = np.random.default_rng(61)
        for case in ("constant-source", "single-row-source"):
            T = fit_analytical(*wide_case(case, rng))
            assert T.rank_used == 0
            np.testing.assert_array_equal(T.A, 0.0)

    @pytest.mark.parametrize("case", WIDE_CASES)
    def test_regularized_matches_dense_route(self, case):
        Ds, Dt = wide_case(case, np.random.default_rng(62))
        want = dense_regularized(Ds, Dt, lam=0.5)
        got = fit_regularized(Ds, Dt, lam=0.5).A
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_regularized_keeps_directions_below_the_rank_cutoff(self):
        # one raw feature 1e6 times the scale of the rest puts every other
        # source direction below 1e-10 * w_max; each must still get
        # (w + lam)^(-1/2), not lam^(-1/2) on the wide route, nor the
        # power of a floor at 1e-12 * w_max (about 29 here, far above
        # lam) on the tall one.  The reference is the thin SVD.  The
        # spectrum's own round-off, eps * w_max, leaves about 1e-5
        # relative wide and 1e-4 tall; dropping those directions, or
        # flooring them, costs about 0.5-0.7
        rng = np.random.default_rng(65)
        wide_S, wide_T = wide_case("both-wide", rng)
        tall_S = rng.standard_normal((200, 24)) @ rng.standard_normal((24, 24))
        tall_T = rng.standard_normal((200, 24)) @ rng.standard_normal((24, 24))
        for Ds, Dt in ((wide_S, wide_T), (tall_S, tall_T)):
            Ds[:, 3] *= 1e6
            want = svd_power(Ds, 1.0, -0.5) @ svd_power(Dt, 1.0, 0.5)
            got = fit_regularized(Ds, Dt, lam=1.0).A
            assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)

    @pytest.mark.parametrize("fit", [fit_analytical, fit_regularized])
    def test_large_offset_is_centred_away(self, fit):
        # the Gram matrix of uncentred rows at mean 1e8 would swamp the spread
        Ds, Dt = wide_case("both-wide", np.random.default_rng(63))
        A0 = fit(Ds, Dt).A
        A1 = fit(Ds + 1e8, Dt - 1e8).A
        assert np.linalg.norm(A1 - A0) <= 1e-6 * np.linalg.norm(A0)

    def test_wide_fits_stay_in_row_space(self, monkeypatch):
        seen = {"mean_and_covariance": [], "sym_eigen": []}
        for name, calls in seen.items():
            def record(M, *args, _fn=getattr(linalg, name), _calls=calls, **kwargs):
                _calls.append(np.shape(M))
                return _fn(M, *args, **kwargs)
            monkeypatch.setattr(linalg, name, record)
        Ds, Dt = wide_case("both-wide", np.random.default_rng(64))
        fit_regularized(Ds, Dt, lam=1.0)
        fit_analytical(Ds, Dt)
        whiten_both_baseline(Ds, Dt)
        assert seen["mean_and_covariance"] == []
        assert seen["sym_eigen"] and set(seen["sym_eigen"]) <= {(10, 10), (14, 14)}


class TestTransformProperties:
    def test_objective_never_worsened(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            g = np.random.default_rng(seed)
            d = int(g.integers(2, 10))
            Ds = random_full_rank(12 * d, d, g)
            Dt = random_full_rank(12 * d, d, g)
            Cs = mean_and_covariance(Ds).cov
            Ct = mean_and_covariance(Dt).cov
            base = np.linalg.norm(Cs - Ct)
            for lam in (0.001, 0.01, 0.1, 1.0):
                T = fit_regularized(Ds, Dt, lam=lam)
                post = np.linalg.norm(mean_and_covariance(apply_to_features(T, Ds)).cov - Ct)
                assert post <= base + 1e-9
            T = fit_analytical(Ds, Dt)
            post = np.linalg.norm(mean_and_covariance(apply_to_features(T, Ds)).cov - Ct)
            assert post <= base + 1e-9

    def test_regularized_path_approaches_analytical(self):
        rng = np.random.default_rng(21)
        Ds = random_full_rank(150, 6, rng)
        Dt = random_full_rank(140, 6, rng)
        Astar = fit_analytical(Ds, Dt).A
        gaps = [
            np.linalg.norm(fit_regularized(Ds, Dt, lam=lam).A - Astar)
            for lam in (1.0, 0.1, 0.01, 0.001)
        ]
        assert gaps[-1] < gaps[0]


def identity(d, thin):
    """The d x d identity as an operator: a full orthonormal basis with
    unit spectrum, or shift 1 on an empty thin basis."""
    if thin:
        return linalg.SymOperator(1.0, np.zeros((d, 0)), np.zeros(0))
    return linalg.SymOperator(0.0, np.eye(d), np.ones(d))


def transform(source, target, mode="regularized"):
    return CoralTransform(source=source, target=target, mode=mode, lam=1.0, rank_used=None)


def random_operator(d, k, shift, rng):
    """shift I + Q diag(f) Q^T on a random orthonormal d x k basis."""
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :k]
    return linalg.SymOperator(shift, Q, rng.uniform(0.5, 2.0, k))


class TestApplyToFeatures:
    def test_identity_transform(self):
        rng = np.random.default_rng(30)
        D = rng.standard_normal((9, 4))
        for thin in (False, True):
            T = transform(identity(4, thin), identity(4, thin))
            np.testing.assert_array_equal(apply_to_features(T, D), D)

    def test_permutation_on_single_row(self):
        # the swap [[0, 1], [1, 0]] as a source factor with the identity as
        # target: from its full eigenbasis, and as the reflection I - 2 v v^T
        v = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        full = linalg.SymOperator(0.0, np.hstack([np.abs(v), v]), np.array([1.0, -1.0]))
        thin = linalg.SymOperator(1.0, v, np.array([-2.0]))
        for swap, ident in ((full, identity(2, False)), (thin, identity(2, True))):
            got = apply_to_features(transform(swap, ident), np.array([[1.0, 0.0]]))
            np.testing.assert_allclose(got, [[0.0, 1.0]], atol=1e-15)

    def test_matches_per_row_dot_oracle(self):
        rng = np.random.default_rng(31)
        D = rng.standard_normal((25, 6))
        for k, shift in ((6, 0.0), (2, 0.7)):
            T = transform(random_operator(6, k, shift, rng), random_operator(6, k, shift, rng))
            A = T.A
            got = apply_to_features(T, D)
            for i in range(25):
                want_row = np.array([np.dot(D[i], A[:, j]) for j in range(6)])
                np.testing.assert_allclose(got[i], want_row, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(32)
        T = fit_regularized(rng.standard_normal((20, 3)), rng.standard_normal((20, 3)))
        with pytest.raises(InvalidInputError):
            apply_to_features(T, np.zeros((4, 2)))


def fitted_pair(rng, d, wide):
    """A regularized transform fitted on tall (n > d) or wide (n < d) rows."""
    n = d // 2 if wide else 4 * d
    return fit_regularized(rng.standard_normal((n, d)), rng.standard_normal((n + 1, d)))


class TestApplyToWeights:
    def test_identity_leaves_model_unchanged(self):
        rng = np.random.default_rng(40)
        model = LinearModel(W=rng.standard_normal((3, 5)), b=rng.standard_normal(3), C=1.0)
        for thin in (False, True):
            out = apply_to_weights(transform(identity(5, thin), identity(5, thin)), model)
            np.testing.assert_array_equal(out.W, model.W)
            np.testing.assert_array_equal(out.b, model.b)

    def test_zero_weights_stay_zero(self):
        rng = np.random.default_rng(41)
        model = LinearModel(W=np.zeros((2, 4)), b=np.zeros(2), C=1.0)
        for wide in (False, True):
            T = fitted_pair(rng, 4, wide)
            np.testing.assert_array_equal(apply_to_weights(T, model).W, np.zeros((2, 4)))

    @staticmethod
    def assert_scores_agree(T, rng, d):
        model = LinearModel(W=rng.standard_normal((4, d)), b=rng.standard_normal(4), C=1.0)
        X = rng.standard_normal((100, d))
        scores_feature = apply_to_features(T, X) @ model.W.T + model.b
        m2 = apply_to_weights(T, model)
        scores_weight = X @ m2.W.T + m2.b
        denom = np.maximum(np.abs(scores_feature), 1e-12)
        assert (np.abs(scores_feature - scores_weight) / denom).max() < 1e-9

    def test_score_equivalence_feature_vs_weight_space(self):
        rng = np.random.default_rng(42)
        Ds = random_full_rank(80, 6, rng)
        Dt = random_full_rank(90, 6, rng)
        self.assert_scores_agree(fit_regularized(Ds, Dt, lam=0.1), rng, 6)

    @pytest.mark.parametrize("fit", [fit_analytical, fit_regularized])
    def test_score_equivalence_feature_vs_weight_space_wide(self, fit):
        rng = np.random.default_rng(45)
        Ds, Dt = wide_case("both-wide", rng)
        T = fit(Ds, Dt)
        assert not _full_bases(T)
        self.assert_scores_agree(T, rng, 24)

    def test_argmax_predictions_identical(self):
        rng = np.random.default_rng(43)
        Ds = random_full_rank(70, 5, rng)
        Dt = random_full_rank(60, 5, rng)
        T = fit_analytical(Ds, Dt)
        model = LinearModel(W=rng.standard_normal((3, 5)), b=rng.standard_normal(3), C=1.0)
        X = rng.standard_normal((200, 5))
        p_feature = predict(model, apply_to_features(T, X))
        p_weight = predict(apply_to_weights(T, model), X)
        np.testing.assert_array_equal(p_feature, p_weight)

    def test_keeps_the_cross_validated_accuracy(self):
        rng = np.random.default_rng(44)
        model = LinearModel(W=rng.standard_normal((3, 5)), b=rng.standard_normal(3), C=0.1,
                            cv_acc=0.533)
        for wide in (False, True):
            out = apply_to_weights(fitted_pair(rng, 5, wide), model)
            assert (out.C, out.cv_acc) == (0.1, 0.533)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(46)
        model = LinearModel(W=np.zeros((2, 3)), b=np.zeros(2), C=1.0)
        with pytest.raises(InvalidInputError):
            apply_to_weights(fitted_pair(rng, 4, wide=False), model)


class TestFactoredRoute:
    @pytest.mark.parametrize("fit", [fit_analytical, fit_regularized])
    @pytest.mark.parametrize("case", WIDE_CASES)
    def test_wide_features_match_the_dense_map(self, case, fit):
        Ds, Dt = wide_case(case, np.random.default_rng(70))
        T = fit(Ds, Dt)
        want = Ds @ T.A
        got = apply_to_features(T, Ds)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_both_wide_never_forms_a_dense_operator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("SymOperator.dense called")

        monkeypatch.setattr(linalg.SymOperator, "dense", refuse)
        rng = np.random.default_rng(71)
        Ds, Dt = wide_case("both-wide", rng)
        model = LinearModel(W=rng.standard_normal((3, 24)), b=np.zeros(3), C=1.0)
        for fit in (fit_analytical, fit_regularized):
            T = fit(Ds, Dt)
            apply_to_features(T, Ds)
            apply_to_weights(T, model)

    def test_tall_features_are_bitwise_D_at_A(self):
        # on tall data A is source.dense() @ target.dense(), or with the
        # analytical root_r(C_T) as the plain product (U_r sqrt(w_r)) U_r^T,
        # and both applications go through it
        rng = np.random.default_rng(72)
        Ds = random_full_rank(200, 12, rng)
        Dt = random_full_rank(150, 12, rng)
        S, Ct = linalg.covariance_operator(Ds, 0.5), linalg.covariance_operator(Dt, 0.5)
        T = fit_regularized(Ds, Dt, lam=0.5)
        np.testing.assert_array_equal(T.A, S.power(-0.5).dense() @ Ct.power(0.5).dense())
        S, Ct = linalg.covariance_operator(Ds), linalg.covariance_operator(Dt)
        U, w = Ct.basis[:, ::-1], Ct.spectrum[::-1]
        A = fit_analytical(Ds, Dt).A
        np.testing.assert_array_equal(A, S.pinv_sqrt().dense() @ ((U * np.sqrt(w)) @ U.T))
        model = LinearModel(W=rng.standard_normal((3, 12)), b=np.zeros(3), C=1.0)
        for T in (fit_regularized(Ds, Dt, lam=0.5), fit_analytical(Ds, Dt)):
            np.testing.assert_array_equal(apply_to_features(T, Dt), Dt @ T.A)
            np.testing.assert_array_equal(apply_to_weights(T, model).W, model.W @ T.A.T)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("fit", [fit_analytical, fit_regularized])
    def test_fits_reject_non_finite_factors(self, fit, monkeypatch):
        def corrupted(X, lam=0.0):
            op = linalg.covariance_operator(X, lam)
            return replace(op, basis=np.full_like(op.basis, np.nan))

        monkeypatch.setattr(coral, "_covariance_operator", corrupted)
        rng = np.random.default_rng(80)
        with pytest.raises(NumericalError, match="non-finite"):
            fit(rng.standard_normal((30, 4)), rng.standard_normal((30, 4)))

    def test_map_that_overflows_is_rejected(self):
        # each factor is finite (about 1e160 and 1e150) but their product
        # overflows; the tall application reads A and must not return NaN
        rng = np.random.default_rng(81)
        Ds = rng.standard_normal((50, 8)) * 1e-170
        Dt = rng.standard_normal((60, 8)) * 1e150
        T = fit_regularized(Ds, Dt, lam=1e-320)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                T.A
            with pytest.raises(NumericalError, match="non-finite"):
                apply_to_features(T, Ds)

    @pytest.mark.parametrize("wide", [False, True])
    def test_applications_reject_non_finite_output(self, wide):
        # a target 10 times the source's scale makes A about 7 I
        rng = np.random.default_rng(82)
        n = 4 if wide else 32
        T = fit_regularized(rng.standard_normal((n, 8)), 10 * rng.standard_normal((n + 1, 8)))
        assert _full_bases(T) is not wide
        huge = np.full((3, 8), 1e308)
        model = LinearModel(W=huge, b=np.zeros(3), C=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="transformed features"):
                apply_to_features(T, huge)
            with pytest.raises(NumericalError, match="transformed weights"):
                apply_to_weights(T, model)


class TestWhitenBothBaseline:
    def test_identical_domains_whiten_identically(self):
        rng = np.random.default_rng(50)
        D = rng.standard_normal((50, 4))
        Ws, Wt = whiten_both_baseline(D, D.copy())
        np.testing.assert_allclose(Ws, Wt, atol=1e-12)

    def test_output_covariance_matches_oracle(self):
        rng = np.random.default_rng(51)
        Ds = random_full_rank(100, 5, rng)
        Dt = random_full_rank(110, 5, rng)
        Ws, Wt = whiten_both_baseline(Ds, Dt)
        for X, orig in ((Ws, Ds), (Wt, Dt)):
            C = mean_and_covariance(orig).cov
            shrink = scipy.linalg.fractional_matrix_power(C + np.eye(5), -0.5).real
            want = shrink @ C @ shrink
            np.testing.assert_allclose(mean_and_covariance(X).cov, want, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(52)
        with pytest.raises(InvalidInputError):
            whiten_both_baseline(rng.standard_normal((10, 2)), rng.standard_normal((10, 3)))
