"""The benchmark's four workloads.

A workload builds its inputs from the run's seed when it is created
(set-up), runs one op at a time (timed), and checks each op's output
against an independent numpy reference (untimed).  Ops reach coralign
through module attributes (``runner.run_experiment``,
``coral.fit_regularized``) so that the traced run's wrappers see them.
README.md says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from coralign import coral
from coralign.bench import data, runner


# Trials in a default `coralign bench` experiment, the data the `deep`
# defaults are tuned to; README.md lists data seeds outside them on which
# `deep` training diverges.
BENCH_TRIALS = next(f.default for f in dataclasses.fields(runner.ExperimentConfig)
                    if f.name == "trials")


class CheckFailed(Exception):
    """An op returned output that its reference check rejects.

    ``quality`` holds what the check measured before it failed.
    """

    def __init__(self, message: str, quality: dict | None = None):
        super().__init__(message)
        self.quality = quality or {}


class TrialWorkload:
    """One op is one trial of run_experiment on rotated_anisotropic_spec.

    Op i runs trial ``(seed + i) % BENCH_TRIALS`` of an experiment with
    the trial seeds `coralign bench` uses by default (seed_base 0,
    BENCH_TRIALS trials).
    """

    ops_per_round = 1
    # The first trial of a process runs measurably slower.
    warmup_ops = 1

    def __init__(self, seed: int, methods: tuple, calibrated: bool = False, **spec_args):
        self.seed = seed
        self.methods = methods
        self.calibrated = calibrated
        self.spec_args = spec_args

    def data_seed(self, i: int) -> int:
        return (self.seed + i) % BENCH_TRIALS

    def op(self, i: int):
        s = self.data_seed(i)
        config = runner.ExperimentConfig(
            spec=data.rotated_anisotropic_spec(s, **self.spec_args),
            methods=self.methods,
            trials=1,
            seed_base=s,
        )
        return runner.run_experiment(config)

    def check(self, i: int, report) -> dict:
        """Every method gives one finite target and source accuracy in [0, 1]."""
        quality = {}
        for name in self.methods:
            agg = report.methods[name]
            if len(agg.target_acc) != 1 or len(agg.source_acc) != 1:
                raise CheckFailed(f"{name}: expected one trial, got {len(agg.target_acc)}")
            for acc in (*agg.target_acc, *agg.source_acc):
                if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                    raise CheckFailed(f"{name}: accuracy {acc} is not a finite value in [0, 1]")
            quality[f"target_acc.{name}"] = agg.target_acc[0]
        quality["target_acc"] = float(np.mean([quality[f"target_acc.{m}"] for m in self.methods]))
        return quality


# Ridge penalty per row of the reference classifier that scores a fitted
# transform: a linear model trained on the aligned source, tested on the
# target, is what covariance alignment is for.
RIDGE = 1.0
# Regularization strength of the regularized fits.
LAM = 1.0


def _centered(X):
    return X - X.mean(axis=0)


def _desc_eigh(M):
    w, V = np.linalg.eigh(M)
    return w[::-1], V[:, ::-1]


def _rank(gram_eigenvalues, shape) -> int:
    """Rank from the eigenvalues of a Gram matrix X X^T.

    numpy's rule for singular values, max(shape) * eps relative, applied
    to their squares: forming X X^T leaves rounding of order eps times
    its largest eigenvalue in every eigenvalue, so a zero singular value
    (such as the one centering leaves) can read as eps relative, far
    above the square of that rule.
    """
    tol = gram_eigenvalues[0] * max(shape) * np.finfo(float).eps
    return int(np.sum(gram_eigenvalues > tol))


class _GramReference:
    """Covariance references for wide data (n - 1 < d), kept in row space.

    With Xc the centered rows, cov = Xc^T Xc / (n - 1), and every
    Frobenius norm and trace needed here equals one of n x n or
    n_S x n_T products, so no d x d matrix is ever formed.
    """

    def __init__(self, Xs, Xt):
        Sc, self.Tc = _centered(Xs), _centered(Xt)
        self.a, self.b = 1.0 / (len(Xs) - 1), 1.0 / (len(Xt) - 1)
        mu_s, V_s = _desc_eigh(Sc @ Sc.T)
        mu_t, U_t = _desc_eigh(self.Tc @ self.Tc.T)
        rank_s = _rank(mu_s, Xs.shape)
        self.rank = min(rank_s, _rank(mu_t, Xt.shape))
        self.U_r = U_t[:, : self.rank]
        self.mu_r = mu_t[: self.rank]
        self.ct_sq = self.b**2 * float(np.sum(mu_t**2))
        self.trunc_sq = self.b**2 * float(np.sum(self.mu_r**2))
        cross = Sc @ self.Tc.T
        before_sq = self.a**2 * float(np.sum(mu_s**2)) - 2 * self.a * self.b * _sq(cross)
        self.gap_before = math.sqrt(max(before_sq + self.ct_sq, 0.0) / self.ct_sq)
        # The analytical fit's formula gives cov(Y) = R P_S R, with R the
        # square root of C_T,r and P_S the projector onto the source's row
        # space.  In the basis of C_T's top-r eigenvectors Tc^T v_j / sqrt(mu_j)
        # (v_j in U_r) that is diag(sqrt(w)) B B^T diag(sqrt(w)), where B
        # holds their inner products with the source's row-space basis
        # Sc^T V_s / sqrt(mu_s), and w = b mu_r are C_T's top eigenvalues.
        B = (self.U_r.T @ cross.T @ V_s[:, :rank_s]) / np.sqrt(
            self.mu_r[:, None] * mu_s[None, :rank_s])
        root_w = np.sqrt(self.b * self.mu_r)
        self.formula = root_w[:, None] * (B @ B.T) * root_w
        self.formula_sq = _sq(self.formula)

    def aligned(self, Y):
        Yc = _centered(Y)
        return Yc, Yc @ Yc.T, Yc @ self.Tc.T

    def gap(self, aligned) -> float:
        """||cov(Y) - C_T||_F / ||C_T||_F."""
        _, G, P = aligned
        sq = self.a**2 * _sq(G) - 2 * self.a * self.b * _sq(P) + self.ct_sq
        return math.sqrt(max(sq, 0.0) / self.ct_sq)

    def truncation_gap(self, aligned) -> float:
        """||cov(Y) - C_T,r||_F / ||C_T,r||_F, C_T,r the rank-r truncation."""
        _, G, P = aligned
        sq = self.a**2 * _sq(G) - 2 * self.a * self.b * _sq(P @ self.U_r) + self.trunc_sq
        return math.sqrt(max(sq, 0.0) / self.trunc_sq)

    def formula_gap(self, aligned) -> float:
        """||cov(Y) - R P_S R||_F / ||R P_S R||_F, the analytical formula's
        covariance; the part of cov(Y) outside the span of C_T's top-r
        eigenvectors counts in full."""
        _, G, P = aligned
        Z = (P @ self.U_r) / np.sqrt(self.mu_r)
        inside = self.a * (Z.T @ Z)
        outside_sq = self.a**2 * (_sq(G) - _sq(Z @ Z.T))
        return math.sqrt(max(_sq(inside - self.formula) + outside_sq, 0.0) / self.formula_sq)

    def ridge_weights(self, aligned, rhs, Y):
        Yc, G, _ = aligned
        n = len(G)
        return Yc.T @ np.linalg.solve(G + RIDGE * n * np.eye(n), rhs)


def _cov(X, block: int = 1024):
    """Unbiased covariance, centered one block of rows at a time so the
    check never holds a centered copy of X (it would set the run's peak)."""
    mean = X.mean(axis=0)
    C = np.zeros((X.shape[1], X.shape[1]))
    for start in range(0, len(X), block):
        Z = X[start : start + block] - mean
        C += Z.T @ Z
    return C / (len(X) - 1)


class _DenseReference:
    """Covariance references for tall data, as d x d matrices."""

    def __init__(self, Xs, Xt):
        self.n = len(Xs)
        self.C_T = _cov(Xt)
        self.rank = Xs.shape[1]
        self.gap_before = _rel(_cov(Xs), self.C_T)

    def aligned(self, Y):
        return _cov(Y)

    def gap(self, aligned) -> float:
        return _rel(aligned, self.C_T)

    # Full rank: the truncation and the formula's R P_S R are C_T itself.
    truncation_gap = formula_gap = gap

    def ridge_weights(self, aligned, rhs, Y):
        # Yc^T rhs = Y^T rhs because the columns of rhs sum to zero.
        d = len(aligned)
        return np.linalg.solve(aligned * (self.n - 1) + RIDGE * self.n * np.eye(d), Y.T @ rhs)


def _sq(M) -> float:
    return float(np.sum(M * M))


def _rel(M, ref) -> float:
    return float(np.linalg.norm(M - ref) / np.linalg.norm(ref))


class FitWorkload:
    """One op is a regularized or an analytical fit, alternating, then
    ``apply_to_features`` on the source; the op's output is the applied
    source.  Inputs are raw generate_shift output, unstandardized, as
    the CLI ``transform`` path sees them."""

    ops_per_round = 2
    warmup_ops = 0
    calibrated = False

    def __init__(self, seed: int, d: int, n_source: int, n_target: int, analytical_tol: float):
        spec = data.rotated_anisotropic_spec(seed, d=d, n_source=n_source, n_target=n_target)
        src, tgt = data.generate_shift(spec)
        self.Xs, self.ys = src.features, src.labels
        self.Xt, self.yt = tgt.features, tgt.labels
        self.analytical_tol = analytical_tol
        self._ref = None

    def op(self, i: int):
        if i % 2 == 0:
            T = coral.fit_regularized(self.Xs, self.Xt, lam=LAM)
        else:
            T = coral.fit_analytical(self.Xs, self.Xt)
        return coral.apply_to_features(T, self.Xs)

    def reference(self):
        if self._ref is None:
            n, d = self.Xs.shape
            self._ref = (_GramReference if n - 1 < d else _DenseReference)(self.Xs, self.Xt)
        return self._ref

    def check(self, i: int, Y) -> dict:
        """Judge the applied source features by their covariance.

        The transform itself is not read, so the check holds for any
        representation of it.
        """
        ref = self.reference()
        if Y.shape != self.Xs.shape or not np.all(np.isfinite(Y)):
            raise CheckFailed(f"applied features have shape {Y.shape} or non-finite entries")
        aligned = ref.aligned(Y)
        quality = {"target_acc": self._ridge_target_acc(ref, aligned, Y)}
        if i % 2 == 0:
            gap = ref.gap(aligned)
            quality["align_gap"] = gap
            if not gap < ref.gap_before:
                raise CheckFailed(
                    f"regularized fit did not reduce the covariance gap: "
                    f"{gap:.4g} after vs {ref.gap_before:.4g} before",
                    quality,
                )
        else:
            # Passing needs the covariance of fit_analytical's documented
            # formula.  The distance to the rank-r truncation of C_T, the
            # optimum its docstring claims, is recorded beside it: on wide
            # data the formula misses that optimum (README.md).
            quality["analytical_err"] = ref.truncation_gap(aligned)
            err = quality["formula_err"] = ref.formula_gap(aligned)
            if not err <= self.analytical_tol:
                raise CheckFailed(
                    f"analytical fit's covariance is {err:.3g} (relative) from that of "
                    f"pinv_sqrt(C_S) root_r(C_T), r={ref.rank}; "
                    f"tolerance {self.analytical_tol:g}",
                    quality,
                )
        return quality

    def _ridge_target_acc(self, ref, aligned, Y) -> float:
        """Target accuracy of a ridge classifier fit on the aligned source."""
        onehot = np.eye(int(self.ys.max()) + 1)[self.ys]
        rhs = onehot - onehot.mean(axis=0)
        W = ref.ridge_weights(aligned, rhs, Y)
        scores = self.Xt @ W - Y.mean(axis=0) @ W
        return float(np.mean(np.argmax(scores, axis=1) == self.yt))


LDA_METHODS = ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched")

WORKLOADS = {
    "paper-grid": lambda seed: TrialWorkload(seed, runner.METHODS, calibrated=True),
    "fit-wide": lambda seed: FitWorkload(
        seed, d=2048, n_source=795, n_target=1400, analytical_tol=1e-6),
    "fit-tall": lambda seed: FitWorkload(
        seed, d=1024, n_source=8000, n_target=8000, analytical_tol=1e-8),
    "lda-highdim": lambda seed: TrialWorkload(
        seed, LDA_METHODS, d=512, K=10, n_source=4000, n_target=4000),
}
