"""Linear discriminant scoring with shared covariance statistics.

The plain fit solves (C_S + lam I) w = mu_pos - mu_neg.  The cross-domain
variant is CORAL applied to the classifier weights: it whitens the mean
difference with the source covariance and the incoming features
(implicitly) with the target covariance,

    w = W_T W_S (mu_pos - mu_neg),   W = (C + lam I)^{-1/2},

so that w . u equals the inner product of the source-whitened weight with
the target-whitened input.  When both covariances agree, the composition
collapses to the plain solve.  Each W is a ``linalg.SymOperator`` the
caller builds once per covariance (``whitening``) and shares across every
class and every pairing that whitens with it.  It is applied to the weight
in factored form, O(d k) for a d x k basis: one built from wide data by
``covariance_operator`` is never formed as a d x d matrix.

Also provides the normalized covariance+mean distance between domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DomainStats, SymOperator, psd_operator


@dataclass(frozen=True)
class LdaInputs:
    """Class means plus the source covariance that shapes the plain discriminant."""

    mu_pos: np.ndarray
    mu_neg: np.ndarray
    cov_source: np.ndarray
    lam: float = 1.0


@dataclass(frozen=True)
class LdaModel:
    w: np.ndarray
    mode: str  # "plain" or "coral"
    provenance: str = ""


def _check_inputs(inp: LdaInputs) -> None:
    d = inp.mu_pos.shape[0]
    if inp.mu_neg.shape != (d,):
        raise InvalidInputError("mean vectors disagree in dimension")
    if inp.cov_source.shape != (d, d):
        raise InvalidInputError("source covariance shape does not match the means")
    if inp.lam < 0:
        raise InvalidInputError("lambda must be >= 0")


def fit_lda(inp: LdaInputs) -> LdaModel:
    """w = (C_S + lam I)^{-1} (mu_pos - mu_neg)."""
    _check_inputs(inp)
    d = inp.mu_pos.shape[0]
    diff = inp.mu_pos - inp.mu_neg
    M = inp.cov_source + inp.lam * np.eye(d)
    try:
        w = np.linalg.solve(M, diff)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not invertible: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("discriminant weights are non-finite")
    return LdaModel(w=w, mode="plain", provenance="source covariance")


def whitening(cov, lam: float) -> SymOperator:
    """(cov + lam I)^{-1/2}, for every fit_coral_lda call that whitens with
    this covariance; lam >= 0."""
    return psd_operator(cov, lam).power(-0.5)


def fit_coral_lda(mu_pos, mu_neg, whiten_source: SymOperator,
                  whiten_target: SymOperator) -> LdaModel:
    """w = W_T W_S (mu_pos - mu_neg): source-whiten the mean difference,
    then target-whiten the row space.  Each W is a whitening operator,
    (C + lam I)^{-1/2}, from ``whitening`` or, for wide data,
    ``covariance_operator(X, lam).power(-0.5)``."""
    mu_pos, mu_neg = np.asarray(mu_pos, dtype=float), np.asarray(mu_neg, dtype=float)
    d = whiten_source.dim
    if not mu_pos.shape == mu_neg.shape == (d,) or whiten_target.dim != d:
        raise InvalidInputError("means and whitening operators disagree in dimension")
    w = whiten_target.apply(whiten_source.apply(mu_pos - mu_neg))
    return LdaModel(w=w, mode="coral", provenance="source+target covariances")


def score(model: LdaModel, u) -> float | np.ndarray:
    """w . u for one vector, or one score per row of a matrix."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        if u.shape[0] != model.w.shape[0]:
            raise InvalidInputError(
                f"expected dimension {model.w.shape[0]}, got {u.shape[0]}"
            )
        return float(model.w @ u)
    if u.ndim == 2:
        if u.shape[1] != model.w.shape[0]:
            raise InvalidInputError(
                f"expected dimension {model.w.shape[0]}, got {u.shape[1]}"
            )
        return u @ model.w
    raise InvalidInputError("score expects a vector or a matrix of rows")


def domain_distance(a: DomainStats, b: DomainStats) -> float:
    """Normalized covariance distance plus normalized mean distance.

    Each term is ||x_a - x_b|| / (||x_a|| + ||x_b||) and contributes 0
    when its denominator is 0, so the result lies in [0, 2] and is 0
    exactly for identical statistics.

    The mean term also contributes 0 when ||mu_a|| + ||mu_b|| is at or
    below eps * max(n_a, n_b) * (sqrt(tr C_a) + sqrt(tr C_b)), the
    round-off resolution of a mean of that many rows of that spread.
    Means of centered or standardized data sit at that level, and their
    ratio is rounding noise: on standardized benchmark trials it added
    0.60-0.77, more than the covariance term itself.
    """
    if a.mean.shape != b.mean.shape:
        raise InvalidInputError("domain statistics have different dimensions")

    def term(x, y, resolution=0.0):
        denom = np.linalg.norm(x) + np.linalg.norm(y)
        if denom <= resolution:
            return 0.0
        return float(np.linalg.norm(x - y) / denom)

    mean_resolution = np.finfo(float).eps * max(a.n, b.n) * (
        np.sqrt(np.trace(a.cov)) + np.sqrt(np.trace(b.cov))
    )
    return term(a.cov, b.cov) + term(a.mean, b.mean, mean_resolution)
