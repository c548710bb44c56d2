"""Linear discriminant weights with shared covariance statistics.

The plain fit solves (C_S + lam I) w = mu_pos - mu_neg.  The cross-domain
variant is CORAL applied to the classifier weights: it whitens the mean
difference with the source covariance and the incoming features
(implicitly) with the target covariance,

    w = W_T W_S (mu_pos - mu_neg),   W = (C + lam I)^{-1/2},

so that w . u equals the inner product of the source-whitened weight with
the target-whitened input.  When both covariances agree, the composition
collapses to the plain solve.  Each W is a ``linalg.SymOperator`` the
caller builds once per covariance (``whitening``) and shares across every
pairing that whitens with it.  Both fits take one mean difference or a
stack of them, one row per class, and handle a stack in one solve or one
pass of the operators.  An operator is applied in factored form, O(d k)
per row for a d x k basis: one built from wide data by
``covariance_operator`` is never formed as a d x d matrix.

Also provides the normalized covariance+mean distance between domains.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DEFAULT_RANK_TOL, DomainStats, SymOperator, psd_operator


def fit_lda(mean_diffs, cov_source, lam: float = 1.0) -> np.ndarray:
    """w = (C_S + lam I)^{-1} (mu_pos - mu_neg) for one mean difference,
    or one weight row per row of a stack of them, from one solve.

    Raises NumericalError when C_S + lam I is singular under
    ``SymOperator.rank_mask``'s rule, whatever the solve would return."""
    diffs = np.asarray(mean_diffs, dtype=float)
    cov_source = np.asarray(cov_source, dtype=float)
    if diffs.ndim not in (1, 2):
        raise InvalidInputError("mean differences must be a vector or rows of a matrix")
    d = diffs.shape[-1]
    if cov_source.shape != (d, d):
        raise InvalidInputError("source covariance shape does not match the means")
    if lam < 0:
        raise InvalidInputError("lambda must be >= 0")
    # Every eigenvalue of C_S + lam I is at least lam and the largest at
    # most trace(C_S) + lam, so above this bound rank_mask keeps them all.
    # At or below it, the rank rule decides singularity, not LU rounding.
    if lam <= DEFAULT_RANK_TOL * (np.trace(cov_source) + lam):
        keep = psd_operator(cov_source, lam).rank_mask()
        if not keep.all():
            raise NumericalError(
                f"covariance not invertible: C_S + lam I has rank {keep.sum()} of {d}"
            )
    try:
        w = np.linalg.solve(cov_source + lam * np.eye(d), diffs.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not invertible: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("discriminant weights are non-finite")
    return w


def whitening(cov, lam: float) -> SymOperator:
    """(cov + lam I)^{-1/2}, for every fit_coral_lda call that whitens with
    this covariance; lam >= 0."""
    return psd_operator(cov, lam).power(-0.5)


def fit_coral_lda(mean_diffs, whiten_source: SymOperator,
                  whiten_target: SymOperator) -> np.ndarray:
    """w = W_T W_S (mu_pos - mu_neg) for one mean difference, or for each
    row of a stack of them: source-whiten, then target-whiten the row
    space.  Each W is a whitening operator, (C + lam I)^{-1/2}, from
    ``whitening`` or, for wide data,
    ``covariance_operator(X, lam).power(-0.5)``."""
    diffs = np.asarray(mean_diffs, dtype=float)
    d = whiten_source.dim
    if diffs.ndim not in (1, 2) or diffs.shape[-1] != d or whiten_target.dim != d:
        raise InvalidInputError("means and whitening operators disagree in dimension")
    return whiten_target.apply(whiten_source.apply(diffs))


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
