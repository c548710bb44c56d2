"""Linear discriminant weights from each domain's covariance operator.

Both fits take C + lam I as the ``linalg.SymOperator`` that
``psd_operator`` (or ``covariance_operator``) builds once per domain,
and reach the weights through its powers.  The plain fit is
(C_S + lam I)^{-1} (mu_pos - mu_neg).  The cross-domain variant is CORAL
applied to the classifier weights: it whitens the mean difference with
the source covariance and the incoming features (implicitly) with the
target covariance,

    w = W_T W_S (mu_pos - mu_neg),   W = (C + lam I)^{-1/2},

so that w . u equals the inner product of the source-whitened weight with
the target-whitened input.  When both covariances agree, the composition
collapses to the plain fit.  One source operator serves both fits, and
each is raised to its power in O(d) on its spectrum.  Both fits take one
mean difference or a stack of them, one row per class, and handle a stack
in one pass of the operators.  An operator is applied in factored form,
O(d k) per row for a d x k basis: one built from wide data by
``covariance_operator`` is never formed as a d x d matrix.  Both fits
invert each operator by one rule (``_inverse_power``): singular by
``SymOperator.rank``, or non-finite weights, is a NumericalError.

Also provides the normalized covariance+mean distance between domains.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DomainStats, SymOperator


def _mean_diffs(mean_diffs, d: int) -> np.ndarray:
    diffs = np.asarray(mean_diffs, dtype=float)
    if diffs.ndim not in (1, 2) or diffs.shape[-1] != d:
        raise InvalidInputError("means and covariance operators disagree in dimension")
    if not np.all(np.isfinite(diffs)):
        raise InvalidInputError("mean differences must be finite")
    return diffs


def _inverse_power(op: SymOperator, p: float, rows, name: str) -> np.ndarray:
    """op^p applied to rows for a negative p, the one step of both fits:
    NumericalError when op, C + lam I of the domain ``name`` (C_S or
    C_T), is singular by ``SymOperator.rank``, as a thin operator at
    shift 0 is, or when the product is not finite."""
    if (rank := op.rank) < op.dim:
        raise NumericalError(
            f"covariance not invertible: {name} + lam I has rank {rank} of {op.dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = op.power(p).apply(rows)
    if not np.all(np.isfinite(out)):
        raise NumericalError("discriminant weights are non-finite")
    return out


def fit_lda(mean_diffs, source: SymOperator) -> np.ndarray:
    """w = (C_S + lam I)^{-1} (mu_pos - mu_neg) for one mean difference,
    or one weight row per row of a stack of them, for the operator
    ``source`` = C_S + lam I from ``psd_operator``, or, for wide data,
    ``covariance_operator(X, lam)``, whose thin basis leaves the d - k
    other directions at eigenvalue lam.

    Raises InvalidInputError on a non-finite mean difference, and
    NumericalError on a singular operator or non-finite weights
    (``_inverse_power``)."""
    return _inverse_power(source, -1, _mean_diffs(mean_diffs, source.dim), "C_S")


def fit_coral_lda(mean_diffs, source: SymOperator, target: SymOperator) -> np.ndarray:
    """w = W_T W_S (mu_pos - mu_neg) for one mean difference, or for each
    row of a stack of them: source-whiten, then target-whiten the row
    space.  ``source`` and ``target`` are C + lam I of each domain, from
    ``psd_operator`` or, for wide data, ``covariance_operator(X, lam)``;
    each W is its ``power(-0.5)``.  Raises InvalidInputError on a
    non-finite mean difference, and NumericalError under the same rule
    as fit_lda, for each operator.

    Given one operator as both ``source`` and ``target``, the weights
    equal fit_lda's to a relative error of at most 1e-10 per row, for a
    dense or thin C whose nonzero eigenvalues span a condition number up
    to 1e6 and lam from 1e-3 to 10 times tr(C) / d."""
    if target.dim != source.dim:
        raise InvalidInputError("means and covariance operators disagree in dimension")
    diffs = _mean_diffs(mean_diffs, source.dim)
    return _inverse_power(target, -0.5, _inverse_power(source, -0.5, diffs, "C_S"), "C_T")


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
