"""Linear discriminant scoring with shared covariance statistics.

The plain fit solves (C_S + lam I) w = mu_pos - mu_neg.  The cross-domain
variant whitens the weight with the source covariance and the incoming
features (implicitly) with the target covariance:

    w = ((C_T + lam I)^{-1/2})^T (C_S + lam I)^{-1/2} (mu_pos - mu_neg)

so that w . u equals the inner product of the source-whitened weight with
the target-whitened input.  When both covariances agree, the composition
collapses to the plain solve.

Also provides the normalized covariance+mean distance between domains
and a validation-driven convex combination of two fitted weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DomainStats, sym_power


@dataclass(frozen=True)
class LdaInputs:
    """Class means plus the covariance(s) used to shape the discriminant."""

    mu_pos: np.ndarray
    mu_neg: np.ndarray
    cov_source: np.ndarray
    cov_target: np.ndarray | None = None
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
    if inp.cov_target is not None and inp.cov_target.shape != (d, d):
        raise InvalidInputError("target covariance shape does not match the means")
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


def fit_coral_lda(inp: LdaInputs) -> LdaModel:
    """Source-whiten the mean difference, then target-whiten the row space."""
    _check_inputs(inp)
    if inp.cov_target is None:
        raise InvalidInputError("cross-domain fit needs the target covariance")
    d = inp.mu_pos.shape[0]
    I = np.eye(d)
    whiten_source = sym_power(inp.cov_source + inp.lam * I, -0.5)
    whiten_target = sym_power(inp.cov_target + inp.lam * I, -0.5)
    w = whiten_target.T @ (whiten_source @ (inp.mu_pos - inp.mu_neg))
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


def semi_supervised_combine(
    w_source: LdaModel,
    w_target: LdaModel,
    validation,
    labels,
    grid,
) -> tuple[LdaModel, float]:
    """Pick alpha in the grid maximizing validation accuracy of
    alpha * w_source + (1 - alpha) * w_target.

    Decision rule: predict class 1 when the combined score is positive.
    Ties resolve toward the larger alpha (lean on the source model).
    """
    X = np.asarray(validation, dtype=float)
    y = np.asarray(labels)
    grid = [float(a) for a in grid]
    if not grid:
        raise InvalidInputError("empty alpha grid")
    if any(a < 0 or a > 1 for a in grid):
        raise InvalidInputError("alpha grid values must lie in [0, 1]")
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise InvalidInputError("validation features and labels disagree")
    if len(np.unique(y)) < 2:
        raise InvalidInputError("validation set must contain both classes")

    best_alpha, best_acc = None, -1.0
    for alpha in sorted(grid):
        w = alpha * w_source.w + (1.0 - alpha) * w_target.w
        pred = (X @ w > 0).astype(int)
        acc = float(np.mean(pred == y))
        if acc >= best_acc:  # ascending grid, so >= keeps the larger alpha
            best_alpha, best_acc = alpha, acc
    combined = LdaModel(
        w=best_alpha * w_source.w + (1.0 - best_alpha) * w_target.w,
        mode=w_source.mode,
        provenance=f"alpha={best_alpha} combination",
    )
    return combined, best_alpha
