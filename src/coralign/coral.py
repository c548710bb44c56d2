"""Linear covariance alignment between a source and a target domain.

Fits a d x d matrix A so that source features multiplied by A have
(approximately) the target covariance.  Two fit modes:

* regularized: A = (C_S + lam I)^{-1/2} (C_T + lam I)^{1/2} — whiten the
  source against its shrunk covariance, then re-color with the target's,
* analytical: the exact minimizer of || A^T C_S A - C_T ||_F^2 built
  from the pseudo-inverse square root of C_S and the rank-truncated
  square root of C_T.

The transform can be applied to feature rows (D @ A) or pushed into a
linear model's weights (w -> A w), which scores identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import LinearModel
from .errors import InvalidInputError, NumericalError
from .linalg import (
    DEFAULT_RANK_TOL,
    _rank_mask,
    as_feature_matrix,
    mean_and_covariance,
    pseudo_inv_sqrt,
    sym_eigen,
    sym_power,
)


@dataclass(frozen=True)
class CoralTransform:
    """A fitted alignment matrix with its provenance."""

    A: np.ndarray
    mode: str  # "regularized" or "analytical"
    lam: float | None
    rank_used: int | None
    source_dim: int


def _regularized_power(X: np.ndarray, lam: float, p: float) -> np.ndarray:
    """(cov(X) + lam I)^p without forming the covariance when n - 1 < d.

    For wide data the covariance is (1/(n-1)) Xc^T Xc, so its spectrum
    is s^2/(n-1) on the right-singular directions of the centered data
    and exactly 0 elsewhere.  Shifting by lam and raising to p gives
    lam^p I + V (diag((s^2/(n-1) + lam)^p) - lam^p) V^T, which costs a
    thin SVD instead of a dense d x d eigendecomposition.
    """
    n, d = X.shape
    if n - 1 >= d:
        C = mean_and_covariance(X).cov
        return sym_power(C + lam * np.eye(d), p)
    Xc = X - X.mean(axis=0)
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    shifted = s * s / max(n - 1, 1) + lam
    out = (Vt.T * (shifted**p - lam**p)) @ Vt
    out[np.diag_indices(d)] += lam**p
    return (out + out.T) / 2.0


def _check_pair(D_S, D_T) -> tuple[np.ndarray, np.ndarray]:
    D_S = as_feature_matrix(D_S, "source features")
    D_T = as_feature_matrix(D_T, "target features")
    if D_S.shape[1] != D_T.shape[1]:
        raise InvalidInputError(
            f"source and target dimension differ: {D_S.shape[1]} vs {D_T.shape[1]}"
        )
    return D_S, D_T


def fit_regularized(D_S, D_T, lam: float = 1.0) -> CoralTransform:
    """Fit A = (C_S + lam I)^{-1/2} (C_T + lam I)^{1/2}.

    Covariances only; means never enter A.  lam must be positive — the
    exact lam = 0 solution has its own fit mode.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    if lam <= 0:
        raise InvalidInputError(
            "lambda must be > 0 in regularized mode; use the analytical fit for lambda = 0"
        )
    inv_root = _regularized_power(D_S, lam, -0.5)
    color = _regularized_power(D_T, lam, 0.5)
    A = inv_root @ color
    if not np.all(np.isfinite(A)):
        raise NumericalError("fitted transform contains non-finite entries")
    return CoralTransform(
        A=A, mode="regularized", lam=float(lam), rank_used=None, source_dim=D_S.shape[1]
    )


def fit_analytical(D_S, D_T, rank_tol: float = DEFAULT_RANK_TOL) -> CoralTransform:
    """Fit the exact covariance-alignment optimum.

    A = pinv_sqrt(C_S) · U_r diag(w_r)^{1/2} U_r^T where U_r, w_r are the
    top r eigenpairs of C_T and r = min(rank C_S, rank C_T).  With
    deficient source rank the aligned covariance is the best rank-r
    approximation of C_T rather than C_T itself.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    C_S = mean_and_covariance(D_S).cov
    C_T = mean_and_covariance(D_T).cov

    inv_root_S, rank_S = pseudo_inv_sqrt(C_S, rank_tol=rank_tol)
    eig_T = sym_eigen(C_T)
    w_T = eig_T.eigenvalues
    r = min(rank_S, int(_rank_mask(w_T, rank_tol).sum()))

    U_r = eig_T.eigenvectors[:, :r]
    root_T = (U_r * np.sqrt(np.maximum(w_T[:r], 0.0))) @ U_r.T
    A = inv_root_S @ root_T
    if not np.all(np.isfinite(A)):
        raise NumericalError("fitted transform contains non-finite entries")
    return CoralTransform(
        A=A, mode="analytical", lam=None, rank_used=r, source_dim=D_S.shape[1]
    )


def apply_to_features(T: CoralTransform, D) -> np.ndarray:
    """Return D @ A."""
    D = as_feature_matrix(D)
    if D.shape[1] != T.source_dim:
        raise InvalidInputError(
            f"transform expects dimension {T.source_dim}, got {D.shape[1]}"
        )
    return D @ T.A


def apply_to_weights(T: CoralTransform, model: LinearModel) -> LinearModel:
    """Push the transform into the model: each class weight w becomes A w.

    Scores then satisfy (x A) · w = x · (A w), so predictions agree with
    transforming the features instead.  Biases are untouched.
    """
    if model.dim != T.source_dim:
        raise InvalidInputError(
            f"transform expects dimension {T.source_dim}, model has {model.dim}"
        )
    return LinearModel(W=model.W @ T.A.T, b=model.b.copy(), C=model.C)


def whiten_both_baseline(D_S, D_T, lam: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Whiten each domain with its own statistics (negative control).

    Both domains are multiplied by their own (C + lam I)^{-1/2}.  This
    discards the correlation structure alignment could have transferred,
    and is provided to show it underperforms alignment.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    out_S = D_S @ _regularized_power(D_S, lam, -0.5)
    out_T = D_T @ _regularized_power(D_T, lam, -0.5)
    return out_S, out_T
