"""Linear covariance alignment between a source and a target domain.

Fits a d x d matrix A so that source features multiplied by A have
(approximately) the target covariance.  Two fit modes:

* regularized: A = (C_S + lam I)^{-1/2} (C_T + lam I)^{1/2} — whiten the
  source against its shrunk covariance, then re-color with the target's,
* analytical: A = pinv_sqrt(C_S) root_r(C_T), built from the
  pseudo-inverse square root of C_S and the rank-truncated square root
  of C_T.

When a domain has fewer rows than dimensions (n - 1 < d) its covariance
has rank at most n - 1, and every eigenpair it has with a non-zero
eigenvalue comes from the n x n Gram matrix of the centred rows.  Wide
fits are built from those eigenpairs, so they eigendecompose n x n
matrices and never form or decompose a d x d covariance.

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


def _cov_eigenpairs(X: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kept eigenpairs (w, V) of cov(X), eigenvalues descending.

    Wide data (n - 1 < d) never forms the covariance: with Xc the centred
    rows and Xc Xc^T = U diag(g) U^T, cov(X) = Xc^T Xc / (n - 1) has the
    eigenvalues w = g / (n - 1) on the orthonormal directions
    V = Xc^T U diag(g)^{-1/2}, and is 0 elsewhere.  Tall data
    eigendecomposes the covariance.  Either way an eigenpair is kept when
    its eigenvalue exceeds rank_tol times the largest (_rank_mask), which
    also drops the null direction that centering leaves in the Gram
    matrix.
    """
    n, d = X.shape
    if n - 1 >= d:
        eig = sym_eigen(mean_and_covariance(X).cov)
        keep = _rank_mask(eig.eigenvalues, rank_tol)
        return eig.eigenvalues[keep], eig.eigenvectors[:, keep]
    Xc = X - X.mean(axis=0)
    G = Xc @ Xc.T
    eig = sym_eigen((G + G.T) / 2.0)
    keep = _rank_mask(eig.eigenvalues, rank_tol)
    g = eig.eigenvalues[keep]
    V = Xc.T @ eig.eigenvectors[:, keep]
    V /= np.sqrt(g)
    return g / max(n - 1, 1), V


def _regularized_power(X: np.ndarray, lam: float, p: float) -> np.ndarray:
    """(cov(X) + lam I)^p, without forming the covariance when n - 1 < d.

    On wide data cov(X) is w on the directions V of _cov_eigenpairs and 0
    elsewhere, so shifting by lam and raising to p gives
    lam^p I + V diag((w + lam)^p - lam^p) V^T.  That costs an n x n
    eigendecomposition instead of a dense d x d one.

    A shifted power needs no rank decision, so the wide branch keeps
    every direction above the Gram matrix's round-off, n * eps * g_max,
    not only those above the analytical fit's rank cutoff.  Dropping a
    direction of eigenvalue w moves the power by about p lam^(p-1) w, and
    on raw features of very different scales w can sit far above
    round-off yet below 1e-10 * w_max.
    """
    n, d = X.shape
    if n - 1 >= d:
        C = mean_and_covariance(X).cov
        return sym_power(C + lam * np.eye(d), p)
    w, V = _cov_eigenpairs(X, n * np.finfo(float).eps)
    out = (V * ((w + lam) ** p - lam**p)) @ V.T
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
    """Fit A = pinv_sqrt(C_S) · root_r(C_T).

    root_r(C_T) = U_r diag(w_r)^{1/2} U_r^T, where U_r, w_r are the top r
    eigenpairs of C_T and r = min(rank C_S, rank C_T).  The aligned
    source covariance is A^T C_S A = R P_S R, with R = root_r(C_T) and P_S
    the projector onto the range of C_S (the span of the source's
    centred rows).  It equals the rank-r truncation C_T,r of C_T, the
    closest covariance of rank r, exactly when C_T's top-r eigenvectors
    lie in that range.  That always holds when C_S has full rank, and
    then the result is C_T itself.  Otherwise, as on most wide source
    data, R P_S R falls short of C_T,r.

    When either side is wide (n - 1 < d) the fit is assembled from the
    kept eigenpairs of both covariances, A = V_S diag(w_S)^{-1/2}
    (V_S^T U_r) diag(w_r)^{1/2} U_r^T, so no d x d matrix is decomposed
    for the wide side.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    d = D_S.shape[1]
    if len(D_S) - 1 >= d and len(D_T) - 1 >= d:
        C_S = mean_and_covariance(D_S).cov
        C_T = mean_and_covariance(D_T).cov

        inv_root_S, rank_S = pseudo_inv_sqrt(C_S, rank_tol=rank_tol)
        eig_T = sym_eigen(C_T)
        w_T = eig_T.eigenvalues
        r = min(rank_S, int(_rank_mask(w_T, rank_tol).sum()))

        U_r = eig_T.eigenvectors[:, :r]
        root_T = (U_r * np.sqrt(np.maximum(w_T[:r], 0.0))) @ U_r.T
        A = inv_root_S @ root_T
    else:
        w_S, V_S = _cov_eigenpairs(D_S, rank_tol)
        w_T, U_T = _cov_eigenpairs(D_T, rank_tol)
        r = min(len(w_S), len(w_T))
        U_r = U_T[:, :r]
        A = (V_S / np.sqrt(w_S)) @ (((V_S.T @ U_r) * np.sqrt(w_T[:r])) @ U_r.T)
    if not np.all(np.isfinite(A)):
        raise NumericalError("fitted transform contains non-finite entries")
    return CoralTransform(
        A=A, mode="analytical", lam=None, rank_used=r, source_dim=d
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
