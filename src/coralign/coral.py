"""Linear covariance alignment between a source and a target domain.

Fits a d x d matrix A so that source features multiplied by A have
(approximately) the target covariance.  Two fit modes:

* regularized: A = (C_S + lam I)^{-1/2} (C_T + lam I)^{1/2} — whiten the
  source against its shrunk covariance, then re-color with the target's,
* analytical: A = pinv_sqrt(C_S) root_r(C_T), built from the
  pseudo-inverse square root of C_S and the rank-truncated square root
  of C_T.

Both take each domain's covariance as a ``linalg.SymOperator``
(``covariance_operator``).  When a domain has fewer rows than dimensions
(n - 1 < d) that operator comes from the n x n Gram matrix of the
centred rows, so wide fits never form or decompose a d x d covariance.

The transform can be applied to feature rows (D @ A) or pushed into a
linear model's weights (w -> A w), which scores identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classify import LinearModel
from .errors import InvalidInputError, NumericalError
from .linalg import as_feature_matrix, covariance_operator


@dataclass(frozen=True)
class CoralTransform:
    """A fitted alignment matrix with its provenance."""

    A: np.ndarray
    mode: str  # "regularized" or "analytical"
    lam: float | None
    rank_used: int | None
    source_dim: int


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
    if not lam > 0:
        raise InvalidInputError(
            "lambda must be > 0 in regularized mode; use the analytical fit for lambda = 0"
        )
    inv_root = covariance_operator(D_S, lam).power(-0.5)
    color = covariance_operator(D_T, lam).power(0.5)
    A = inv_root.dense() @ color.dense()
    if not np.all(np.isfinite(A)):
        raise NumericalError("fitted transform contains non-finite entries")
    return CoralTransform(
        A=A, mode="regularized", lam=float(lam), rank_used=None, source_dim=D_S.shape[1]
    )


def fit_analytical(D_S, D_T) -> CoralTransform:
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

    When either side is wide (n - 1 < d) the product is taken in
    factored form, A = V_S diag(w_S)^{-1/2} (V_S^T U_r) diag(w_r)^{1/2}
    U_r^T, so no d x d matrix is formed before A itself.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    d = D_S.shape[1]
    S, T = covariance_operator(D_S), covariance_operator(D_T)
    inv_root = S.pinv_sqrt()
    r = min(int(S.rank_mask().sum()), int(T.rank_mask().sum()))
    top = np.argsort(T.spectrum)[::-1][:r]
    U_r, root_w = T.basis[:, top], np.sqrt(T.spectrum[top])
    if S.basis.shape[1] == d and T.basis.shape[1] == d:
        A = inv_root.dense() @ ((U_r * root_w) @ U_r.T)
    else:
        V_S = inv_root.basis
        A = (V_S * inv_root.spectrum) @ (((V_S.T @ U_r) * root_w) @ U_r.T)
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
    transforming the features instead.  Biases and every other field
    (C, cv_acc) are untouched.
    """
    if model.dim != T.source_dim:
        raise InvalidInputError(
            f"transform expects dimension {T.source_dim}, model has {model.dim}"
        )
    return replace(model, W=model.W @ T.A.T, b=model.b.copy())


def whiten_both_baseline(D_S, D_T, lam: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Whiten each domain with its own statistics (negative control).

    Both domains are multiplied by their own (C + lam I)^{-1/2}.  This
    discards the correlation structure alignment could have transferred,
    and is provided to show it underperforms alignment.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    out_S = covariance_operator(D_S, lam).power(-0.5).apply(D_S)
    out_T = covariance_operator(D_T, lam).power(-0.5).apply(D_T)
    return out_S, out_T
