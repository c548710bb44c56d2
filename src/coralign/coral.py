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

A fitted ``CoralTransform`` keeps A as its two symmetric factors,
A = source · target, each a ``SymOperator``; the d x d matrix itself is
formed only when ``CoralTransform.A`` is first read.  The transform can
be applied to feature rows (D @ A) or pushed into a linear model's
weights (w -> A w), which scores identically.  When both factors have a
full d-column basis (tall data on both sides) either application goes
through A; otherwise it goes through one factor after the other, so
wide data is fitted and applied without any d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .classify import LinearModel
from .errors import InvalidInputError, NumericalError
from .linalg import SymOperator, _covariance_operator, as_feature_matrix


def _finite(values, what: str):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} contains non-finite entries")
    return values


@dataclass(frozen=True)
class CoralTransform:
    """A fitted alignment map A = source · target with its provenance.

    ``source`` is (C_S + lam I)^{-1/2}, or pinv_sqrt(C_S) in analytical
    mode; ``target`` is (C_T + lam I)^{1/2}, or root_r(C_T).  Both must be
    finite (NumericalError otherwise).  ``A`` is formed from them on its
    first read and kept; it raises NumericalError if it overflows.
    """

    source: SymOperator
    target: SymOperator
    mode: str  # "regularized" or "analytical"
    lam: float | None
    rank_used: int | None

    def __post_init__(self):
        for op in (self.source, self.target):
            for part in (op.shift, op.basis, op.spectrum):
                _finite(part, "fitted transform factor")

    @property
    def source_dim(self) -> int:
        return self.source.dim

    @cached_property
    def A(self) -> np.ndarray:
        target = self.target
        if self.mode == "analytical":
            # root_r(C_T) as the plain product (U_r sqrt(w_r)) U_r^T:
            # dense() would symmetrize it, which moves CORAL-analytical's
            # results in the last bits
            color = (target.basis * target.spectrum) @ target.basis.T
        else:
            color = target.dense()
        return _finite(self.source.dense() @ color, "fitted transform")


def _check_pair(D_S, D_T) -> tuple[np.ndarray, np.ndarray]:
    """Both domains validated, once: the fits pass them on to
    linalg._covariance_operator, which checks them no more."""
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

    lam is added to the raw covariances, so it is in their units (the
    squared units of the features).  On standardized features it weighs
    against unit variances.  On unstandardized features its effect
    depends on the feature scales: directions whose variance is well
    below lam are whitened and recoloured as if their variance were
    about lam, and directions well above it are almost unaffected.

    Accuracy: for lam >= 1e-3 tr(C_S) / d, tall or wide data and any
    conditioning of the covariances themselves (tested to 1e14), three
    identities of exact arithmetic hold to a relative Frobenius error of
    1e-10: A^T (C_S + lam I) A = C_T + lam I; fit(D_S Q, D_T Q) =
    Q^T fit(D_S, D_T) Q for an orthogonal Q; and fit(c D_S, c D_T,
    c^2 lam) = fit(D_S, D_T, lam).
    """
    D_S, D_T = _check_pair(D_S, D_T)
    if not lam > 0:
        raise InvalidInputError(
            "lambda must be > 0 in regularized mode; use the analytical fit for lambda = 0"
        )
    return CoralTransform(
        source=_covariance_operator(D_S, lam).power(-0.5),
        target=_covariance_operator(D_T, lam).power(0.5),
        mode="regularized", lam=float(lam), rank_used=None,
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
    """
    D_S, D_T = _check_pair(D_S, D_T)
    S, T = _covariance_operator(D_S, 0.0), _covariance_operator(D_T, 0.0)
    r = min(S.rank, T.rank)
    top = np.argsort(T.spectrum)[::-1][:r]
    return CoralTransform(
        source=S.pinv_sqrt(),
        target=SymOperator(0.0, T.basis[:, top], np.sqrt(T.spectrum[top])),
        mode="analytical", lam=None, rank_used=r,
    )


def _full_bases(T: CoralTransform) -> bool:
    """Whether both factors have a full d-column basis, as they do on
    tall data; only then is the d x d map applied as one matrix."""
    return T.source.basis.shape[1] == T.target.basis.shape[1] == T.source_dim


def apply_to_features(T: CoralTransform, D) -> np.ndarray:
    """Return D @ A: as D @ T.A when both factors have a full basis, else
    as (D · source) · target.  NumericalError if the result overflows."""
    D = as_feature_matrix(D)
    if D.shape[1] != T.source_dim:
        raise InvalidInputError(
            f"transform expects dimension {T.source_dim}, got {D.shape[1]}"
        )
    out = D @ T.A if _full_bases(T) else T.target.apply(T.source.apply(D))
    return _finite(out, "transformed features")


def apply_to_weights(T: CoralTransform, model: LinearModel) -> LinearModel:
    """Push the transform into the model: each class weight w becomes A w.

    Scores then satisfy (x A) · w = x · (A w), so predictions agree with
    transforming the features instead.  With both factors symmetric,
    W A^T = (W · target) · source, the route taken unless both factors
    have a full basis.  Biases and every other field (C, cv_acc) are
    untouched.  NumericalError if the weights overflow.
    """
    if model.dim != T.source_dim:
        raise InvalidInputError(
            f"transform expects dimension {T.source_dim}, model has {model.dim}"
        )
    W = model.W @ T.A.T if _full_bases(T) else T.source.apply(T.target.apply(model.W))
    return replace(model, W=_finite(W, "transformed weights"), b=model.b.copy())


def whiten_both_baseline(D_S, D_T, lam: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Whiten each domain with its own statistics (negative control).

    Both domains are multiplied by their own (C + lam I)^{-1/2}.  This
    discards the correlation structure alignment could have transferred,
    and is provided to show it underperforms alignment.
    """
    D_S, D_T = _check_pair(D_S, D_T)
    out_S = _covariance_operator(D_S, lam).power(-0.5).apply(D_S)
    out_T = _covariance_operator(D_T, lam).power(-0.5).apply(D_T)
    return out_S, out_T
