"""Dense symmetric linear algebra used by every other module.

Covariance estimation, symmetric eigendecomposition, matrix powers,
pseudo-inverse square roots, Frobenius distances and per-column
standardization.  Everything operates on plain float64 numpy arrays with
rows as examples.

Conventions fixed here and relied on elsewhere:

* covariance uses the unbiased 1/(n-1) normalization; a single row
  yields the zero matrix,
* eigenvalues are sorted descending, so "the top r" is a prefix slice,
* eigenvector signs are not unique; downstream code must only consume
  sign-invariant combinations such as ``V f(w) V^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPSDError, NumericalError

# Relative eigenvalue floor for sym_power when the caller does not pass one.
DEFAULT_POWER_FLOOR = 1e-12
# Relative cutoff below which pseudo_inv_sqrt treats an eigenvalue as zero.
DEFAULT_RANK_TOL = 1e-10
# Eigenvalues below -NEGATIVE_EIG_TOL * lambda_max mean the input was not PSD.
NEGATIVE_EIG_TOL = 1e-6


@dataclass(frozen=True)
class DomainStats:
    """Mean vector and unbiased covariance of one domain's features."""

    mean: np.ndarray
    cov: np.ndarray
    n: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Column ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_feature_matrix(D, name: str = "features") -> np.ndarray:
    """Validate and return a 2-D float64 array of feature rows."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got shape {D.shape}")
    if D.shape[0] < 1 or D.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {D.shape}")
    if not np.all(np.isfinite(D)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return D


def mean_and_covariance(D) -> DomainStats:
    """Column means and unbiased covariance of a feature matrix.

    Centers first, Dc^T Dc / (n - 1) with Dc = D - mean, and symmetrizes
    the result to remove float round-off asymmetry.  The one-pass form
    D^T D - s s^T / n cancels catastrophically when the means are large
    against the spread: at mean 1e8 and unit variance it gave negative
    variances.  With a single row the covariance is defined as the zero
    matrix.
    """
    D = as_feature_matrix(D)
    n, d = D.shape
    mean = D.mean(axis=0)
    if n == 1:
        return DomainStats(mean=mean, cov=np.zeros((d, d)), n=n)
    Dc = D - mean
    cov = (Dc.T @ Dc) / (n - 1)
    cov = (cov + cov.T) / 2.0
    return DomainStats(mean=mean, cov=cov, n=n)


def _check_symmetric(M, tol: float) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("matrix contains non-finite entries")
    if np.abs(M - M.T).max() > tol:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return M


def sym_eigen(M) -> SymmetricEigen:
    """Eigendecomposition of a symmetric matrix, sorted descending."""
    M = _check_symmetric(M, 1e-9)
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    return SymmetricEigen(eigenvalues=w[order], eigenvectors=V[:, order])


def _psd_eigh(M):
    """Ascending eigenpairs (w, V) of a symmetric PSD matrix, or None for
    the zero matrix, whose powers each caller defines for itself.

    The one eigen kernel of sym_power and pseudo_inv_sqrt.  Eigenvalues
    below -NEGATIVE_EIG_TOL * lambda_max raise NotPSDError.
    """
    M = _check_symmetric(M, 1e-9)
    w, V = np.linalg.eigh(M)
    lam_max = w[-1]
    if lam_max < 0 or w[0] < -NEGATIVE_EIG_TOL * max(lam_max, 0.0):
        raise NotPSDError(
            f"matrix has negative eigenvalue {w[0]:.3e} (largest {lam_max:.3e})"
        )
    if lam_max <= 0.0:
        return None
    return w, V


def _from_spectrum(V, f_w) -> np.ndarray:
    """V diag(f_w) V^T, symmetrized against round-off."""
    out = (V * f_w) @ V.T
    return (out + out.T) / 2.0


def _rank_mask(w, rank_tol: float) -> np.ndarray:
    """Eigenvalues counted in the rank: those above rank_tol * lambda_max
    (none for a matrix with no positive eigenvalue)."""
    return w > rank_tol * max(w.max(), 0.0)


def sym_power(M, p: float, floor: float | None = None) -> np.ndarray:
    """Spectral power V diag(max(w, floor)^p) V^T of a symmetric PSD matrix.

    ``floor`` defaults to DEFAULT_POWER_FLOOR times the largest
    eigenvalue; it keeps negative powers finite in the face of round-off.
    Eigenvalues below -1e-6 * lambda_max raise NotPSDError.
    """
    eig = _psd_eigh(M)
    if eig is None:
        # zero matrix: non-negative powers are zero, negative powers undefined
        if p >= 0:
            return np.zeros(np.shape(M))
        raise NumericalError("cannot raise the zero matrix to a negative power")
    w, V = eig
    if floor is None:
        floor = DEFAULT_POWER_FLOOR * w[-1]
    return _from_spectrum(V, np.maximum(w, floor) ** p)


def pseudo_inv_sqrt(M, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, int]:
    """Moore-Penrose style inverse square root of a symmetric PSD matrix.

    Eigenvalues at or below ``rank_tol * lambda_max`` map to 0, the rest
    to w^{-1/2}.  Returns the matrix together with the retained rank; an
    all-zero input yields the zero matrix with rank 0.
    """
    eig = _psd_eigh(M)
    if eig is None:
        return np.zeros(np.shape(M)), 0
    w, V = eig
    keep = _rank_mask(w, rank_tol)
    inv_root = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return _from_spectrum(V, inv_root), int(keep.sum())


def frobenius_distance_sq(A, B) -> float:
    """Sum of squared entrywise differences between two equal-shape matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise InvalidInputError(f"shape mismatch: {A.shape} vs {B.shape}")
    diff = A - B
    return float(np.sum(diff * diff))


def standardize(D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns and scale them to unit sample std (ddof=1).

    Zero-variance columns are centered and their std recorded as 1, so
    the shape survives and no division by zero occurs.  Returns
    (standardized, means, stds).
    """
    D = as_feature_matrix(D)
    if D.shape[0] < 2:
        raise InvalidInputError("standardize needs at least 2 rows")
    means = D.mean(axis=0)
    stds = D.std(axis=0, ddof=1)
    stds = np.where(stds == 0.0, 1.0, stds)
    return (D - means) / stds, means, stds
