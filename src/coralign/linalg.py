"""Dense symmetric linear algebra used by every other module.

Covariance estimation, per-column standardization, and the one spectral
type behind every covariance power: ``SymOperator``, the symmetric
matrix s I + V diag(f) V^T.  Everything operates on plain float64 numpy
arrays with rows as examples.

Conventions fixed here and relied on elsewhere:

* covariance uses the unbiased 1/(n-1) normalization; a single row
  yields the zero matrix,
* every eigendecomposition is ``sym_eigen``'s, eigenvalues ascending as
  ``eigh`` returns them; "the top r" is selected with argsort,
* eigenvector signs are not unique; downstream code must only consume
  sign-invariant combinations such as ``V f(w) V^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPSDError, NumericalError

# Relative cutoff below which SymOperator.rank_mask treats an eigenvalue as zero.
DEFAULT_RANK_TOL = 1e-10
# Eigenvalues below -NEGATIVE_EIG_TOL * lambda_max mean the input was not PSD.
NEGATIVE_EIG_TOL = 1e-6


@dataclass(frozen=True)
class DomainStats:
    """Mean vector and unbiased covariance of one domain's features."""

    mean: np.ndarray
    cov: np.ndarray
    n: int


@dataclass(frozen=True)
class SymOperator:
    """The symmetric matrix shift * I + basis diag(spectrum) basis^T.

    The basis columns are orthonormal and column i pairs with
    spectrum[i]; every direction outside their span has eigenvalue
    ``shift``.  A d x d basis (from a dense eigendecomposition) covers
    the whole space; a thin d x k one (from a Gram matrix) lets wide data
    stay in row space, where the operator costs O(d k) per applied row
    and is never formed as a d x d matrix unless ``dense`` is asked for.
    """

    shift: float
    basis: np.ndarray
    spectrum: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def power(self, p: float) -> "SymOperator":
        """The operator raised to p: each eigenvalue e becomes e^p.

        With a shift s > 0 that is s^p I + V diag((s + f)^p - s^p) V^T.
        With s = 0 the spectrum is raised directly and directions outside
        the basis stay 0, so on a thin basis it is the power on the range;
        a negative power then needs every eigenvalue positive.
        """
        if self.shift > 0:
            s = self.shift**p
            return SymOperator(s, self.basis, (self.spectrum + self.shift) ** p - s)
        if p < 0 and not np.all(self.spectrum > 0):
            raise NumericalError("cannot raise a singular matrix to a negative power")
        return SymOperator(0.0, self.basis, self.spectrum**p)

    def rank_mask(self, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """Basis directions counted in the rank: eigenvalue above rank_tol
        times the largest (none when no eigenvalue is positive)."""
        return self.spectrum > rank_tol * self.spectrum.max(initial=0.0)

    def pinv_sqrt(self, rank_tol: float = DEFAULT_RANK_TOL) -> "SymOperator":
        """Moore-Penrose inverse square root of an unshifted operator:
        eigenvalues in rank_mask map to w^{-1/2}, the rest to 0."""
        keep = self.rank_mask(rank_tol)
        inv_root = np.where(keep, 1.0 / np.sqrt(np.where(keep, self.spectrum, 1.0)), 0.0)
        return SymOperator(0.0, self.basis, inv_root)

    def dense(self) -> np.ndarray:
        """The d x d matrix, symmetrized against round-off."""
        out = (self.basis * self.spectrum) @ self.basis.T
        if self.shift:
            out[np.diag_indices(self.dim)] += self.shift
        return (out + out.T) / 2.0

    def apply(self, X) -> np.ndarray:
        """X @ M for the rows of X, or M x for one vector.

        Takes whichever of the dense product and the factored form
        s X + ((X V) * f) V^T needs fewer flops: 2 d^2 (k + m) against
        4 d k m for m rows and a d x k basis.
        """
        d, k = self.basis.shape
        m = len(X) if np.ndim(X) == 2 else 1
        if 2 * k * m >= d * (k + m):
            return X @ self.dense()
        out = ((X @ self.basis) * self.spectrum) @ self.basis.T
        return out + self.shift * X if self.shift else out


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


def integer_labels(labels: np.ndarray, name: str = "labels") -> np.ndarray:
    """Class labels as integers: an integer array as it is, integral float
    values cast; InvalidInputError for NaN, infinite, fractional or
    out-of-range ones."""
    if np.issubdtype(labels.dtype, np.integer):
        return labels
    # in int64 range first (NaN and inf are not): casting other values
    # warns instead of failing
    if not (np.all(np.abs(labels) < 2.0**63) and np.all(labels == labels.astype(int))):
        raise InvalidInputError(f"{name} must be integers")
    return labels.astype(int)


def class_labels(labels, n: int, name: str = "labels") -> np.ndarray:
    """One non-negative integer class index per row of n rows: the shape
    checked, the values cast by integer_labels; InvalidInputError naming
    ``name`` otherwise.  Callers add their own rules on the classes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidInputError(f"{name} must have shape ({n},), got {labels.shape}")
    labels = integer_labels(labels, name)
    if labels.min() < 0:
        raise InvalidInputError(f"{name} must be non-negative class indices")
    return labels


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
    if n == 1:
        return DomainStats(mean=D.mean(axis=0), cov=np.zeros((d, d)), n=n)
    mean, _, cov = _centred_covariance(D)
    return DomainStats(mean=mean, cov=cov, n=n)


def _centred_covariance(D):
    """Mean, centred rows and covariance of a validated matrix of at least
    2 rows, as mean_and_covariance forms them; for callers that reuse the
    centred rows.  A stack of such matrices (..., n, d) gives one of each
    per matrix, each bit for bit its lone matrix's."""
    n = D.shape[-2]
    mean = np.add.reduce(D, axis=-2) / n
    Dc = D - mean[..., None, :]
    cov = (Dc.swapaxes(-1, -2) @ Dc) / (n - 1)
    return mean, Dc, (cov + cov.swapaxes(-1, -2)) / 2.0


def _check_symmetric(M, tol: float) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("matrix contains non-finite entries")
    if np.abs(M - M.T).max() > tol:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return M


def sym_eigen(M, shift: float = 0.0) -> SymOperator:
    """M + shift I = V diag(w) V^T for a symmetric PSD matrix M, with the
    eigenvalues ascending as eigh returns them.

    The one eigendecomposition in the package: every SymOperator comes
    from it.  Eigenvalues below -NEGATIVE_EIG_TOL * lambda_max raise
    NotPSDError.
    """
    M = _check_symmetric(M, 1e-9)
    if shift:
        M = M + shift * np.eye(len(M))
    w, V = np.linalg.eigh(M)
    if w[-1] < 0 or w[0] < -NEGATIVE_EIG_TOL * max(w[-1], 0.0):
        raise NotPSDError(
            f"matrix has negative eigenvalue {w[0]:.3e} (largest {w[-1]:.3e})"
        )
    return SymOperator(0.0, V, w)


def _check_lam(lam) -> None:
    """InvalidInputError unless lam is a finite number >= 0; NaN and inf
    would otherwise reach eigh and fail to converge."""
    if not 0.0 <= lam < np.inf:
        raise InvalidInputError(f"lambda must be a finite number >= 0, not {lam!r}")


def psd_operator(M, lam: float = 0.0) -> SymOperator:
    """M + lam I for a symmetric PSD matrix M and a finite lam >= 0, from
    one dense eigendecomposition, ready for any power.

    Eigenvalues are clamped below at lam: M + lam I has none smaller, and
    the clamp keeps negative powers finite against round-off without
    touching any other eigenvalue.  With lam = 0 the clamp is 1e-12 times
    the largest eigenvalue, below the rank cutoff of rank_mask.
    """
    _check_lam(lam)
    op = sym_eigen(M, lam)
    floor = lam if lam > 0 else 1e-12 * max(op.spectrum[-1], 0.0)
    return SymOperator(0.0, op.basis, np.maximum(op.spectrum, floor))


def covariance_operator(X, lam: float = 0.0) -> SymOperator:
    """cov(X) + lam I for the feature rows X, lam finite and >= 0.

    Tall data (n - 1 >= d) goes through the d x d covariance
    (psd_operator).  Wide data never forms it: with Xc the centred rows
    and Xc Xc^T = U diag(g) U^T, cov(X) has the eigenvalues g / (n - 1)
    on the orthonormal directions Xc^T U diag(g)^{-1/2} and is 0
    elsewhere, so cov(X) + lam I is the operator of shift lam on that
    thin basis.  Only the n x n Gram matrix is decomposed.

    The thin basis keeps every pair above the Gram matrix's round-off,
    n * eps * g_max, which also drops the null direction centring leaves.
    Rank decisions are the caller's (rank_mask): a shifted power needs
    none, and on raw features of very different scales a real direction
    can sit far below 1e-10 * g_max.
    """
    return _covariance_operator(as_feature_matrix(X), lam)


def _covariance_operator(X: np.ndarray, lam: float) -> SymOperator:
    """covariance_operator for feature rows X already validated by
    as_feature_matrix, for callers that have checked them."""
    n, d = X.shape
    _check_lam(lam)
    if n - 1 >= d:
        return psd_operator(_centred_covariance(X)[2], lam)
    Xc = X - X.mean(axis=0)
    G = Xc @ Xc.T
    gram = sym_eigen((G + G.T) / 2.0)
    g = gram.spectrum
    keep = g > n * np.finfo(float).eps * g.max()
    V = Xc.T @ gram.basis[:, keep]
    V /= np.sqrt(g[keep])
    return SymOperator(float(lam), V, g[keep] / max(n - 1, 1))


# Entries per row block of the work that runs in row blocks (generate_shift,
# _column_square_sums): blocks keep temporaries small against n x d arrays.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int, d: int) -> list[slice]:
    step = max(1, _BLOCK_ENTRIES // d)
    return [slice(i, i + step) for i in range(0, n, step)]


def _column_square_sums(X) -> np.ndarray:
    """np.add.reduce(np.square(X), axis=0), bit for bit, without an n x d
    square.

    With d >= 2 numpy sums a column of a C-ordered matrix row after row,
    so the squares are formed one row block at a time and each block is
    reduced behind the running sums, [sums; block^2], which continues the
    same sequence.  With d = 1 numpy sums the lone column pairwise, which
    a blocked sum would not repeat, so one column is squared whole."""
    n, d = X.shape
    if d == 1:
        return np.add.reduce(np.square(X), axis=0)
    blocks = _row_blocks(n, d)
    buf = np.empty((min(blocks[0].stop, n) + 1, d))
    sums = np.zeros(d)
    for rows in blocks:
        block = X[rows]
        buf[0] = sums
        np.square(block, out=buf[1:len(block) + 1])
        np.add.reduce(buf[:len(block) + 1], axis=0, out=sums)
    return sums


def standardize(D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns and scale them to unit sample std (ddof=1).

    Constant columns come out as exact zeros with their value as the mean
    and std recorded as 1, so the shape survives and no division by zero
    occurs.  When a constant column's mean rounds, its computed std is
    round-off, not 0: only columns with a std that small (at most n eps
    times the mean) are checked for equal values.  Returns
    (standardized, means, stds).

    The columns are centred once: the std is taken from the centred
    array that is returned, the difference ``np.std`` forms itself, and
    that array is then scaled in place.  Its squares are summed in row
    blocks (``_column_square_sums``), so the only n x d array formed is
    the one returned.
    """
    D = as_feature_matrix(D)
    n = D.shape[0]
    if n < 2:
        raise InvalidInputError("standardize needs at least 2 rows")
    means = D.mean(axis=0)
    out = D - means
    stds = np.sqrt(_column_square_sums(out) / (n - 1))
    for j in np.flatnonzero(stds <= n * np.finfo(float).eps * np.abs(means)):
        if np.all(D[:, j] == D[0, j]):
            means[j], stds[j] = D[0, j], 0.0
            out[:, j] = D[:, j] - D[0, j]
    stds = np.where(stds == 0.0, 1.0, stds)
    out /= stds
    return out, means, stds
