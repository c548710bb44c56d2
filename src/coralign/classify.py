"""Baseline multi-class linear classifier: one-vs-rest hinge loss SVM.

Trained by stochastic subgradient descent with the classic decaying step
schedule eta_t = 1/(lambda_reg t), lambda_reg = 1/(C n), plus a
projection of each class row onto the ball of radius 1/sqrt(lambda_reg).
The bias is carried as an augmented constant-1 feature that is excluded
from regularization and projection.

The schedule alone does not give a monotone objective, so each epoch is
guarded: if the regularized objective went up, the epoch is rolled back
and the step-size scale halved.  This keeps the per-epoch objective
non-increasing without touching the update rule itself.

One private kernel runs the loop for a stack of fits at once.
``train_svm`` is its one-fit case.  ``cross_validate_C`` fits every
(fold, C) pair in lockstep, one kernel run per group of folds that share
a training size and class count.  Such fits share the seed and size, so
they draw the same minibatch positions.  Each fit keeps its own lambda,
step scale and rollback, and its weights are bitwise those of a lone
``train_svm`` call on its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_feature_matrix

# Minibatch size for the subgradient steps.
MINIBATCH = 64
# Epochs used for each cross-validation fit.
CV_EPOCHS = 20


@dataclass(frozen=True)
class LinearModel:
    """Per-class weight rows and biases of a multi-class linear scorer."""

    W: np.ndarray  # (K, d)
    b: np.ndarray  # (K,)
    C: float

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]


def _check_labels(labels, n: int) -> tuple[np.ndarray, int]:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidInputError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(int)):
            raise InvalidInputError("labels must be integers")
        labels = labels.astype(int)
    if labels.min() < 0:
        raise InvalidInputError("labels must be non-negative class indices")
    K = int(labels.max()) + 1
    if K < 2:
        raise InvalidInputError("need at least two classes to train")
    return labels, K


def _check_fit(n: int, K: int, C: float, epochs: int) -> None:
    if not C > 0:
        raise InvalidInputError(f"C must be positive, got {C}")
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    if n < K:
        raise InvalidInputError(f"need at least K={K} examples, got {n}")


def _augment(X) -> np.ndarray:
    """Feature rows with the constant-1 bias column appended."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _signs(labels, K: int) -> np.ndarray:
    """One-vs-rest targets: +1 in a row's own class column, -1 elsewhere."""
    return np.where(labels[:, None] == np.arange(K)[None, :], 1.0, -1.0)


def _objectives(Wa, Xa, Ysign, lam) -> np.ndarray:
    """Regularized mean hinge, averaged over the one-vs-rest problems, of
    each block of K rows of Wa (one block per C, lam per row)."""
    n, K = Ysign.shape
    margins = (Xa @ Wa.T).reshape(n, -1, K)
    margins *= Ysign[:, None, :]
    np.subtract(1.0, margins, out=margins)  # in place: one (n, G*K) temporary
    hinge = np.maximum(0.0, margins, out=margins).mean(axis=0)
    reg = 0.5 * lam * (Wa[:, :-1] ** 2).sum(axis=1)
    return (hinge + reg.reshape(hinge.shape)).mean(axis=1)


def _fold_objectives(Wa, Xa, Ysign, rows, lam) -> np.ndarray:
    """(F, G) objectives of stacked runs, evaluated one fold at a time."""
    return np.stack([_objectives(Wf, Xa[r], Ysign[r], lam) for Wf, r in zip(Wa, rows)])


def _sgd(Xa, Ysign, rows, Cs, epochs: int, seed: int) -> np.ndarray:
    """Run one subgradient fit per (fold, C) pair, all in lockstep.

    Xa (N, d+1) holds augmented rows and Ysign (N, K) their targets;
    fold f trains on rows[f] (all folds have the same size n) and the G
    values of Cs share one seed.  Returns weights (F, G*K, d+1): rows
    g*K..(g+1)*K of fold f are the fit for Cs[g].

    Same n and seed means the same permutations, so every run steps on
    the same minibatch positions; each keeps its own lambda, step scale,
    snapshot and rollback.  The stacked products reduce over the same
    axes and lengths as a lone run's; with OpenBLAS that gives each run
    the weights of a one-run call bit for bit, which the tests check.
    """
    F, n = rows.shape
    G, K = len(Cs), Ysign.shape[1]
    lam = np.repeat(1.0 / (np.asarray(Cs, dtype=float) * n), K)  # per weight row
    radius = 1.0 / np.sqrt(lam)
    Wa = np.zeros((F, G * K, Xa.shape[1]))
    scale = np.ones((F, G * K))
    rng = np.random.default_rng(seed)

    t = 0
    accepted = _fold_objectives(Wa, Xa, Ysign, rows, lam)
    for _ in range(epochs):
        snapshot = Wa.copy()
        perm = rng.permutation(n)
        for start in range(0, n, MINIBATCH):
            idx = rows[:, perm[start : start + MINIBATCH]]
            t += 1
            eta = scale / (lam * t)
            Xb, Yb = Xa[idx], np.tile(Ysign[idx], G)
            viol = (Yb * (Xb @ Wa.transpose(0, 2, 1))) < 1.0
            grad = -(viol * Yb).transpose(0, 2, 1) @ Xb / idx.shape[1]
            grad[..., :-1] += lam[:, None] * Wa[..., :-1]
            Wa = Wa - eta[..., None] * grad
            norms = np.linalg.norm(Wa[..., :-1], axis=-1)
            shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
            Wa[..., :-1] *= shrink[..., None]
        candidate = _fold_objectives(Wa, Xa, Ysign, rows, lam)
        reject = candidate > accepted
        accepted = np.where(reject, accepted, candidate)
        reject = np.repeat(reject, K, axis=1)
        Wa = np.where(reject[..., None], snapshot, Wa)
        scale = np.where(reject, scale * 0.5, scale)
    return Wa


def train_svm(D, labels, C: float, epochs: int, seed: int) -> LinearModel:
    """Train the one-vs-rest hinge classifier; deterministic per seed."""
    X = as_feature_matrix(D)
    n = X.shape[0]
    labels, K = _check_labels(labels, n)
    _check_fit(n, K, C, epochs)
    Wa = _sgd(_augment(X), _signs(labels, K), np.arange(n)[None, :], [C], epochs, seed)[0]
    return LinearModel(W=Wa[:, :-1].copy(), b=Wa[:, -1].copy(), C=float(C))


def svm_objective(model: LinearModel, D, labels) -> float:
    """The training objective of a model on a dataset (lambda_reg from len(D))."""
    X = as_feature_matrix(D)
    n = X.shape[0]
    labels, K = _check_labels(labels, n)
    if K > model.n_classes:
        raise InvalidInputError("labels reference classes the model does not have")
    Wa = np.hstack([model.W, model.b[:, None]])
    lam = 1.0 / (model.C * n)
    return float(_objectives(Wa, _augment(X), _signs(labels, model.n_classes), lam)[0])


def predict(model: LinearModel, D) -> np.ndarray:
    """Argmax class per row; ties break toward the lowest class index."""
    X = as_feature_matrix(D)
    if X.shape[1] != model.dim:
        raise InvalidInputError(
            f"model expects dimension {model.dim}, got {X.shape[1]}"
        )
    return np.argmax(X @ model.W.T + model.b, axis=1)


def accuracy(pred, truth) -> float:
    """Fraction of positions where pred equals truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise InvalidInputError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(pred == truth))


def cross_validate_C(D, labels, grid, folds: int, seed: int, epochs: int = CV_EPOCHS) -> float:
    """Pick the grid value with the best mean held-out accuracy.

    Folds come from one seeded shuffle split into near-equal parts.
    Ties resolve toward the smaller C (stronger regularization).
    """
    grid = sorted(float(c) for c in grid)
    accs = _cv_accuracies(D, labels, grid, folds, seed, epochs)
    return grid[int(np.argmax(accs.mean(axis=1)))]  # first maximum


def _cv_accuracies(D, labels, grid, folds: int, seed: int, epochs: int) -> np.ndarray:
    """Held-out accuracy (G, F) of every (C, fold) pair.

    Each entry equals a lone ``train_svm`` fit on the fold's training rows.
    Folds with the same training size and class count train in one
    lockstep kernel run: the same seed and size give the same minibatches.
    """
    X = as_feature_matrix(D)
    n = X.shape[0]
    labels, _ = _check_labels(labels, n)
    if not grid:
        raise InvalidInputError("empty C grid")
    if folds < 2:
        raise InvalidInputError("need at least 2 folds")
    if folds > n:
        raise InvalidInputError("more folds than examples")

    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, folds)
    groups = {}
    for f in range(folds):
        train_idx = np.concatenate([parts[g] for g in range(folds) if g != f])
        _, K = _check_labels(labels[train_idx], len(train_idx))
        for C in grid:
            _check_fit(len(train_idx), K, C, epochs)
        groups.setdefault((len(train_idx), K), []).append((f, train_idx))

    Xa = _augment(X)
    accs = np.empty((len(grid), folds))
    for (_, K), members in groups.items():
        rows = np.stack([train_idx for _, train_idx in members])
        Wa = _sgd(Xa, _signs(labels, K), rows, grid, epochs, seed)
        for (f, _), Wf in zip(members, Wa):
            test_idx = parts[f]
            scores = X[test_idx] @ Wf[:, :-1].T + Wf[:, -1]
            pred = scores.reshape(len(test_idx), len(grid), K).argmax(axis=2)
            accs[:, f] = (pred == labels[test_idx][:, None]).mean(axis=0)
    return accs
