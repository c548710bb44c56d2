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

One private kernel runs the loop for a stack of fits at once, along
three axes: members (feature matrices of one shape that share the labels
and rows, such as the features of several adaptation methods), folds and
C values.  Fits that share the seed and training size draw the same
minibatch positions, so they step in lockstep; each keeps its own
lambda, step scale, snapshot and rollback.  ``fit_cross_validated``
picks a C per member by cross-validation, one kernel run per group of
folds that share a training size and class count, then fits every
member on all rows at its own C in one more run.  A feature matrix
passed more than once (the same object) is one member, fit once.
``train_svm`` is the one-member case of that final fit.

Cross-validation shuffles the member rows in place, so each fold holds
out one contiguous block and trains on the other rows in increasing
order.  The epoch objective is then one product per member over all
rows, (N, d+1) by (d+1, F*G*K) for F folds and G values of C over K
classes, followed by four contiguous passes against one signed-target
operand built once per kernel run: each row's +-1 targets on the folds
that train on it, 0 on the folds that hold it out.  The held-out rows'
hinge comes out +0 and the sum runs in row order, so every fold's
objective is that of its gathered training rows, bitwise under
OpenBLAS's SkylakeX and Haswell kernels (Nehalem rounds a few entries of
the wider product differently in the last bit).  With the default
SkylakeX kernel every stacked fit's weights are bitwise those of a lone
``train_svm`` call on its rows; the Haswell and Nehalem kernels block
the stacked products differently and can differ in the last bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_feature_matrix, class_labels

# Minibatch size for the subgradient steps.
MINIBATCH = 64


@dataclass(frozen=True)
class LinearModel:
    """Per-class weight rows and biases of a multi-class linear scorer.

    ``cv_acc`` is the mean held-out accuracy of ``C`` when
    cross-validation chose it (``fit_cross_validated``), else NaN."""

    W: np.ndarray  # (K, d)
    b: np.ndarray  # (K,)
    C: float
    cv_acc: float = float("nan")

    @property
    def dim(self) -> int:
        return self.W.shape[1]


def _check_labels(labels, n: int) -> tuple[np.ndarray, int]:
    labels = class_labels(labels, n)
    K = int(labels.max()) + 1
    if K < 2:
        raise InvalidInputError("need at least two classes to train")
    return labels, K


def _check_fit(n: int, K: int, C: float, epochs: int) -> None:
    if not 0 < C < np.inf:
        raise InvalidInputError(f"C must be a finite number > 0, got {C}")
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    if n < K:
        raise InvalidInputError(f"need at least K={K} examples, got {n}")


def _signs(labels, K: int) -> np.ndarray:
    """One-vs-rest targets: +1 in a row's own class column, -1 elsewhere."""
    return np.where(labels[:, None] == np.arange(K)[None, :], 1.0, -1.0)


def _stack_members(Ds) -> np.ndarray:
    """Feature matrices of one shape as (M, N, d+1) augmented rows, the
    constant-1 bias column appended, built in place."""
    Xs = [as_feature_matrix(D) for D in Ds]
    if not Xs:
        raise InvalidInputError("need at least one feature matrix")
    for X in Xs[1:]:
        if X.shape != Xs[0].shape:
            raise InvalidInputError(
                f"feature matrices must share one shape, got {Xs[0].shape} and {X.shape}"
            )
    n, d = Xs[0].shape
    Xa = np.empty((len(Xs), n, d + 1))
    for dst, X in zip(Xa, Xs):
        dst[:, :-1] = X
    Xa[..., -1] = 1.0
    return Xa


def _objectives(Wa, Xa, Ytr, n: int, lam, K: int) -> np.ndarray:
    """(M, F, G) regularized mean hinge, averaged over the one-vs-rest
    problems, of stacked runs: weights Wa (M, F, G*K, d+1) with lam
    (M, G*K) per weight row, fold f on n rows, Ytr (N, F*G*K) the
    signed-target operand of ``_sgd``.

    One product per member, (N, d+1) by (d+1, F*G*K), scores every row
    against all its folds' weight rows; four passes over the scores s
    give the hinge.  y (y - s) = 1 - y s exactly when y = +-1, and a
    held-out row (y = 0) gives +0 once max(0, .) is taken.  The sum over
    rows runs in row order, so each fold's sum is that of its training
    rows gathered in increasing order (bitwise where the product's
    entries round as in the gathered product's, see the module
    docstring)."""
    M, F, GK, _ = Wa.shape
    hinge = np.empty((M, F * GK))
    H = np.empty(Ytr.shape)  # every member's scores, in place from here
    for Wm, Xm, out in zip(Wa, Xa, hinge):
        np.matmul(Xm, Wm.reshape(F * GK, -1).T, out=H)
        np.subtract(Ytr, H, out=H)
        H *= Ytr
        np.maximum(0.0, H, out=H)
        np.add.reduce(H, axis=0, out=out)
    hinge /= n
    reg = 0.5 * lam[:, None, :] * _squared_norms(Wa)
    return (hinge + reg.reshape(hinge.shape)).reshape(M, F, -1, K).mean(axis=-1)


def _squared_norms(Wa) -> np.ndarray:
    """Squared norm of each weight row of Wa (..., d+1), bias excluded:
    every entry squared in one contiguous pass, then each row's first d
    squares summed."""
    return np.add.reduce(np.square(Wa)[..., :-1], axis=-1)


def _step(Wa, Xa, Yt, idx, lam_w, eta, radius) -> None:
    """One minibatch subgradient step and ball projection of every stacked
    fit, in place on Wa (M, F, G*K, d+1); fold f steps on rows idx[f], Yt
    (N, G*K) the targets of every weight row, lam_w (M, 1, G*K, d+1) the
    lambda of every weight, 0 on the bias.  Its temporaries die on
    return, so no two steps' copies coexist.

    The weight decay runs over whole rows, which are contiguous: it adds
    0 * b to the bias gradient, which changes no stored weight.  A row
    inside the ball (norm <= radius) has projection scale exactly 1, since
    rounded division is monotone, and scaling by 1 leaves it as it is; so
    a step whose rows all stay inside skips the projection, scales and
    all."""
    # take, not Xa[:, idx]: each (member, fold) block stays contiguous
    Xb, Yb = np.take(Xa, idx, axis=1), np.take(Yt, idx, axis=0)
    # the weights' transpose as a contiguous copy: the same (d+1, G*K)
    # operand, which OpenBLAS multiplies faster than a transposed view
    coef = Xb @ np.ascontiguousarray(Wa.swapaxes(2, 3))  # margins, then the hinge coefficients
    coef *= Yb
    np.less(coef, 1.0, out=coef)  # 1.0 where the margin is violated, else 0.0
    coef *= np.negative(Yb, out=Yb)
    grad = coef.swapaxes(2, 3) @ Xb
    del Xb, Yb, coef  # freed before the rest of the step allocates
    grad /= idx.shape[1]
    grad += lam_w * Wa
    grad *= eta[..., None]
    Wa -= grad
    norms = np.sqrt(_squared_norms(Wa))
    if not (norms <= radius).all():  # a NaN norm fails <=, so it is scaled too
        shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
        Wa[..., :-1] *= shrink[..., None]


def _sgd(Xa, Ysign, rows, Cs, epochs: int, seed: int) -> np.ndarray:
    """Run one subgradient fit per (member, fold, C), all in lockstep.

    Xa (M, N, d+1) holds the augmented rows of M members and Ysign (N, K)
    their shared targets; fold f trains on rows[f], strictly increasing
    (all folds have the same size n), member m at each of its G values
    Cs[m], and every fit uses one seed.  Returns weights (M, F, G*K, d+1):
    rows g*K..(g+1)*K of [m, f] are member m's fit on fold f at Cs[m][g].

    Same n and seed means the same permutations, so every run steps on
    the same minibatch positions; each keeps its own lambda, step scale,
    snapshot and rollback.  The stacked products reduce over the same
    axes and lengths as a lone run's; with OpenBLAS's SkylakeX kernel
    that gives each run the weights of a one-run call bit for bit, which
    the tests check.

    The epoch objectives read one signed-target operand Ytr (N, F*G*K),
    built once per run: row i's +-1 target of every weight row of fold
    f where fold f trains on row i, and 0 where it holds row i out.
    The all-zero start needs no pass: every training row's hinge is then
    exactly 1 and every held-out row's +0, so each objective is exactly 1.
    """
    F, n = rows.shape
    if not (np.diff(rows, axis=1) > 0).all():
        raise InvalidInputError("each fold's training rows must be strictly increasing")
    Cs = np.asarray(Cs, dtype=float)
    G, K = Cs.shape[1], Ysign.shape[1]
    Yt = np.tile(Ysign, G)  # (N, G*K): the target of every weight row
    Ytr = np.zeros((Xa.shape[1], F, G * K))
    Ytr[rows.T, np.arange(F)] = Yt[rows.T]
    Ytr = Ytr.reshape(len(Ytr), -1)
    lam = np.repeat(1.0 / (Cs * n), K, axis=1)  # (M, G*K), per weight row
    lam_rows = lam[:, None, :]  # broadcast over folds
    lam_w = np.zeros((*lam_rows.shape, Xa.shape[2]))  # per weight, 0 on the bias
    lam_w[..., :-1] = lam_rows[..., None]
    radius = 1.0 / np.sqrt(lam_rows)
    Wa = np.zeros((Xa.shape[0], F, G * K, Xa.shape[2]))
    scale = np.ones(Wa.shape[:3])
    rng = np.random.default_rng(seed)

    t = 0
    accepted = np.ones(Wa.shape[:2] + (G,))  # the objectives at Wa = 0
    for _ in range(epochs):
        snapshot = Wa.copy()
        perm = rng.permutation(n)
        for start in range(0, n, MINIBATCH):
            t += 1
            _step(Wa, Xa, Yt, rows[:, perm[start : start + MINIBATCH]],
                  lam_w, scale / (lam_rows * t), radius)
        candidate = _objectives(Wa, Xa, Ytr, n, lam, K)
        reject = candidate > accepted
        accepted = np.where(reject, accepted, candidate)
        reject = np.repeat(reject, K, axis=-1)
        Wa = np.where(reject[..., None], snapshot, Wa)
        scale = np.where(reject, scale * 0.5, scale)
    return Wa


def _fit(Xa, labels, Cs, epochs: int, seed: int) -> list[LinearModel]:
    """Every member trained on all its rows, member m at Cs[m], in one
    kernel run."""
    n = Xa.shape[1]
    labels, K = _check_labels(labels, n)
    for C in Cs:
        _check_fit(n, K, C, epochs)
    Wa = _sgd(Xa, _signs(labels, K), np.arange(n)[None, :],
              np.reshape(Cs, (-1, 1)), epochs, seed)
    return [LinearModel(W=W[:, :-1].copy(), b=W[:, -1].copy(), C=float(C))
            for W, C in zip(Wa[:, 0], Cs)]


def train_svm(D, labels, C: float, epochs: int, seed: int) -> LinearModel:
    """Train the one-vs-rest hinge classifier; deterministic per seed."""
    return _fit(_stack_members([D]), labels, [C], epochs, seed)[0]


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


def fit_cross_validated(Ds, labels, grid, folds: int, seed: int,
                        epochs: int) -> list[LinearModel]:
    """One model per feature matrix in Ds, each at its own cross-validated C.

    The matrices share one shape and the labels; every fit runs
    ``epochs`` epochs, which, as in train_svm, has no default.  A
    member's C is the grid value with the best mean held-out accuracy
    over the folds, ties toward the smaller C (stronger regularization);
    the folds come from one seeded shuffle split into near-equal parts.
    Each model equals ``train_svm(D, labels, C, epochs, seed)`` at that
    C and carries the C's mean held-out accuracy as ``cv_acc``.  Every
    member's cross-validation runs in one kernel run per fold group and
    every final fit in one more.  A matrix that appears in Ds more than
    once (the same object, compared by identity) is fit once, and its one
    model is returned at each of its positions.
    """
    distinct = {id(D): D for D in Ds}  # first-seen order
    Xa = _stack_members(distinct.values())
    grid = sorted(float(c) for c in grid)
    means = _cv_accuracies(Xa, labels, grid, folds, seed, epochs).mean(axis=2)
    best = np.argmax(means, axis=1)  # first maximum
    models = _fit(Xa, labels, [grid[g] for g in best], epochs, seed)
    fitted = {key: dataclasses.replace(model, cv_acc=float(m[g]))
              for key, model, m, g in zip(distinct, models, means, best)}
    return [fitted[id(D)] for D in Ds]


def _cv_accuracies(Xa, labels, grid, folds: int, seed: int, epochs: int) -> np.ndarray:
    """Held-out accuracy (M, G, F) of every (member, C, fold) triple.

    Each entry equals a lone ``train_svm`` fit on the member's fold
    training rows.  Folds with the same training size and class count
    train in one lockstep kernel run for all members: the same seed and
    size give the same minibatches.
    """
    M, n = Xa.shape[:2]
    labels, _ = _check_labels(labels, n)
    if not grid:
        raise InvalidInputError("empty C grid")
    if folds < 2:
        raise InvalidInputError("need at least 2 folds")
    if folds > n:
        raise InvalidInputError("more folds than examples")

    # Xa is shuffled in place, one member at a time, and restored before
    # returning.  Fold f holds out the shuffled rows parts[f], a contiguous
    # block, and trains on the others in increasing order.
    perm = np.random.default_rng(seed).permutation(n)
    labels = labels[perm]
    parts = np.array_split(np.arange(n), folds)
    groups = {}
    for f in range(folds):
        train_idx = np.concatenate([parts[g] for g in range(folds) if g != f])
        _, K = _check_labels(labels[train_idx], len(train_idx))
        for C in grid:
            _check_fit(len(train_idx), K, C, epochs)
        groups.setdefault((len(train_idx), K), []).append((f, train_idx))

    G = len(grid)
    accs = np.empty((M, G, folds))
    for Xm in Xa:
        Xm[...] = Xm[perm]
    try:
        for (_, K), group in groups.items():
            rows = np.stack([train_idx for _, train_idx in group])
            Wa = _sgd(Xa, _signs(labels, K), rows, np.tile(grid, (M, 1)), epochs, seed)
            for (f, _), Wf in zip(group, Wa.swapaxes(0, 1)):
                test_idx = parts[f]
                for m, W in enumerate(Wf):
                    scores = Xa[m, test_idx, :-1] @ W[:, :-1].T + W[:, -1]
                    pred = scores.reshape(len(test_idx), G, K).argmax(axis=2)
                    accs[m, :, f] = (pred == labels[test_idx][:, None]).mean(axis=0)
    finally:
        inverse = np.argsort(perm)
        for Xm in Xa:
            Xm[...] = Xm[inverse]
    return accs
