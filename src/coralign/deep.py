"""Differentiable covariance-alignment loss and a small joint trainer.

The loss compares the unbiased covariances of two activation batches:

    loss = ||C_S - C_T||_F^2 / (4 d^2)

Its analytic gradient with respect to the source batch is
(1/(d^2 (n_S - 1))) * centered(D_S) @ (C_S - C_T); the target gradient is
the same expression with the opposite sign.  Differentiating the loss
through the covariance formula reproduces exactly this constant, and the
finite-difference verifier below is the arbiter should the transcription
ever drift.

The trainer runs a plain feedforward network (manual forward/backward,
SGD with momentum) on labeled source batches plus unlabeled target
batches, minimizing softmax cross-entropy + weighted alignment loss on
the final layer's outputs.  Network parameters are shared between the
two passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import as_feature_matrix, mean_and_covariance

# Layer weight-init spread: the monitored (final) layer is deliberately
# started small so early alignment gradients do not swamp training.
FINAL_INIT_STD = 0.005
HIDDEN_INIT_STD = 0.05


@dataclass
class Network:
    """Feedforward net: list of (weights (d_in, d_out), bias, activation).

    Activation tags are "relu" or "identity"; the final layer's width is
    the class count and its outputs (pre-softmax logits) are the
    activations monitored by the alignment loss.
    """

    layers: list

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]


@dataclass(frozen=True)
class TrainConfig:
    coral_weight: float
    learning_rate: float
    batch_size: int
    iterations: int
    seed: int
    momentum: float = 0.9
    class_loss_weight: float = 1.0

    def __post_init__(self):
        if self.coral_weight < 0:
            raise InvalidInputError("alignment loss weight must be >= 0")
        if self.batch_size < 2:
            raise InvalidInputError("batch size must be >= 2 (covariances need it)")
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")


@dataclass
class LossReport:
    """Per-iteration curves plus the end-of-training alignment distance."""

    class_loss: np.ndarray
    coral_loss: np.ndarray
    source_acc: np.ndarray
    target_acc: np.ndarray
    final_coral_distance: float


def coral_loss(S, T) -> float:
    """||C_S - C_T||_F^2 / (4 d^2) over unbiased batch covariances."""
    S = as_feature_matrix(S, "source batch")
    T = as_feature_matrix(T, "target batch")
    if S.shape[1] != T.shape[1]:
        raise InvalidInputError("batches must share the feature dimension")
    if S.shape[0] < 2 or T.shape[0] < 2:
        raise InvalidInputError("covariance needs at least 2 rows per batch")
    d = S.shape[1]
    diff = mean_and_covariance(S).cov - mean_and_covariance(T).cov
    return float(np.sum(diff * diff) / (4.0 * d * d))


def coral_loss_grad(S, T) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of coral_loss w.r.t. both activation batches."""
    S = as_feature_matrix(S, "source batch")
    T = as_feature_matrix(T, "target batch")
    if S.shape[1] != T.shape[1]:
        raise InvalidInputError("batches must share the feature dimension")
    if S.shape[0] < 2 or T.shape[0] < 2:
        raise InvalidInputError("covariance needs at least 2 rows per batch")
    d = S.shape[1]
    diff = mean_and_covariance(S).cov - mean_and_covariance(T).cov
    Sc = S - S.mean(axis=0)
    Tc = T - T.mean(axis=0)
    grad_S = Sc @ diff / (d * d * (S.shape[0] - 1))
    grad_T = -(Tc @ diff) / (d * d * (T.shape[0] - 1))
    return grad_S, grad_T


def finite_diff_check(S, T, step: float = 1e-5) -> float:
    """Worst relative error of the analytic gradient vs central differences.

    The per-entry denominator is max(|analytic|, |numeric|, floor).  The
    floor is the probe's own resolution limit: a central difference of a
    loss of magnitude L carries rounding noise of roughly eps*L/step, so
    entries smaller than eps*(1 + L)/step**2 cannot be distinguished
    from zero by this measurement and comparing against them would just
    report arithmetic noise.  A 1e-8 minimum keeps exact-zero gradients
    on an absolute scale.
    """
    if step <= 0:
        raise InvalidInputError("step must be positive")
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    grad_S, grad_T = coral_loss_grad(S, T)
    eps = np.finfo(float).eps
    floor = max(1e-8, eps * (1.0 + abs(coral_loss(S, T))) / step**2)
    worst = 0.0
    for X, G, other, is_source in ((S, grad_S, T, True), (T, grad_T, S, False)):
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                up = X.copy()
                up[i, j] += step
                dn = X.copy()
                dn[i, j] -= step
                if is_source:
                    num = (coral_loss(up, other) - coral_loss(dn, other)) / (2 * step)
                else:
                    num = (coral_loss(other, up) - coral_loss(other, dn)) / (2 * step)
                denom = max(abs(G[i, j]), abs(num), floor)
                worst = max(worst, abs(G[i, j] - num) / denom)
    return worst


def init_network(widths, seed: int, final_std: float = FINAL_INIT_STD,
                 hidden_std: float = HIDDEN_INIT_STD) -> Network:
    """Gaussian-initialized network with zero biases, deterministic per seed."""
    if len(widths) < 2:
        raise InvalidInputError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        std = final_std if last else hidden_std
        W = rng.normal(0.0, std, size=(widths[i], widths[i + 1]))
        b = np.zeros(widths[i + 1])
        layers.append((W, b, "identity" if last else "relu"))
    return Network(layers=layers)


def forward(net: Network, X) -> tuple[np.ndarray, list]:
    """Logits and the per-layer cache (input, pre-activation) for backprop."""
    X = as_feature_matrix(X, "network input")
    if X.shape[1] != net.in_dim:
        raise InvalidInputError(
            f"network expects input width {net.in_dim}, got {X.shape[1]}"
        )
    cache = []
    A = X
    for W, b, act in net.layers:
        Z = A @ W + b
        cache.append((A, Z))
        if act == "relu":
            A = np.maximum(Z, 0.0)
        elif act == "identity":
            A = Z
        else:
            raise InvalidInputError(f"unknown activation {act!r}")
    return A, cache


def _backward(net: Network, cache, d_logits) -> list:
    """Gradients (dW, db) per layer for a given gradient at the logits."""
    grads = [None] * len(net.layers)
    dA = d_logits
    for i in range(len(net.layers) - 1, -1, -1):
        W, _, act = net.layers[i]
        A_in, Z = cache[i]
        dZ = dA * (Z > 0.0) if act == "relu" else dA
        grads[i] = (A_in.T @ dZ, dZ.sum(axis=0))
        if i > 0:
            dA = dZ @ W.T
    return grads


# Logit magnitudes past sqrt(float64 max) would overflow the covariance
# products; treat reaching that scale as divergence.
_DIVERGENCE_LIMIT = 1e150


def _check_not_diverged(logits, iteration: int) -> None:
    peak = np.abs(logits).max()
    if not np.isfinite(peak) or peak > _DIVERGENCE_LIMIT:
        raise NumericalError(
            f"training diverged at iteration {iteration}: logit magnitude "
            f"{peak:.3g} (reduce the learning rate or the alignment weight)"
        )


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def network_predict(net: Network, X) -> np.ndarray:
    logits, _ = forward(net, X)
    return np.argmax(logits, axis=1)


def _accuracy(net: Network, X, y) -> float:
    return float(np.mean(network_predict(net, X) == y))


def train_joint(
    net: Network,
    source,
    labels,
    target,
    cfg: TrainConfig,
    target_labels=None,
) -> tuple[Network, LossReport]:
    """Minimize class_loss_weight * CE + coral_weight * alignment loss.

    Each step draws one labeled source batch and one unlabeled target
    batch (independent RNG streams, so the source draw sequence does not
    depend on whether alignment is active).  With coral_weight zero the
    target is never touched and the run is bit-identical to
    train_classifier.  ``target_labels``, when given, are used only to
    report per-iteration target accuracy.
    """
    return _train(net, source, labels, target, cfg, target_labels)


def train_classifier(net: Network, source, labels, cfg: TrainConfig):
    """Source-only cross-entropy training; same loop minus the target pass."""
    return _train(net, source, labels, None, cfg, None)


def _train(net, source, labels, target, cfg, target_labels):
    X = as_feature_matrix(source, "source features")
    y = np.asarray(labels)
    n_s = X.shape[0]
    if y.shape != (n_s,):
        raise InvalidInputError("labels must align with source rows")
    K = net.out_dim
    if y.min() < 0 or y.max() >= K:
        raise InvalidInputError(f"labels must lie in [0, {K})")
    if cfg.batch_size > n_s:
        raise InvalidInputError("batch size exceeds source dataset size")

    Xt = as_feature_matrix(target, "target features") if target is not None else None
    use_coral = Xt is not None and cfg.coral_weight != 0
    if use_coral:
        if Xt.shape[1] != X.shape[1]:
            raise InvalidInputError("source and target dimensions differ")
        if cfg.batch_size > Xt.shape[0]:
            raise InvalidInputError("batch size exceeds target dataset size")

    ss = np.random.SeedSequence(cfg.seed)
    src_child, tgt_child = ss.spawn(2)
    src_rng = np.random.default_rng(src_child)
    tgt_rng = np.random.default_rng(tgt_child)

    layers = [(W.copy(), b.copy(), act) for W, b, act in net.layers]
    work = Network(layers=layers)
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b, _ in layers]
    onehot = np.eye(K)

    class_curve = np.zeros(cfg.iterations)
    coral_curve = np.zeros(cfg.iterations)
    src_acc = np.zeros(cfg.iterations)
    tgt_acc = np.full(cfg.iterations, np.nan)

    for it in range(cfg.iterations):
        idx = src_rng.integers(0, n_s, size=cfg.batch_size)
        logits_s, cache_s = forward(work, X[idx])
        _check_not_diverged(logits_s, it)
        probs = _softmax(logits_s)
        yb = y[idx]
        ce = float(-np.mean(np.log(np.maximum(probs[np.arange(len(yb)), yb], 1e-300))))
        d_logits_s = cfg.class_loss_weight * (probs - onehot[yb]) / len(yb)

        grads_t = None
        if use_coral:
            t_idx = tgt_rng.integers(0, Xt.shape[0], size=cfg.batch_size)
            logits_t, cache_t = forward(work, Xt[t_idx])
            _check_not_diverged(logits_t, it)
            coral_curve[it] = coral_loss(logits_s, logits_t)
            g_s, g_t = coral_loss_grad(logits_s, logits_t)
            d_logits_s = d_logits_s + cfg.coral_weight * g_s
            grads_t = _backward(work, cache_t, cfg.coral_weight * g_t)

        grads = _backward(work, cache_s, d_logits_s)
        if grads_t is not None:
            grads = [(gW + hW, gb + hb) for (gW, gb), (hW, hb) in zip(grads, grads_t)]

        new_layers = []
        for li, ((W, b, act), (gW, gb), (vW, vb)) in enumerate(
            zip(work.layers, grads, velocity)
        ):
            vW = cfg.momentum * vW - cfg.learning_rate * gW
            vb = cfg.momentum * vb - cfg.learning_rate * gb
            velocity[li] = (vW, vb)
            new_layers.append((W + vW, b + vb, act))
        work = Network(layers=new_layers)

        class_curve[it] = ce
        src_acc[it] = _accuracy(work, X, y)
        if target_labels is not None and Xt is not None:
            tgt_acc[it] = _accuracy(work, Xt, target_labels)

    if Xt is not None:
        logits_s_full, _ = forward(work, X)
        logits_t_full, _ = forward(work, Xt)
        final_dist = coral_loss(logits_s_full, logits_t_full)
    else:
        final_dist = float("nan")

    report = LossReport(
        class_loss=class_curve,
        coral_loss=coral_curve,
        source_acc=src_acc,
        target_acc=tgt_acc,
        final_coral_distance=final_dist,
    )
    return work, report
