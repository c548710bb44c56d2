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
two passes.  Final source and target accuracies come from the same
full-data logits as the end-of-training alignment distance; the
per-iteration accuracy curves, one full-data pass per step, are
computed only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DomainStats, _centred_covariance, as_feature_matrix, mean_and_covariance

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
    """Per-iteration loss curves, end-of-training accuracies and alignment
    distances.

    ``source_acc``/``target_acc`` are per-iteration accuracy curves when
    training was asked for them and None otherwise.  ``final_source_acc``
    and ``final_target_acc`` (NaN without target labels) score the
    trained network.  ``final_source_stats``/``final_target_stats`` are
    the mean and covariance of its full-data logits, and
    ``final_coral_distance`` is the alignment loss between them;
    ``initial_coral_distance`` is the same loss for the initial network.
    Without a target the target statistics are None and both distances
    NaN.
    """

    class_loss: np.ndarray
    coral_loss: np.ndarray
    source_acc: Optional[np.ndarray]
    target_acc: Optional[np.ndarray]
    final_source_acc: float
    final_target_acc: float
    final_coral_distance: float
    initial_coral_distance: float
    final_source_stats: DomainStats
    final_target_stats: Optional[DomainStats]


def _gap_loss(diff) -> float:
    """||C_S - C_T||_F^2 / (4 d^2) for diff = C_S - C_T."""
    d = diff.shape[0]
    return float(np.sum(diff * diff) / (4.0 * d * d))


def _check_batches(S, T):
    """Two activation batches as validated feature matrices."""
    S = as_feature_matrix(S, "source batch")
    T = as_feature_matrix(T, "target batch")
    if S.shape[1] != T.shape[1]:
        raise InvalidInputError("batches must share the feature dimension")
    if S.shape[0] < 2 or T.shape[0] < 2:
        raise InvalidInputError("covariance needs at least 2 rows per batch")
    return S, T


def _covariance_gap(S, T):
    """Centred batches, C_S - C_T, and the loss ||C_S - C_T||_F^2 / (4 d^2)
    for checked batches."""
    _, Sc, cov_s = _centred_covariance(S)
    _, Tc, cov_t = _centred_covariance(T)
    diff = cov_s - cov_t
    return Sc, Tc, diff, _gap_loss(diff)


def _loss_and_grad(S, T) -> tuple[float, np.ndarray, np.ndarray]:
    """coral_loss_and_grad for checked batches."""
    Sc, Tc, diff, loss = _covariance_gap(S, T)
    d = S.shape[1]
    grad_S = Sc @ diff / (d * d * (S.shape[0] - 1))
    grad_T = -(Tc @ diff) / (d * d * (T.shape[0] - 1))
    return loss, grad_S, grad_T


def coral_loss(S, T) -> float:
    """||C_S - C_T||_F^2 / (4 d^2) over unbiased batch covariances."""
    return _covariance_gap(*_check_batches(S, T))[3]


def coral_loss_and_grad(S, T) -> tuple[float, np.ndarray, np.ndarray]:
    """coral_loss and its analytic gradients w.r.t. both activation
    batches, from one covariance per batch."""
    return _loss_and_grad(*_check_batches(S, T))


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
    loss, grad_S, grad_T = coral_loss_and_grad(S, T)
    eps = np.finfo(float).eps
    floor = max(1e-8, eps * (1.0 + abs(loss)) / step**2)
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


def init_network(widths, seed: int) -> Network:
    """Gaussian-initialized network with zero biases, deterministic per seed."""
    if len(widths) < 2:
        raise InvalidInputError("need at least input and output widths")
    if min(widths) < 1:
        raise InvalidInputError(f"every layer width must be >= 1, got {list(widths)}")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        std = FINAL_INIT_STD if last else HIDDEN_INIT_STD
        W = rng.normal(0.0, std, size=(widths[i], widths[i + 1]))
        b = np.zeros(widths[i + 1])
        layers.append((W, b, "identity" if last else "relu"))
    return Network(layers=layers)


def _network_input(net: Network, X, name: str = "network input") -> np.ndarray:
    """X as a validated feature matrix of the network's input width."""
    X = as_feature_matrix(X, name)
    if X.shape[1] != net.in_dim:
        raise InvalidInputError(
            f"network expects input width {net.in_dim}, got {X.shape[1]}"
        )
    return X


def forward(net: Network, X) -> tuple[np.ndarray, list]:
    """Logits and the per-layer cache (input, pre-activation) for backprop."""
    return _forward(net, _network_input(net, X))


def _forward(net: Network, X) -> tuple[np.ndarray, list]:
    """forward on rows already checked by _network_input."""
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


def _score(logits, y) -> float:
    """Accuracy of the argmax of ``logits``: what network_predict gives."""
    return float(np.mean(np.argmax(logits, axis=1) == y))


def _full_data_gap(net: Network, X, Xt):
    """Full-data logits and their statistics for each domain, then the
    alignment loss between the two; without a target (Xt None) its logits
    and statistics are None and the loss NaN."""
    logits_s, _ = forward(net, X)
    stats_s = mean_and_covariance(logits_s)
    if Xt is None:
        return logits_s, stats_s, None, None, float("nan")
    logits_t, _ = forward(net, Xt)
    stats_t = mean_and_covariance(logits_t)
    return logits_s, stats_s, logits_t, stats_t, _gap_loss(stats_s.cov - stats_t.cov)


def train_joint(
    net: Network,
    source,
    labels,
    target,
    cfg: TrainConfig,
    target_labels=None,
    accuracy_curves: bool = False,
) -> tuple[Network, LossReport]:
    """Minimize class_loss_weight * CE + coral_weight * alignment loss.

    Each step draws one labeled source batch and one unlabeled target
    batch (independent RNG streams, so the source draw sequence does not
    depend on whether alignment is active).  With coral_weight zero the
    target is never touched during training, so the network is
    bit-identical to source-only training, ``target`` None.
    ``target_labels`` (one per target row, in [0, K)) are used only to
    score the target.  The report's final accuracies are argmax scores of
    the trained network's full-data logits; its initial alignment
    distance comes from the initial network's.  ``accuracy_curves`` adds a
    full-data accuracy pass after every step, for the per-iteration
    ``source_acc``/``target_acc`` curves; it changes no other output.
    """
    X = _network_input(net, source, "source features")
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
    yt = None
    if target_labels is not None:
        if Xt is None:
            raise InvalidInputError("target labels given without target features")
        yt = np.asarray(target_labels)
        if yt.shape != (Xt.shape[0],):
            raise InvalidInputError("target labels must align with target rows")
        if yt.min() < 0 or yt.max() >= K:
            raise InvalidInputError(f"target labels must lie in [0, {K})")
    use_coral = Xt is not None and cfg.coral_weight != 0
    if use_coral:
        if Xt.shape[1] != X.shape[1]:
            raise InvalidInputError("source and target dimensions differ")
        if cfg.batch_size > Xt.shape[0]:
            raise InvalidInputError("batch size exceeds target dataset size")

    initial_dist = _full_data_gap(net, X, Xt)[4]

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
    src_acc = np.zeros(cfg.iterations) if accuracy_curves else None
    tgt_acc = np.full(cfg.iterations, np.nan) if accuracy_curves else None

    for it in range(cfg.iterations):
        idx = src_rng.integers(0, n_s, size=cfg.batch_size)
        # rows of the checked X and Xt, and logits _check_not_diverged
        # has checked, skip the public functions' validation
        logits_s, cache_s = _forward(work, X[idx])
        _check_not_diverged(logits_s, it)
        probs = _softmax(logits_s)
        yb = y[idx]
        ce = float(-np.mean(np.log(np.maximum(probs[np.arange(len(yb)), yb], 1e-300))))
        d_logits_s = cfg.class_loss_weight * (probs - onehot[yb]) / len(yb)

        grads_t = None
        if use_coral:
            t_idx = tgt_rng.integers(0, Xt.shape[0], size=cfg.batch_size)
            logits_t, cache_t = _forward(work, Xt[t_idx])
            _check_not_diverged(logits_t, it)
            coral_curve[it], g_s, g_t = _loss_and_grad(logits_s, logits_t)
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
        if accuracy_curves:
            src_acc[it] = _score(forward(work, X)[0], y)
            if yt is not None:
                tgt_acc[it] = _score(forward(work, Xt)[0], yt)

    logits_s_full, stats_s, logits_t_full, stats_t, final_dist = _full_data_gap(
        work, X, Xt)
    final_src = _score(logits_s_full, y)
    final_tgt = _score(logits_t_full, yt) if yt is not None else float("nan")

    report = LossReport(
        class_loss=class_curve,
        coral_loss=coral_curve,
        source_acc=src_acc,
        target_acc=tgt_acc,
        final_source_acc=final_src,
        final_target_acc=final_tgt,
        final_coral_distance=final_dist,
        initial_coral_distance=initial_dist,
        final_source_stats=stats_s,
        final_target_stats=stats_t,
    )
    return work, report
