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

One private kernel trains a stack of members that differ only in their
alignment weight, in lockstep on shared batches (the runner trains
``deep`` and ``deep-no-coral`` of a trial this way); ``train_joint`` is
its one-member case.  Each member equals its lone run bit for bit.
Apart from the optional accuracy curves, the numpy calls of a step do
not grow with the number of members: each layer is one buffer of every
member's weights and bias, the aligned members' covariances, losses and
gradients are formed as one stack, and batch positions are drawn once
per chunk of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import accuracy
from .errors import InvalidInputError, NumericalError
from .linalg import (DomainStats, _centred_covariance, as_feature_matrix, class_labels,
                     mean_and_covariance)

# Layer weight-init spread: the monitored (final) layer is deliberately
# started small so early alignment gradients do not swamp training.
FINAL_INIT_STD = 0.005
HIDDEN_INIT_STD = 0.05


@dataclass
class Network:
    """Feedforward net: list of (weights (d_in, d_out), bias) per layer.

    A ReLU follows every layer but the last; the final layer's width is
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
    """Joint-trainer settings: hidden-layer width (read where the network
    is built), SGD steps, step size, batch size, alignment-loss weight
    and momentum.  The defaults are tuned to the frozen benchmark shift.

    At this learning rate and momentum, larger alignment weights make
    training diverge on ``rotated_anisotropic_spec``: weight 5 raised
    NumericalError on 7 of data seeds 0-99 (trial 10 of the default
    experiment among them), weight 2 first at seed 370.  Weight 1 ran
    seeds 0-402 without divergence, and it keeps the paper's balance of
    the two losses at the end of training: over the last 50 iterations
    of trials 0-4, cross-entropy 0.090 against a weighted alignment loss
    of 0.064 (weight 5: 0.225 against 0.107)."""

    hidden: int = 16
    iterations: int = 400
    learning_rate: float = 0.05
    batch_size: int = 64
    coral_weight: float = 1.0
    momentum: float = 0.9

    def __post_init__(self):
        if self.hidden < 1:
            raise InvalidInputError("hidden width must be >= 1")
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise InvalidInputError("learning rate must be a finite number > 0")
        if self.batch_size < 2:
            raise InvalidInputError("batch size must be >= 2 (covariances need it)")
        if not 0 <= self.coral_weight < np.inf:
            raise InvalidInputError("alignment loss weight must be a finite number >= 0")
        if not 0 <= self.momentum < 1:
            raise InvalidInputError("momentum must lie in [0, 1)")


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


def _gap_loss(diff):
    """||C_S - C_T||_F^2 / (4 d^2) for diff = C_S - C_T, or one loss per
    matrix of a stack (..., d, d), each bit for bit its lone matrix's:
    every matrix's d^2 squares are summed as one contiguous row."""
    d = diff.shape[-1]
    squares = np.square(diff).reshape(diff.shape[:-2] + (d * d,))
    return np.add.reduce(squares, axis=-1) / (4.0 * d * d)


def _check_batches(S, T):
    """Two activation batches as validated feature matrices."""
    S = as_feature_matrix(S, "source batch")
    T = as_feature_matrix(T, "target batch")
    if S.shape[1] != T.shape[1]:
        raise InvalidInputError("batches must share the feature dimension")
    if S.shape[0] < 2 or T.shape[0] < 2:
        raise InvalidInputError("covariance needs at least 2 rows per batch")
    return S, T


def coral_loss(S, T) -> float:
    """||C_S - C_T||_F^2 / (4 d^2) over unbiased batch covariances."""
    S, T = _check_batches(S, T)
    return float(_gap_loss(_centred_covariance(S)[2] - _centred_covariance(T)[2]))


def coral_loss_and_grad(S, T) -> tuple[float, np.ndarray, np.ndarray]:
    """coral_loss and its analytic gradients w.r.t. both activation
    batches, from one covariance per batch."""
    S, T = _check_batches(S, T)
    _, Sc, cov_s = _centred_covariance(S)
    _, Tc, cov_t = _centred_covariance(T)
    diff = cov_s - cov_t
    d = diff.shape[0]
    grad_S = Sc @ diff / (d * d * (S.shape[0] - 1))
    grad_T = -(Tc @ diff) / (d * d * (T.shape[0] - 1))
    return float(_gap_loss(diff)), grad_S, grad_T


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
        std = FINAL_INIT_STD if i == len(widths) - 2 else HIDDEN_INIT_STD
        W = rng.normal(0.0, std, size=(widths[i], widths[i + 1]))
        layers.append((W, np.zeros(widths[i + 1])))
    return Network(layers=layers)


def _network_input(net: Network, X, name: str = "network input") -> np.ndarray:
    """X as a validated feature matrix of the network's input width."""
    X = as_feature_matrix(X, name)
    if X.shape[1] != net.in_dim:
        raise InvalidInputError(
            f"network expects input width {net.in_dim}, got {X.shape[1]}"
        )
    return X


def _forward(H, weights, biases):
    """Each layer's input, H first, and the logits of the layers' weights
    and biases: one network's on 2-D arrays, or a stack of slots' (the
    trainer's buffers).  Each bias is added, and the ReLU applied, in
    place on the layer's fresh product."""
    inputs = [H]
    for W, b in zip(weights[:-1], biases):
        Z = inputs[-1] @ W
        Z += b
        inputs.append(np.maximum(Z, 0.0, out=Z))
    logits = inputs[-1] @ weights[-1]
    logits += biases[-1]
    return inputs, logits


def forward(net: Network, X) -> np.ndarray:
    """The logits of the network for the rows of X, from the forward pass
    (``_forward``) that each training step also runs."""
    weights, biases = zip(*net.layers)
    return _forward(_network_input(net, X), weights, biases)[1]


# Training runs in chunks of steps whose batch positions are drawn, and
# whose loss terms are reduced, together; the buffers of one chunk hold
# at most this many entries (fewer steps per chunk for large batches).
_CHUNK_ENTRIES = 1 << 17

# Logit magnitudes past sqrt(float64 max) would overflow the covariance
# products; treat reaching that scale as divergence.
_DIVERGENCE_LIMIT = 1e150


class _Diverged(NumericalError):
    """Training diverged; ``member`` indexes the diverging member's weight
    in the ``weights`` of its ``_train_members`` run."""

    def __init__(self, message: str, member: int):
        super().__init__(message)
        self.member = member


def _check_not_diverged(logits, iteration: int, owners) -> None:
    """Raise _Diverged for the lowest member with a diverged slot (its
    source slot before its target slot) if any logit of ``logits`` (S, B,
    K) is not finite or past _DIVERGENCE_LIMIT; ``owners`` maps a slot
    to its member."""
    if np.maximum.reduce(np.abs(logits), axis=None) <= _DIVERGENCE_LIMIT:  # NaN fails
        return
    peaks = np.abs(logits).max(axis=(1, 2))
    bad = [s for s, p in enumerate(peaks) if not p <= _DIVERGENCE_LIMIT]  # NaN too
    slot = min(bad, key=lambda s: owners[s])  # slots list sources first
    raise _Diverged(
        f"training diverged at iteration {iteration}: logit magnitude "
        f"{peaks[slot]:.3g} (reduce the learning rate or the alignment weight)",
        owners[slot],
    )


def _softmax(logits):
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _score(logits, y) -> float:
    """Accuracy of the argmax of ``logits``, ties to the lowest class."""
    return accuracy(np.argmax(logits, axis=1), y)


def _full_data_gap(net: Network, X, Xt):
    """Full-data logits and their statistics for each domain, then the
    alignment loss between the two; without a target (Xt None) its logits
    and statistics are None and the loss NaN."""
    logits_s = forward(net, X)
    stats_s = mean_and_covariance(logits_s)
    if Xt is None:
        return logits_s, stats_s, None, None, float("nan")
    logits_t = forward(net, Xt)
    stats_t = mean_and_covariance(logits_t)
    return logits_s, stats_s, logits_t, stats_t, float(_gap_loss(stats_s.cov - stats_t.cov))


def _class_labels(labels, n: int, K: int, domain: str) -> np.ndarray:
    """One class index in [0, K) per row of the domain's n rows, as
    integers (linalg.class_labels, plus the bound K)."""
    y = class_labels(labels, n, f"{domain} labels")
    if y.max() >= K:
        raise InvalidInputError(f"{domain} labels must lie in [0, {K})")
    return y


def train_joint(
    net: Network,
    source,
    labels,
    target,
    cfg: TrainConfig,
    seed: int,
    target_labels=None,
    accuracy_curves: bool = False,
) -> tuple[Network, LossReport]:
    """Minimize CE + cfg.coral_weight * alignment loss, starting from a
    copy of ``net`` (``cfg.hidden`` is not read: ``net`` is built).

    Each step draws one labeled source batch and one unlabeled target
    batch (independent RNG streams from ``seed``, so the source draw
    sequence does not depend on whether alignment is active).  With
    coral_weight zero the target is never touched during training, so
    the network is bit-identical to source-only training, ``target``
    None.  ``target_labels`` (one per target row, in [0, K)) are used
    only to score the target.  The report's final accuracies are argmax
    scores of the trained network's full-data logits; its initial
    alignment distance comes from the initial network's.
    ``accuracy_curves`` adds a full-data accuracy pass after every step,
    for the per-iteration ``source_acc``/``target_acc`` curves; it
    changes no other output.
    """
    (run,) = _train_members(net, source, labels, target, cfg, (cfg.coral_weight,), seed,
                            target_labels, accuracy_curves)
    return run


def _train_members(net, source, labels, target, cfg: TrainConfig, weights, seed: int,
                   target_labels=None, accuracy_curves: bool = False) -> list:
    """train_joint for several alignment weights at once: one (network,
    LossReport) per entry of ``weights``, each bit for bit what
    train_joint gives with ``cfg.coral_weight`` set to it (the weight of
    ``cfg`` itself is not read).

    The members start from the same network and draw the same batches,
    so they train in lockstep.  Each member has one source slot, the
    members without alignment (zero weight or no target) first; each of
    the A aligned members (the last ones) also has one target slot, after
    all source slots.  Each layer is one buffer (slots, d_in + 1, d_out):
    a slot's weights in its first d_in rows and its bias in the last, a
    target slot mirroring its member's rows (copied after each update);
    the gradients and the members' momentum have the same layout.

    Training runs in chunks of steps.  A chunk draws its batch positions
    with one call per stream and gathers their rows; its steps'
    cross-entropy terms and covariance gaps are reduced together at its
    end.  A step copies its batches into one slot buffer and runs one
    forward and one backward pass over all slots.  The aligned members'
    source and target logits form one (2A, B, K) stack, whose covariances
    and gradients are formed together.  Each slot's products and
    reductions have a lone run's operand shapes, which keeps each member
    bitwise equal to its lone run.  A divergence raises _Diverged naming
    the member.
    """
    X = _network_input(net, source, "source features")
    n_s = X.shape[0]
    K = net.out_dim
    y = _class_labels(labels, n_s, K, "source")
    if cfg.batch_size > n_s:
        raise InvalidInputError("batch size exceeds source dataset size")

    Xt = as_feature_matrix(target, "target features") if target is not None else None
    yt = None
    if target_labels is not None:
        if Xt is None:
            raise InvalidInputError("target labels given without target features")
        yt = _class_labels(target_labels, Xt.shape[0], K, "target")
    # members without alignment first, so that the last A source slots and
    # the A target slots form one stack
    order = sorted(range(len(weights)), key=lambda m: Xt is not None and weights[m] != 0)
    w = [weights[m] for m in order]
    M = len(w)
    A = 0 if Xt is None else sum(v != 0 for v in w)
    U = M - A  # the first aligned member
    if A:
        if Xt.shape[1] != X.shape[1]:
            raise InvalidInputError("source and target dimensions differ")
        if cfg.batch_size > Xt.shape[0]:
            raise InvalidInputError("batch size exceeds target dataset size")

    initial_dist = _full_data_gap(net, X, Xt)[4]

    src_child, tgt_child = np.random.SeedSequence(seed).spawn(2)
    src_rng = np.random.default_rng(src_child)
    tgt_rng = np.random.default_rng(tgt_child)

    # trained in place; member m's network is a view of its slot's rows
    params = [np.repeat(np.vstack((W, b))[None], M + A, axis=0) for W, b in net.layers]
    weight_rows = [P[:, :-1] for P in params]
    bias_rows = [P[:, -1:] for P in params]
    grads = [np.empty_like(P) for P in params]
    velocity = [np.zeros_like(P[:M]) for P in params]
    works = [Network(layers=[(P[m, :-1], P[m, -1]) for P in params]) for m in range(M)]
    owners = order + order[U:]  # slot -> member, indexed as in weights
    batch = cfg.batch_size
    row_starts = (np.arange(M * batch) * K).reshape(M, batch)  # in probs.ravel()
    # each step's input batches: member slots, then target slots
    slots = np.empty((M + A, batch, X.shape[1]))
    d_logits = np.empty((M + A, batch, K))
    # the aligned members' weights, signed for their source and target slots
    signed_w = np.array([w[U:], [-v for v in w[U:]]])[:, :, None, None]

    # per chunk: the batch rows and the true classes' positions, then per
    # step the true classes' probabilities and the aligned members'
    # covariance gaps, logged and reduced together (one contiguous row
    # per member and step, summed pairwise as a lone run's mean and gap)
    step_entries = (2 * M + 2 * X.shape[1]) * batch + A * K * K
    chunk = min(cfg.iterations, max(1, _CHUNK_ENTRIES // step_entries))
    picked = np.empty((chunk, M, batch))
    diffs = np.empty((chunk, A, K, K))
    class_curve = np.empty((cfg.iterations, M))
    coral_curve = np.zeros((M, cfg.iterations))
    src_acc = np.zeros((M, cfg.iterations)) if accuracy_curves else None
    tgt_acc = np.full((M, cfg.iterations), np.nan) if accuracy_curves else None

    for start in range(0, cfg.iterations, chunk):
        steps = min(chunk, cfg.iterations - start)
        idx = src_rng.integers(0, n_s, size=(steps, batch))
        t_idx = tgt_rng.integers(0, Xt.shape[0], size=(steps, batch)) if A else None
        true_class = row_starts + y[idx][:, None]
        rows = X[idx]
        t_rows = Xt[t_idx] if A else None
        for j in range(steps):
            it = start + j
            slots[:M] = rows[j]
            if A:
                slots[M:] = t_rows[j]
            inputs, logits = _forward(slots, weight_rows, bias_rows)
            _check_not_diverged(logits, it, owners)

            probs = _softmax(logits[:M])
            np.take(probs, true_class[j], out=picked[j])
            probs.ravel()[true_class[j]] -= 1.0  # probs - onehot(labels)
            np.divide(probs, batch, out=d_logits[:M])
            if A:
                _, centred, cov = _centred_covariance(logits[U:])
                diff = np.subtract(cov[:A], cov[A:], out=diffs[j])
                g = centred.reshape(2, A, batch, K) @ diff
                g /= K * K * (batch - 1)
                g *= signed_w
                d_logits[U:M] += g[0]
                d_logits[M:] = g[1]

            dZ = d_logits
            for i in range(len(params) - 1, -1, -1):
                G = grads[i]
                np.matmul(inputs[i].swapaxes(-1, -2), dZ, out=G[:, :-1])
                np.add.reduce(dZ, axis=-2, keepdims=True, out=G[:, -1:])
                if i > 0:
                    dZ = (dZ @ weight_rows[i].swapaxes(-1, -2)) * (inputs[i] > 0.0)
                P, V = params[i], velocity[i]
                if A:
                    G[U:M] += G[M:]
                V *= cfg.momentum
                V -= cfg.learning_rate * G[:M]
                P[:M] += V
                if A:
                    P[M:] = P[U:M]

            if accuracy_curves:
                for m, work in enumerate(works):
                    src_acc[m, it] = _score(forward(work, X), y)
                    if yt is not None:
                        tgt_acc[m, it] = _score(forward(work, Xt), yt)

        logs = np.log(np.maximum(picked[:steps], 1e-300))
        class_curve[start:start + steps] = -(logs.sum(axis=-1) / batch)
        coral_curve[U:, start:start + steps] = _gap_loss(diffs[:steps]).T

    runs = [None] * M
    for m, work in enumerate(works):
        logits_s_full, stats_s, logits_t_full, stats_t, final_dist = _full_data_gap(
            work, X, Xt)
        runs[order[m]] = (work, LossReport(
            class_loss=class_curve[:, m].copy(),
            coral_loss=coral_curve[m],
            source_acc=None if src_acc is None else src_acc[m],
            target_acc=None if tgt_acc is None else tgt_acc[m],
            final_source_acc=_score(logits_s_full, y),
            final_target_acc=_score(logits_t_full, yt) if yt is not None else float("nan"),
            final_coral_distance=final_dist,
            initial_coral_distance=initial_dist,
            final_source_stats=stats_s,
            final_target_stats=stats_t,
        ))
    return runs
