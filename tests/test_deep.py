"""Tests for the differentiable covariance-distance loss and the small
joint-training loop.

The gradient oracle is an in-test central-difference loop, independent
of the module's own verifier.  Forward passes are checked against
per-neuron scalar loops.
"""

import numpy as np
import pytest

from coralign.deep import (
    LossReport,
    Network,
    TrainConfig,
    coral_loss,
    coral_loss_grad,
    finite_diff_check,
    forward,
    init_network,
    network_predict,
    train_classifier,
    train_joint,
)
from coralign.errors import InvalidInputError


def fd_grad(loss_fn, X, step=1e-5):
    """Oracle: central differences on every coordinate of X."""
    G = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            up = X.copy()
            up[i, j] += step
            dn = X.copy()
            dn[i, j] -= step
            G[i, j] = (loss_fn(up) - loss_fn(dn)) / (2 * step)
    return G


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return (np.abs(a - b) / denom).max()


def shifted_blobs(rng, n=120, d=6, K=3, sep=3.0):
    """Labeled source and a covariance-shifted unlabeled target."""
    means = rng.standard_normal((K, d))
    means *= sep / np.linalg.norm(means, axis=1, keepdims=True)
    y = np.repeat(np.arange(K), n // K)
    Xs = means[y] + rng.standard_normal((len(y), d))
    M = rng.standard_normal((d, d)) * 0.3 + np.eye(d)
    yt = np.repeat(np.arange(K), n // K)
    Xt = (means[yt] + rng.standard_normal((len(yt), d))) @ M.T
    return Xs, y, Xt, yt


class TestCoralLoss:
    def test_identical_batches(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        assert coral_loss(X, X.copy()) == 0.0

    def test_scalar_variance_formula(self):
        # d = 1: loss = (var_S - var_T)^2 / 4 with unbiased variances
        S = np.array([[1.0], [-1.0]])  # variance 2
        T = np.array([[0.5], [-0.5]])  # variance 0.5
        assert coral_loss(S, T) == pytest.approx((2.0 - 0.5) ** 2 / 4.0, rel=1e-12)

    def test_matches_covariance_composition_oracle(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((12, 5))
        T = rng.standard_normal((9, 5))
        Cs = np.cov(S, rowvar=False)
        Ct = np.cov(T, rowvar=False)
        want = np.sum((Cs - Ct) ** 2) / (4 * 25)
        assert coral_loss(S, T) == pytest.approx(want, abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((8, 3))
        T = rng.standard_normal((11, 3))
        assert abs(coral_loss(S, T) - coral_loss(T, S)) <= 1e-12

    def test_single_row_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInputError):
            coral_loss(rng.standard_normal((1, 3)), rng.standard_normal((5, 3)))


class TestCoralLossGrad:
    def test_identical_batches_zero_gradient(self):
        X = np.random.default_rng(4).standard_normal((7, 3))
        Gs, Gt = coral_loss_grad(X, X.copy())
        np.testing.assert_allclose(Gs, np.zeros_like(X), atol=1e-15)
        np.testing.assert_allclose(Gt, np.zeros_like(X), atol=1e-15)

    def test_matches_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            S = rng.standard_normal((8, 5))
            T = rng.standard_normal((8, 5))
            Gs, Gt = coral_loss_grad(S, T)
            assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5
            assert rel_err(Gt, fd_grad(lambda X: coral_loss(S, X), T)) <= 1e-5

    def test_rectangular_batch_sizes(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((4, 2))
        T = rng.standard_normal((32, 2))
        Gs, Gt = coral_loss_grad(S, T)
        assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5
        assert rel_err(Gt, fd_grad(lambda X: coral_loss(S, X), T)) <= 1e-5

    def test_doubled_inputs_still_consistent(self):
        rng = np.random.default_rng(6)
        S = 2.0 * rng.standard_normal((8, 5))
        T = rng.standard_normal((8, 5))
        Gs, _ = coral_loss_grad(S, T)
        assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5

    def test_target_gradient_carries_opposite_sign(self):
        # with S = c T the covariance difference is definite, and target
        # rows move opposite to where source rows would move
        rng = np.random.default_rng(7)
        T = rng.standard_normal((10, 3))
        S = 2.0 * T
        Gs, Gt = coral_loss_grad(S, T)
        # both push toward shrinking the covariance gap: check via a small step
        step = 1e-3
        assert coral_loss(S - step * Gs, T) < coral_loss(S, T)
        assert coral_loss(S, T - step * Gt) < coral_loss(S, T)


class TestForward:
    def test_single_identity_layer(self):
        net = Network(layers=[(np.eye(3), np.zeros(3), "identity")])
        X = np.random.default_rng(9).standard_normal((5, 3))
        logits, _ = forward(net, X)
        np.testing.assert_allclose(logits, X, atol=1e-12)

    def test_zero_weights_emit_bias(self):
        b = np.array([0.5, -1.5])
        net = Network(layers=[(np.zeros((4, 2)), b, "identity")])
        logits, _ = forward(net, np.random.default_rng(10).standard_normal((6, 4)))
        np.testing.assert_allclose(logits, np.tile(b, (6, 1)), atol=1e-12)

    def test_two_layer_relu_matches_neuron_loop(self):
        rng = np.random.default_rng(11)
        W1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
        W2, b2 = rng.standard_normal((6, 3)), rng.standard_normal(3)
        net = Network(layers=[(W1, b1, "relu"), (W2, b2, "identity")])
        X = rng.standard_normal((7, 4))
        logits, _ = forward(net, X)
        for i in range(7):
            hidden = np.zeros(6)
            for j in range(6):
                z = b1[j]
                for k in range(4):
                    z += X[i, k] * W1[k, j]
                hidden[j] = max(z, 0.0)
            for j in range(3):
                z = b2[j]
                for k in range(6):
                    z += hidden[k] * W2[k, j]
                assert logits[i, j] == pytest.approx(z, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        net = Network(layers=[(np.eye(3), np.zeros(3), "identity")])
        with pytest.raises(InvalidInputError):
            forward(net, np.zeros((2, 4)))


class TestFiniteDiffCheck:
    def test_identical_batches_noise_bounded(self):
        # analytic gradient is exactly zero here, so the check reports
        # finite-difference rounding noise over the resolution-limit
        # denominator floor; that ratio stays far below any real mismatch
        X = np.random.default_rng(12).standard_normal((6, 3))
        assert finite_diff_check(X, X.copy(), step=1e-5) <= 1e-3

    def test_random_batches_pass_threshold(self):
        rng = np.random.default_rng(13)
        S = rng.standard_normal((8, 5))
        T = rng.standard_normal((8, 5))
        assert finite_diff_check(S, T, step=1e-5) <= 1e-5

    def test_coarse_step_worse_than_fine(self):
        rng = np.random.default_rng(14)
        S = rng.standard_normal((6, 4))
        T = rng.standard_normal((6, 4))
        assert finite_diff_check(S, T, step=1e-1) > finite_diff_check(S, T, step=1e-5)


class TestTraining:
    def _cfg(self, **kw):
        base = dict(
            coral_weight=1.0,
            learning_rate=0.05,
            batch_size=32,
            iterations=60,
            seed=0,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_weight_reduces_to_classifier_only(self):
        rng = np.random.default_rng(15)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net0 = init_network([6, 8, 3], seed=42)
        net1 = init_network([6, 8, 3], seed=42)
        cfg = self._cfg(coral_weight=0.0)
        trained_joint, _ = train_joint(net0, Xs, y, Xt, cfg)
        trained_plain, _ = train_classifier(net1, Xs, y, cfg)
        for (Wa, ba, _), (Wb, bb, _) in zip(trained_joint.layers, trained_plain.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(16)
        Xs, y, Xt, yt = shifted_blobs(rng)
        out = []
        for _ in range(2):
            net = init_network([6, 8, 3], seed=7)
            _, report = train_joint(net, Xs, y, Xt, self._cfg(seed=3), target_labels=yt)
            out.append(report)
        a, b = out
        np.testing.assert_array_equal(a.class_loss, b.class_loss)
        np.testing.assert_array_equal(a.coral_loss, b.coral_loss)
        np.testing.assert_array_equal(a.source_acc, b.source_acc)
        np.testing.assert_array_equal(a.target_acc, b.target_acc)

    def test_report_lengths_match_iterations(self):
        rng = np.random.default_rng(17)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net = init_network([6, 8, 3], seed=1)
        cfg = self._cfg(iterations=25)
        _, report = train_joint(net, Xs, y, Xt, cfg)
        assert len(report.class_loss) == 25
        assert report.coral_loss.shape == (25,)
        assert len(report.source_acc) == 25
        assert len(report.target_acc) == 25

    def test_training_learns_separable_source(self):
        rng = np.random.default_rng(18)
        Xs, y, Xt, _ = shifted_blobs(rng, sep=5.0)
        net = init_network([6, 8, 3], seed=2)
        cfg = self._cfg(coral_weight=0.0, iterations=300, learning_rate=0.1)
        net, report = train_joint(net, Xs, y, Xt, cfg)
        assert report.source_acc[-1] >= 0.95

    def test_pure_coral_objective_collapses_class_structure(self):
        # with the classification term switched off and a large weight, the
        # covariance gap shrinks while source accuracy decays to near-chance
        rng = np.random.default_rng(19)
        Xs, y, Xt, _ = shifted_blobs(rng, sep=4.0)
        net = init_network([6, 8, 3], seed=5)
        cfg = self._cfg(
            coral_weight=50.0,
            class_loss_weight=0.0,
            iterations=400,
            learning_rate=0.1,
        )
        net, report = train_joint(net, Xs, y, Xt, cfg)
        assert report.coral_loss[-1] < report.coral_loss[0]
        assert report.source_acc[-1] <= 1.0 / 3.0 + 0.15

    def test_divergence_raises_numerical_error(self):
        from coralign.errors import NumericalError

        rng = np.random.default_rng(21)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net = init_network([6, 8, 3], seed=1)
        cfg = self._cfg(learning_rate=1e150, iterations=30)
        with pytest.raises(NumericalError, match="diverged"):
            train_joint(net, Xs, y, Xt, cfg)

    def test_batch_larger_than_dataset_rejected(self):
        rng = np.random.default_rng(20)
        Xs, y, Xt, _ = shifted_blobs(rng, n=30)
        net = init_network([6, 8, 3], seed=0)
        with pytest.raises(InvalidInputError):
            train_joint(net, Xs, y, Xt, self._cfg(batch_size=1000))

    def test_network_predict_argmax(self):
        net = Network(layers=[(np.eye(3), np.zeros(3), "identity")])
        X = np.array([[0.1, 0.9, 0.0], [2.0, -1.0, 0.5]])
        np.testing.assert_array_equal(network_predict(net, X), [1, 0])
