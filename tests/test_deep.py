"""Tests for the differentiable covariance-distance loss and the small
joint-training loop.

The gradient oracle is an in-test central-difference loop, independent
of the module's own verifier.  Forward passes are checked against
per-neuron scalar loops.  The lockstep trainer is checked, member by
member, against lone train_joint runs and against an in-test loop that
trains one network on 2-D arrays, with separate source and target
passes.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from coralign import deep as deep_mod
from coralign.deep import (
    LossReport,
    Network,
    TrainConfig,
    coral_loss,
    coral_loss_and_grad,
    finite_diff_check,
    forward,
    init_network,
    train_joint,
)
from coralign.errors import InvalidInputError
from coralign.linalg import DomainStats, mean_and_covariance


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

    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_gap_loss_of_a_stack_equals_each_matrix_bit_for_bit(self, K):
        # a (steps, A, K, K) stack, as the trainer reduces a chunk's gaps;
        # each lone matrix also against the whole-array reduce
        diffs = np.random.default_rng(4).standard_normal((7, 3, K, K))
        got = deep_mod._gap_loss(diffs)
        assert got.shape == (7, 3)
        for s in range(7):
            for a in range(3):
                want = deep_mod._gap_loss(diffs[s, a])
                assert got[s, a].tobytes() == want.tobytes()
                whole = np.add.reduce(diffs[s, a] * diffs[s, a], axis=None) / (4.0 * K * K)
                assert want.tobytes() == whole.tobytes()


class TestCoralLossGrad:
    def test_identical_batches_zero_gradient(self):
        X = np.random.default_rng(4).standard_normal((7, 3))
        _, Gs, Gt = coral_loss_and_grad(X, X.copy())
        np.testing.assert_allclose(Gs, np.zeros_like(X), atol=1e-15)
        np.testing.assert_allclose(Gt, np.zeros_like(X), atol=1e-15)

    def test_matches_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            S = rng.standard_normal((8, 5))
            T = rng.standard_normal((8, 5))
            _, Gs, Gt = coral_loss_and_grad(S, T)
            assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5
            assert rel_err(Gt, fd_grad(lambda X: coral_loss(S, X), T)) <= 1e-5

    def test_rectangular_batch_sizes(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((4, 2))
        T = rng.standard_normal((32, 2))
        _, Gs, Gt = coral_loss_and_grad(S, T)
        assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5
        assert rel_err(Gt, fd_grad(lambda X: coral_loss(S, X), T)) <= 1e-5

    def test_doubled_inputs_still_consistent(self):
        rng = np.random.default_rng(6)
        S = 2.0 * rng.standard_normal((8, 5))
        T = rng.standard_normal((8, 5))
        _, Gs, _ = coral_loss_and_grad(S, T)
        assert rel_err(Gs, fd_grad(lambda X: coral_loss(X, T), S)) <= 1e-5

    def test_target_gradient_carries_opposite_sign(self):
        # with S = c T the covariance difference is definite, and target
        # rows move opposite to where source rows would move
        rng = np.random.default_rng(7)
        T = rng.standard_normal((10, 3))
        S = 2.0 * T
        _, Gs, Gt = coral_loss_and_grad(S, T)
        # both push toward shrinking the covariance gap: check via a small step
        step = 1e-3
        assert coral_loss(S - step * Gs, T) < coral_loss(S, T)
        assert coral_loss(S, T - step * Gt) < coral_loss(S, T)

    def test_fused_loss_is_coral_loss(self):
        rng = np.random.default_rng(8)
        S = rng.standard_normal((16, 4))
        T = 1.5 * rng.standard_normal((9, 4))
        loss, _, _ = coral_loss_and_grad(S, T)
        assert loss == coral_loss(S, T)  # bit-identical


class TestForward:
    def test_single_identity_layer(self):
        net = Network(layers=[(np.eye(3), np.zeros(3))])
        X = np.random.default_rng(9).standard_normal((5, 3))
        logits = forward(net, X)
        np.testing.assert_allclose(logits, X, atol=1e-12)

    def test_zero_weights_emit_bias(self):
        b = np.array([0.5, -1.5])
        net = Network(layers=[(np.zeros((4, 2)), b)])
        logits = forward(net, np.random.default_rng(10).standard_normal((6, 4)))
        np.testing.assert_allclose(logits, np.tile(b, (6, 1)), atol=1e-12)

    def test_two_layer_relu_matches_neuron_loop(self):
        rng = np.random.default_rng(11)
        W1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
        W2, b2 = rng.standard_normal((6, 3)), rng.standard_normal(3)
        net = Network(layers=[(W1, b1), (W2, b2)])
        X = rng.standard_normal((7, 4))
        logits = forward(net, X)
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
        net = Network(layers=[(np.eye(3), np.zeros(3))])
        with pytest.raises(InvalidInputError):
            forward(net, np.zeros((2, 4)))


class TestInitNetwork:
    @pytest.mark.parametrize("widths", [[6], [6, 0, 3], [0, 8, 3], [6, 8, 0]])
    def test_degenerate_widths_rejected(self, widths):
        with pytest.raises(InvalidInputError):
            init_network(widths, seed=0)


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


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("hidden", 0), ("iterations", 0), ("learning_rate", 0.0),
        ("learning_rate", -0.05), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("batch_size", 1), ("coral_weight", -1.0),
        ("coral_weight", float("nan")), ("coral_weight", float("inf")), ("momentum", 1.0),
        ("momentum", -0.1),
    ])
    def test_bad_setting_rejected_when_built(self, field, value):
        with pytest.raises(InvalidInputError):
            TrainConfig(**{field: value})

    def test_boundary_settings_accepted(self):
        TrainConfig(hidden=1, iterations=1, batch_size=2, coral_weight=0.0, momentum=0.0)


class TestTraining:
    def _cfg(self, **kw):
        return TrainConfig(**{"hidden": 8, "batch_size": 32, "iterations": 60, **kw})

    def test_zero_weight_reduces_to_classifier_only(self):
        rng = np.random.default_rng(15)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net0 = init_network([6, 8, 3], seed=42)
        net1 = init_network([6, 8, 3], seed=42)
        cfg = self._cfg(coral_weight=0.0)
        trained_joint, _ = train_joint(net0, Xs, y, Xt, cfg, 0)
        trained_plain, _ = train_joint(net1, Xs, y, None, cfg, 0)
        for (Wa, ba), (Wb, bb) in zip(trained_joint.layers, trained_plain.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(16)
        Xs, y, Xt, yt = shifted_blobs(rng)
        out = []
        for _ in range(2):
            net = init_network([6, 8, 3], seed=7)
            _, report = train_joint(net, Xs, y, Xt, self._cfg(), 3,
                                    target_labels=yt, accuracy_curves=True)
            out.append(report)
        a, b = out
        np.testing.assert_array_equal(a.class_loss, b.class_loss)
        np.testing.assert_array_equal(a.coral_loss, b.coral_loss)
        np.testing.assert_array_equal(a.source_acc, b.source_acc)
        np.testing.assert_array_equal(a.target_acc, b.target_acc)
        assert a.final_target_acc == b.final_target_acc

    def test_one_covariance_per_batch_per_iteration(self, monkeypatch):
        import coralign.deep as deep_mod

        # the training loop forms the aligned members' batch covariances in
        # one stacked _centred_covariance call per step (it reuses the
        # centred rows), the initial and final distances with
        # mean_and_covariance; count the covariances each call forms
        counts = {"stacked calls": 0, "covariances": 0}

        def counted(real):
            def call(D):
                counts["stacked calls"] += real.__name__ == "_centred_covariance"
                counts["covariances"] += 1 if D.ndim == 2 else len(D)
                return real(D)
            return call

        for name in ("mean_and_covariance", "_centred_covariance"):
            monkeypatch.setattr(deep_mod, name, counted(getattr(deep_mod, name)))
        rng = np.random.default_rng(22)
        Xs, y, Xt, _ = shifted_blobs(rng)
        cfg = self._cfg(iterations=10)
        train_joint(init_network([6, 8, 3], seed=1), Xs, y, Xt, cfg, 0)
        # two batch covariances per step, two for each of the initial and
        # the final distance
        assert counts == {"stacked calls": cfg.iterations, "covariances": 2 * cfg.iterations + 4}
        counts.update({"stacked calls": 0, "covariances": 0})
        deep_mod._train_members(init_network([6, 8, 3], seed=1), Xs, y, Xt, cfg,
                                (1.0, 0.0, 0.5), 0)
        # one call of four batch covariances per step for the two aligned
        # members, two for the initial distance and two per member for
        # the final ones
        assert counts == {"stacked calls": cfg.iterations, "covariances": 4 * cfg.iterations + 8}

    def test_report_lengths_match_iterations(self):
        rng = np.random.default_rng(17)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net = init_network([6, 8, 3], seed=1)
        cfg = self._cfg(iterations=25)
        _, report = train_joint(net, Xs, y, Xt, cfg, 0, accuracy_curves=True)
        assert len(report.class_loss) == 25
        assert report.coral_loss.shape == (25,)
        assert len(report.source_acc) == 25
        assert len(report.target_acc) == 25

    def test_training_learns_separable_source(self):
        rng = np.random.default_rng(18)
        Xs, y, Xt, _ = shifted_blobs(rng, sep=5.0)
        net = init_network([6, 8, 3], seed=2)
        cfg = self._cfg(coral_weight=0.0, iterations=300, learning_rate=0.1)
        net, report = train_joint(net, Xs, y, Xt, cfg, 0)
        assert report.final_source_acc >= 0.95

    def test_default_run_scores_once_from_final_logits(self, monkeypatch):
        import coralign.deep as deep_mod

        rows = []
        monkeypatch.setattr(
            deep_mod, "forward",
            lambda net, X: rows.append(len(X)) or forward(net, X),
        )
        rng = np.random.default_rng(23)
        Xs, y, Xt, yt = shifted_blobs(rng)
        cfg = self._cfg(iterations=15)
        net, report = train_joint(init_network([6, 8, 3], seed=4), Xs, y, Xt,
                                  cfg, 0, target_labels=yt)
        assert sum(rows) <= cfg.iterations * 2 * cfg.batch_size + len(Xs) + len(Xt)
        assert report.source_acc is None and report.target_acc is None
        # the final scores are those of the trained logits' argmax, bit for bit
        assert report.final_source_acc == np.mean(np.argmax(forward(net, Xs), axis=1) == y)
        assert report.final_target_acc == np.mean(np.argmax(forward(net, Xt), axis=1) == yt)

    def test_accuracy_curves_change_no_other_output(self):
        rng = np.random.default_rng(24)
        Xs, y, Xt, yt = shifted_blobs(rng)
        cfg = self._cfg(iterations=20)
        runs = [
            train_joint(init_network([6, 8, 3], seed=6), Xs, y, Xt, cfg, 0,
                        target_labels=yt, accuracy_curves=curves)
            for curves in (False, True)
        ]
        (plain, rep0), (curved, rep1) = runs
        for (Wa, ba), (Wb, bb) in zip(plain.layers, curved.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(rep0.class_loss, rep1.class_loss)
        np.testing.assert_array_equal(rep0.coral_loss, rep1.coral_loss)
        assert rep0.final_coral_distance == rep1.final_coral_distance
        assert rep1.source_acc[-1] == rep0.final_source_acc == rep1.final_source_acc
        assert rep1.target_acc[-1] == rep0.final_target_acc == rep1.final_target_acc

    def test_final_stats_are_those_of_the_trained_logits(self):
        rng = np.random.default_rng(28)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net, report = train_joint(init_network([6, 8, 3], seed=8), Xs, y, Xt,
                                  self._cfg(iterations=10), 0)
        ls, lt = forward(net, Xs), forward(net, Xt)
        for stats, logits in ((report.final_source_stats, ls),
                              (report.final_target_stats, lt)):
            want = mean_and_covariance(logits)
            np.testing.assert_array_equal(stats.mean, want.mean)
            np.testing.assert_array_equal(stats.cov, want.cov)
        assert report.final_coral_distance == coral_loss(ls, lt)

    def test_initial_distance_is_the_alignment_loss_of_the_initial_logits(self):
        rng = np.random.default_rng(29)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net = init_network([6, 8, 3], seed=9)
        for weight in (1.0, 0.0):
            _, report = train_joint(net, Xs, y, Xt,
                                    self._cfg(iterations=10, coral_weight=weight), 0)
            want = coral_loss(forward(net, Xs), forward(net, Xt))
            assert report.initial_coral_distance == want  # bit for bit
        _, report = train_joint(net, Xs, y, None, self._cfg(iterations=5), 0)
        assert np.isnan(report.initial_coral_distance)

    def test_without_target_labels_target_accuracy_is_nan(self):
        rng = np.random.default_rng(25)
        Xs, y, Xt, _ = shifted_blobs(rng)
        cfg = self._cfg(iterations=5)
        _, report = train_joint(init_network([6, 8, 3], seed=0), Xs, y, Xt, cfg, 0)
        assert np.isnan(report.final_target_acc)
        assert 0.0 <= report.final_source_acc <= 1.0
        _, report = train_joint(init_network([6, 8, 3], seed=0), Xs, y, None, cfg, 0)
        assert np.isnan(report.final_target_acc)
        assert np.isnan(report.final_coral_distance)
        assert report.final_target_stats is None
        assert 0.0 <= report.final_source_acc <= 1.0

    @pytest.mark.parametrize("case", ["short", "long", "2-d", "negative", "too-large"])
    def test_bad_target_labels_rejected(self, case):
        rng = np.random.default_rng(26)
        Xs, y, Xt, yt = shifted_blobs(rng)
        bad = {
            "short": yt[:-1],
            "long": np.append(yt, 0),
            "2-d": yt[:, None],
            "negative": np.where(np.arange(len(yt)) == 0, -1, yt),
            "too-large": np.where(np.arange(len(yt)) == 0, 7, yt),
        }[case]
        with pytest.raises(InvalidInputError, match="target labels"):
            train_joint(init_network([6, 8, 3], seed=0), Xs, y, Xt,
                        self._cfg(iterations=2), 0, target_labels=bad)

    def test_integral_float_labels_train_like_integer_labels(self):
        rng = np.random.default_rng(30)
        Xs, y, Xt, yt = shifted_blobs(rng)
        cfg = self._cfg(iterations=10)
        (net_i, rep_i), (net_f, rep_f) = [
            train_joint(init_network([6, 8, 3], seed=3), Xs, ys, Xt, cfg, 0,
                        target_labels=yts)
            for ys, yts in ((y, yt), (y.astype(float), yt.astype(float)))
        ]
        for (Wa, ba), (Wb, bb) in zip(net_i.layers, net_f.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)
        assert rep_f.final_source_acc == rep_i.final_source_acc
        assert rep_f.final_target_acc == rep_i.final_target_acc

    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_fractional_labels_rejected(self, domain):
        rng = np.random.default_rng(31)
        Xs, y, Xt, yt = shifted_blobs(rng)
        labels = {"source": (y + 0.5, yt), "target": (y, yt + 0.5)}[domain]
        with pytest.raises(InvalidInputError, match=f"{domain} labels must be integers"):
            train_joint(init_network([6, 8, 3], seed=0), Xs, labels[0], Xt,
                        self._cfg(iterations=2), 0, target_labels=labels[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_non_finite_or_huge_labels_rejected_without_a_warning(self, domain, bad):
        Xs, y, Xt, yt = shifted_blobs(np.random.default_rng(46))
        labels = {"source": y.astype(float), "target": yt.astype(float)}
        labels[domain][0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"{domain} labels must be integers"):
                train_joint(init_network([6, 8, 3], seed=0), Xs, labels["source"], Xt,
                            self._cfg(iterations=2), 0,
                            target_labels=labels["target"])

    def test_target_labels_without_target_rejected(self):
        rng = np.random.default_rng(27)
        Xs, y, _, yt = shifted_blobs(rng)
        with pytest.raises(InvalidInputError, match="target labels"):
            train_joint(init_network([6, 8, 3], seed=0), Xs, y, None,
                        self._cfg(iterations=2, coral_weight=0.0), 0,
                        target_labels=yt)

    def test_divergence_raises_numerical_error(self):
        from coralign.errors import NumericalError

        rng = np.random.default_rng(21)
        Xs, y, Xt, _ = shifted_blobs(rng)
        net = init_network([6, 8, 3], seed=1)
        cfg = self._cfg(learning_rate=1e150, iterations=30)
        with pytest.raises(NumericalError, match="diverged"):
            train_joint(net, Xs, y, Xt, cfg, 0)

    def test_batch_larger_than_dataset_rejected(self):
        rng = np.random.default_rng(20)
        Xs, y, Xt, _ = shifted_blobs(rng, n=30)
        net = init_network([6, 8, 3], seed=0)
        with pytest.raises(InvalidInputError):
            train_joint(net, Xs, y, Xt, self._cfg(batch_size=1000), 0)

    def test_argmax_of_the_logits_is_the_class(self):
        net = Network(layers=[(np.eye(3), np.zeros(3))])
        X = np.array([[0.1, 0.9, 0.0], [2.0, -1.0, 0.5]])
        np.testing.assert_array_equal(np.argmax(forward(net, X), axis=1), [1, 0])


def reference_train(net, X, y, Xt, cfg, weight, seed):
    """Oracle: the joint trainer as a plain loop that trains one network
    on 2-D arrays, the target batch in a forward and backward pass of its
    own.  Returns the trained layers and the two loss curves."""
    src_rng, tgt_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    layers = [(W.copy(), b.copy()) for W, b in net.layers]
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    class_curve, coral_curve = np.zeros(cfg.iterations), np.zeros(cfg.iterations)

    def forward_pass(Xb):
        inputs = [Xb]
        for W, b in layers[:-1]:
            inputs.append(np.maximum(inputs[-1] @ W + b, 0.0))
        return inputs[-1] @ layers[-1][0] + layers[-1][1], inputs

    def backward_pass(inputs, dZ):
        grads = [None] * len(layers)
        for i in range(len(layers) - 1, -1, -1):
            grads[i] = (inputs[i].T @ dZ, dZ.sum(axis=0))
            if i > 0:
                dZ = (dZ @ layers[i][0].T) * (inputs[i] > 0.0)
        return grads

    for it in range(cfg.iterations):
        idx = src_rng.integers(0, len(X), size=cfg.batch_size)
        logits, inputs = forward_pass(X[idx])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        yb = y[idx]
        class_curve[it] = -np.mean(np.log(np.maximum(probs[np.arange(len(yb)), yb], 1e-300)))
        d_logits = (probs - np.eye(probs.shape[1])[yb]) / len(yb)
        if weight != 0 and Xt is not None:
            t_idx = tgt_rng.integers(0, len(Xt), size=cfg.batch_size)
            logits_t, inputs_t = forward_pass(Xt[t_idx])
            coral_curve[it], g_s, g_t = coral_loss_and_grad(logits, logits_t)
            grads_t = backward_pass(inputs_t, weight * g_t)
            grads = backward_pass(inputs, d_logits + weight * g_s)
            grads = [(gW + hW, gb + hb) for (gW, gb), (hW, hb) in zip(grads, grads_t)]
        else:
            grads = backward_pass(inputs, d_logits)
        for (W, b), (gW, gb), (vW, vb) in zip(layers, grads, velocity):
            vW *= cfg.momentum
            vW -= cfg.learning_rate * gW
            W += vW
            vb *= cfg.momentum
            vb -= cfg.learning_rate * gb
            b += vb
    return layers, class_curve, coral_curve


def assert_same_layers(got, want):
    for (Wa, ba), (Wb, bb) in zip(got, want, strict=True):
        np.testing.assert_array_equal(Wa, Wb)
        np.testing.assert_array_equal(ba, bb)


def assert_same_run(got, want):
    """Two (network, LossReport) results, bit for bit."""
    assert_same_layers(got[0].layers, want[0].layers)
    for field in dataclasses.fields(LossReport):
        a, b = getattr(got[1], field.name), getattr(want[1], field.name)
        if isinstance(a, DomainStats):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)
        elif a is None or b is None:
            assert a is b, field.name
        else:
            np.testing.assert_array_equal(a, b, err_msg=field.name)  # NaN equals NaN


class TestLockstep:
    # 270 steps: two chunks for every stack below at the default chunk size
    # (a lone run's steps fit in one)
    CFG = TrainConfig(hidden=8, batch_size=32, iterations=270)

    # the last weights: four aligned members out of weight order and one
    # unaligned member
    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (2.0, 0.0, 0.5),
                                         (0.5, 2.0, 0.0, 0.25, 1.0)])
    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_members_equal_lone_runs_and_the_reference_loop(self, weights, seed):
        Xs, y, Xt, yt = shifted_blobs(np.random.default_rng(seed))
        net = init_network([6, 8, 3], seed=seed)
        runs = deep_mod._train_members(net, Xs, y, Xt, self.CFG, weights, seed, yt)
        assert len(runs) == len(weights)
        for weight, run in zip(weights, runs):
            lone = train_joint(net, Xs, y, Xt, dataclasses.replace(self.CFG, coral_weight=weight),
                               seed, target_labels=yt)
            assert_same_run(run, lone)
            layers, class_curve, coral_curve = reference_train(net, Xs, y, Xt, self.CFG,
                                                               weight, seed)
            assert_same_layers(lone[0].layers, layers)
            np.testing.assert_array_equal(lone[1].class_loss, class_curve)
            np.testing.assert_array_equal(lone[1].coral_loss, coral_curve)
            assert (lone[1].coral_loss != 0).all() == (weight != 0)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.5, 2.0, 0.0, 0.25, 1.0)])
    def test_chunks_of_a_few_steps_change_no_bit(self, weights, monkeypatch):
        # 3000 entries: chunks of four or five steps for these stacks, of
        # six for their lone runs
        monkeypatch.setattr(deep_mod, "_CHUNK_ENTRIES", 3000)
        self.test_members_equal_lone_runs_and_the_reference_loop(weights, 43)

    def test_accuracy_curves_and_a_missing_target(self):
        Xs, y, Xt, yt = shifted_blobs(np.random.default_rng(43))
        net = init_network([6, 8, 3], seed=5)
        cfg = dataclasses.replace(self.CFG, iterations=20)
        for target, target_labels in ((Xt, yt), (None, None)):
            runs = deep_mod._train_members(net, Xs, y, target, cfg, (1.0, 0.0), 2,
                                           target_labels, accuracy_curves=True)
            for weight, run in zip((1.0, 0.0), runs):
                lone = train_joint(net, Xs, y, target, dataclasses.replace(cfg, coral_weight=weight),
                                   2, target_labels=target_labels, accuracy_curves=True)
                assert_same_run(run, lone)

    def test_no_target_rows_drawn_without_an_aligned_member(self, monkeypatch):
        Xs, y, Xt, _ = shifted_blobs(np.random.default_rng(44))
        net = init_network([6, 8, 3], seed=6)
        cfg = dataclasses.replace(self.CFG, iterations=15)
        streams = []  # rows drawn per generator the trainer made: source, target
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng, self.rows = real(seed), 0
                streams.append(self)

            def integers(self, *args, **kwargs):
                drawn = self.rng.integers(*args, **kwargs)
                self.rows += drawn.size
                return drawn

        monkeypatch.setattr(np.random, "default_rng", Counting)
        rows = cfg.iterations * cfg.batch_size
        for weights, target_rows in (((0.0,), 0), ((0.0, 0.0), 0), ((1.0, 0.0), rows)):
            streams.clear()
            deep_mod._train_members(net, Xs, y, Xt, cfg, weights, 0)
            assert [s.rows for s in streams] == [rows, target_rows]

    @pytest.mark.parametrize("weights, member", [((0.0, 10.0), 1), ((10.0, 0.0), 0)])
    def test_divergence_names_the_member(self, weights, member):
        Xs, y, Xt, _ = shifted_blobs(np.random.default_rng(45))
        net = init_network([6, 8, 3], seed=7)
        cfg = dataclasses.replace(self.CFG, learning_rate=1.0, iterations=200)
        with pytest.raises(deep_mod._Diverged, match="diverged at iteration") as caught:
            deep_mod._train_members(net, Xs, y, Xt, cfg, weights, 0)
        assert caught.value.member == member
