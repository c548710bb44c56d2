"""Tests for the stochastic-subgradient linear SVM baseline.

The heavyweight oracle here is a flat replay of the training loop,
written independently of the implementation module, which must agree
bit-for-bit on the final objective.  Cross-validation is checked against
brute-force re-evaluation of every grid point, and its lockstep kernel
(every (fold, C) fit in one run) against a serial loop over train_svm.
The stacked fit of several feature matrices is checked, member by member,
against a one-member fit's C and a serial train_svm at that C.
"""

import warnings

import numpy as np
import pytest

from coralign import classify
from coralign.bench import runner
from coralign.bench.data import generate_shift, rotated_anisotropic_spec
from coralign.classify import (
    LinearModel,
    MINIBATCH,
    accuracy,
    fit_cross_validated,
    predict,
    train_svm,
)
from coralign.errors import InvalidInputError
from coralign.linalg import standardize


def blobs(rng, means, per_class):
    """Gaussian blobs with unit within-class spread around given means."""
    means = np.asarray(means, dtype=float)
    K, d = means.shape
    y = np.repeat(np.arange(K), per_class)
    X = means[y] + rng.standard_normal((len(y), d))
    return X, y


def replay_objective(Wa, X, y, C):
    """Oracle: the documented training objective of augmented weight rows
    Wa (K, d+1), the bias last, on the rows X: mean one-vs-rest hinge
    plus 0.5 lambda_reg ||w||^2, lambda_reg = 1/(C n), averaged over the
    classes."""
    n = len(X)
    K = int(np.max(y)) + 1
    lam = 1.0 / (C * n)
    Y = np.where(y[:, None] == np.arange(K)[None, :], 1.0, -1.0)
    scores = np.hstack([X, np.ones((n, 1))]) @ Wa.T
    hinge = np.maximum(0.0, 1.0 - Y * scores).mean(axis=0)
    reg = 0.5 * lam * (Wa[:, :-1] ** 2).sum(axis=1)
    return float((hinge + reg).mean())


def augmented(model):
    """A model's weight rows with the bias appended, as (K, d+1)."""
    return np.hstack([model.W, model.b[:, None]])


def cv_choice(D, y, grid, folds, seed, epochs=20):
    """The C that cross-validation picks for one feature matrix."""
    return fit_cross_validated([D], y, grid, folds, seed, epochs)[0].C


def replay_train(X, y, C, epochs, seed):
    """Oracle: step-by-step replay of the documented training procedure.

    One-vs-rest hinge, lambda_reg = 1/(C n), step scale/(lambda_reg t),
    minibatches of MINIBATCH after a seeded shuffle, projection of each
    class row onto the radius-1/sqrt(lambda_reg) ball (bias excluded),
    and the reject-and-halve epoch safeguard.  Returns the final
    objective exactly as the trainer defines it.
    """
    n, d = X.shape
    K = int(np.max(y)) + 1
    lam = 1.0 / (C * n)
    radius = 1.0 / np.sqrt(lam)
    Xa = np.hstack([X, np.ones((n, 1))])
    Y = np.where(y[:, None] == np.arange(K)[None, :], 1.0, -1.0)
    W = np.zeros((K, d + 1))
    rng = np.random.default_rng(seed)

    def obj(Wm):
        return replay_objective(Wm, X, y, C)

    t = 0
    scale = 1.0
    last = obj(W)
    for _ in range(epochs):
        keep = W.copy()
        perm = rng.permutation(n)
        for start in range(0, n, MINIBATCH):
            idx = perm[start : start + MINIBATCH]
            t += 1
            eta = scale / (lam * t)
            Xb, Yb = Xa[idx], Y[idx]
            viol = (Yb * (Xb @ W.T)) < 1.0
            G = -(viol * Yb).T @ Xb / len(idx)
            G[:, :-1] += lam * W[:, :-1]
            W = W - eta * G
            norms = np.linalg.norm(W[:, :-1], axis=1)
            shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
            W[:, :-1] *= shrink[:, None]
        cand = obj(W)
        if cand > last:
            W = keep
            scale *= 0.5
        else:
            last = cand
    return last, W


class TestTrainSvm:
    def test_separable_blobs_reach_full_training_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [[4.0, 0.0], [-4.0, 0.0]], 60)
        model = train_svm(X, y, C=1.0, epochs=50, seed=3)
        assert accuracy(predict(model, X), y) == 1.0

    def test_flipped_labels_flip_every_prediction(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [[5.0, 1.0], [-5.0, -1.0]], 50)
        m_fwd = train_svm(X, y, C=1.0, epochs=50, seed=2)
        m_rev = train_svm(X, 1 - y, C=1.0, epochs=50, seed=2)
        p_fwd = predict(m_fwd, X)
        p_rev = predict(m_rev, X)
        assert np.all(p_fwd != p_rev)

    def test_replay_oracle_bit_identical(self):
        X = np.array(
            [
                [1.0, 2.0],
                [2.0, 1.0],
                [-1.5, 0.5],
                [-2.0, -1.0],
                [0.3, -2.2],
                [1.1, -0.7],
            ]
        )
        y = np.array([0, 0, 1, 1, 2, 2])
        model = train_svm(X, y, C=0.7, epochs=3, seed=11)
        want_obj, want_W = replay_train(X, y, C=0.7, epochs=3, seed=11)
        np.testing.assert_array_equal(augmented(model), want_W)  # bit-identical
        assert replay_objective(augmented(model), X, y, C=0.7) == want_obj

    def test_objective_non_increasing_per_epoch(self):
        # training for j epochs reproduces the state after epoch j of a
        # longer run (the RNG stream advances once per epoch), so the
        # per-epoch objective trace can be sampled by re-training
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [[1.0, 0.0, 0.5], [-0.5, 1.0, -1.0], [0.0, -1.2, 0.8]], 40)
        for C in (0.01, 1.0):
            objs = [
                replay_objective(augmented(train_svm(X, y, C=C, epochs=j, seed=9)), X, y, C)
                for j in range(1, 9)
            ]
            diffs = np.diff(objs)
            assert diffs.max() <= 1e-9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, [[2.0, 0.0], [-2.0, 0.0]], 30)
        a = train_svm(X, y, C=0.1, epochs=10, seed=4)
        b = train_svm(X, y, C=0.1, epochs=10, seed=4)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(InvalidInputError):
            train_svm(X, np.zeros(10, dtype=int), C=1.0, epochs=5, seed=0)

    def test_nonpositive_C_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(InvalidInputError):
            train_svm(X, y, C=0.0, epochs=5, seed=0)

    @pytest.mark.parametrize("C", [np.inf, np.nan])
    def test_non_finite_C_rejected_before_training(self, C):
        # an infinite C once trained to NaN weights with divide-by-zero warnings
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.array([0, 1] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="C must be a finite number > 0"):
                train_svm(X, y, C=C, epochs=5, seed=0)
            with pytest.raises(InvalidInputError, match="C must be a finite number > 0"):
                cv_choice(X, y, [1.0, C], folds=2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
    def test_non_finite_or_huge_labels_rejected_without_a_warning(self, bad):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.array([bad] + [1.0, 0.0] * 4 + [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="labels must be integers"):
                train_svm(X, y, C=1.0, epochs=5, seed=0)


class TestPredict:
    def test_one_hot_identity_model(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3), C=1.0)
        pred = predict(model, np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(pred, [2, 1])

    def test_all_zero_model_ties_break_to_class_zero(self):
        model = LinearModel(W=np.zeros((4, 3)), b=np.zeros(4), C=1.0)
        pred = predict(model, np.random.default_rng(1).standard_normal((20, 3)))
        np.testing.assert_array_equal(pred, np.zeros(20, dtype=int))

    def test_matches_per_row_argmax_oracle(self):
        rng = np.random.default_rng(2)
        model = LinearModel(W=rng.standard_normal((5, 7)), b=rng.standard_normal(5), C=1.0)
        X = rng.standard_normal((50, 7))
        pred = predict(model, X)
        for i in range(50):
            scores = [model.W[k] @ X[i] + model.b[k] for k in range(5)]
            assert pred[i] == int(np.argmax(scores))

    def test_dimension_mismatch_rejected(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3), C=1.0)
        with pytest.raises(InvalidInputError):
            predict(model, np.zeros((2, 4)))


class TestCrossValidateC:
    def test_single_element_grid(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [[3.0, 0.0], [-3.0, 0.0]], 20)
        assert cv_choice(X, y, [0.25], folds=2, seed=0) == 0.25

    def test_best_grid_point_by_brute_force(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [[2.5, 0.5], [-2.5, -0.5]], 30)
        grid = [0.01, 1.0, 100.0]
        got = cv_choice(X, y, grid, folds=3, seed=7)

        # oracle: same fold layout, every grid point re-evaluated from scratch
        perm = np.random.default_rng(7).permutation(len(X))
        parts = np.array_split(perm, 3)
        mean_acc = {}
        for C in sorted(grid):
            accs = []
            for f in range(3):
                te = parts[f]
                tr = np.concatenate([parts[g] for g in range(3) if g != f])
                m = train_svm(X[tr], y[tr], C=C, epochs=20, seed=7)
                accs.append(accuracy(predict(m, X[te]), y[te]))
            mean_acc[C] = np.mean(accs)
        assert mean_acc[got] >= max(mean_acc.values()) - 1e-12
        best = min(C for C, a in mean_acc.items() if a == max(mean_acc.values()))
        assert got == best

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((120, 5))
        y = rng.permutation(np.repeat(np.arange(3), 40))
        grid = [0.01, 1.0]
        got = cv_choice(X, y, grid, folds=4, seed=1)
        assert got in grid

        perm = np.random.default_rng(1).permutation(len(X))
        parts = np.array_split(perm, 4)
        for C in grid:
            accs = []
            for f in range(4):
                te = parts[f]
                tr = np.concatenate([parts[g] for g in range(4) if g != f])
                m = train_svm(X[tr], y[tr], C=C, epochs=20, seed=1)
                accs.append(accuracy(predict(m, X[te]), y[te]))
            assert abs(np.mean(accs) - 1.0 / 3.0) <= 0.10

    def test_empty_grid_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(InvalidInputError):
            cv_choice(X, y, [], folds=2, seed=0)


def serial_cv(X, y, grid, folds, seed, epochs=20):
    """Oracle: cross-validation as one train_svm fit per (C, fold) pair.

    Returns the chosen C and the (G, F) held-out accuracies.
    """
    perm = np.random.default_rng(seed).permutation(len(X))
    parts = np.array_split(perm, folds)
    grid = sorted(grid)
    accs = np.empty((len(grid), folds))
    best_C, best_acc = None, -1.0
    for i, C in enumerate(grid):
        for f in range(folds):
            te = parts[f]
            tr = np.concatenate([parts[g] for g in range(folds) if g != f])
            m = train_svm(X[tr], y[tr], C=C, epochs=epochs, seed=seed)
            accs[i, f] = accuracy(predict(m, X[te]), y[te])
        if np.mean(accs[i]) > best_acc:
            best_C, best_acc = C, np.mean(accs[i])
    return best_C, accs


def awkward_case():
    """41 rows in 4 folds (training sizes 30, 31, 31, 31); class 2 sits only
    in held-out part 2, so that fold trains a 2-class model."""
    rng = np.random.default_rng(12)
    parts = np.array_split(np.random.default_rng(5).permutation(41), 4)
    y = np.arange(41) % 2
    y[parts[2][:4]] = 2
    means = np.array([[2.0, 0.0, 0.0], [-1.0, 1.5, 0.0], [-1.0, -1.5, 1.0]])
    X = means[y] + rng.standard_normal((41, 3))
    return X, y, dict(folds=4, seed=5)


def frozen_source():
    """Standardized source of rotated_anisotropic_spec(0): rollbacks fire
    1-2 times per fold at C=0.001 and C=10, never at the middle C values."""
    src, _ = generate_shift(rotated_anisotropic_spec(0))
    X, _, _ = standardize(src.features)
    return X, src.labels, dict(folds=5, seed=0)


GRID = [0.001, 0.01, 0.1, 1.0, 10.0]


def fold_contiguous(Ds, y, folds, seed):
    """Members and labels shuffled as cross-validation shuffles them, and
    each fold's training rows in that order: every index but the fold's
    held-out block, increasing."""
    perm = np.random.default_rng(seed).permutation(len(y))
    parts = np.array_split(np.arange(len(y)), folds)
    rows = [np.concatenate(parts[:f] + parts[f + 1:]) for f in range(folds)]
    return [D[perm] for D in Ds], y[perm], rows


class TestLockstepCrossValidation:
    @pytest.mark.parametrize("case", [awkward_case, frozen_source])
    def test_matches_serial_cv(self, case):
        X, y, kw = case()
        want_C, want_accs = serial_cv(X, y, GRID, **kw)
        Xa = classify._stack_members([X])
        got = classify._cv_accuracies(Xa, y, GRID, kw["folds"], kw["seed"], 20)[0]
        np.testing.assert_array_equal(got, want_accs)  # every (C, fold), exact
        assert cv_choice(X, y, GRID, **kw) == want_C

    def test_awkward_case_is_awkward(self):
        X, y, kw = awkward_case()
        parts = np.array_split(np.random.default_rng(kw["seed"]).permutation(len(X)), 4)
        train_sizes = {len(X) - len(p) for p in parts}
        held_out_twos = [int(np.sum(y[p] == 2)) for p in parts]
        assert train_sizes == {30, 31}
        assert held_out_twos == [0, 0, int(np.sum(y == 2)), 0]

    def test_kernel_weights_bit_identical_to_train_svm(self):
        X, y, kw = frozen_source()
        (X,), y, rows = fold_contiguous([X], y, **kw)
        rows = np.stack(rows)
        Xa = classify._stack_members([X])
        Wa = classify._sgd(Xa, classify._signs(y, 3), rows, [GRID], 20, 0)[0]
        assert Wa.shape == (5, len(GRID) * 3, X.shape[1] + 1)
        for f in range(5):
            for g, C in enumerate(GRID):
                m = train_svm(X[rows[f]], y[rows[f]], C=C, epochs=20, seed=0)
                block = Wa[f, 3 * g : 3 * g + 3]
                np.testing.assert_array_equal(block[:, :-1], m.W)
                np.testing.assert_array_equal(block[:, -1], m.b)

    def test_kernel_rejects_rows_that_do_not_increase(self):
        X, y, _ = awkward_case()
        Xa = classify._stack_members([X])
        for rows in ([[0, 2, 1, 3, 4, 5]], [[0, 1, 1, 2, 3, 4]]):
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                classify._sgd(Xa, classify._signs(y, 3), np.array(rows), [[1.0]], 2, 0)

    def test_callers_stack_restored(self, monkeypatch):
        Ds, y, kw = awkward_members()
        Xa = classify._stack_members(Ds)
        before = Xa.copy()
        classify._cv_accuracies(Xa, y, GRID, kw["folds"], kw["seed"], 20)
        np.testing.assert_array_equal(Xa, before)

        def failing(*args):
            raise InvalidInputError("kernel failed")

        monkeypatch.setattr(classify, "_sgd", failing)
        with pytest.raises(InvalidInputError, match="kernel failed"):
            classify._cv_accuracies(Xa, y, GRID, kw["folds"], kw["seed"], 20)
        np.testing.assert_array_equal(Xa, before)

    def test_no_train_svm_calls_and_one_kernel_run_per_group(self, monkeypatch):
        X, y, kw = awkward_case()
        runs = []
        kernel = classify._sgd

        def counting(Xa, Ysign, rows, *args):
            runs.append((rows.shape, Ysign.shape[1]))
            return kernel(Xa, Ysign, rows, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("cross_validate_C called train_svm")

        monkeypatch.setattr(classify, "_sgd", counting)
        monkeypatch.setattr(classify, "train_svm", forbidden)
        cv_choice(X, y, GRID, **kw)
        # groups by (training size, class count): fold 0; folds 1, 3; fold 2;
        # then the final fit on all 41 rows
        assert runs[-1] == ((1, 41), 3)
        assert sorted(runs[:-1]) == [((1, 30), 3), ((1, 31), 2), ((2, 31), 3)]

    def test_single_class_training_fold_still_raises(self):
        # class 1 only in held-out part 0: fold 0 trains on class 0 alone
        parts = np.array_split(np.random.default_rng(3).permutation(20), 2)
        y = np.zeros(20, dtype=int)
        y[parts[0][:3]] = 1
        X = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(InvalidInputError):
            train_svm(X[parts[1]], y[parts[1]], C=1.0, epochs=5, seed=3)
        with pytest.raises(InvalidInputError):
            cv_choice(X, y, [1.0], folds=2, seed=3)

    def test_fewer_rows_than_classes_in_a_fold_still_raises(self):
        # 4 rows, 2 folds: one fold trains 2 rows on labels {0, 3}, K = 4
        parts = np.array_split(np.random.default_rng(1).permutation(4), 2)
        y = np.zeros(4, dtype=int)
        y[parts[1][0]] = 3
        y[parts[0][0]] = 1
        X = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(InvalidInputError, match="at least K"):
            train_svm(X[parts[1]], y[parts[1]], C=1.0, epochs=5, seed=1)
        with pytest.raises(InvalidInputError, match="at least K"):
            cv_choice(X, y, [1.0], folds=2, seed=1)

    def test_nonpositive_grid_value_rejected(self):
        X, y, kw = awkward_case()
        with pytest.raises(InvalidInputError):
            cv_choice(X, y, [0.0, 1.0], **kw)


def awkward_members():
    """Three feature matrices on the awkward case's rows and labels: the
    raw features, a mixed and shifted copy, and unrelated noise."""
    X, y, kw = awkward_case()
    rng = np.random.default_rng(21)
    mixed = X @ rng.standard_normal((3, 3)) + 1.5
    return [X, mixed, rng.standard_normal(X.shape)], y, kw


def frozen_method_sources():
    """The mapped sources of the five SVM methods on trial 0 of the frozen
    benchmark config, as the runner trains them."""
    config = runner.ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=("NA",))
    trial = runner._make_trial(config, 0, None)
    Ds = [fmap(trial, config)[0] for fmap in runner._FEATURE_MAPS.values()]
    return Ds, trial.ys, dict(folds=5, seed=0)


class TestFitCrossValidated:
    @pytest.mark.parametrize("case", [awkward_members, frozen_method_sources])
    def test_each_member_matches_serial_fit(self, case):
        Ds, y, kw = case()
        models = fit_cross_validated(Ds, y, GRID, kw["folds"], kw["seed"], 20)
        assert len(models) == len(Ds)
        for D, got in zip(Ds, models):
            C = cv_choice(D, y, GRID, **kw)
            want = train_svm(D, y, C=C, epochs=20, seed=kw["seed"])
            assert got.C == C
            np.testing.assert_array_equal(got.W, want.W)  # bit for bit
            np.testing.assert_array_equal(got.b, want.b)

    def test_one_kernel_run_per_fold_group_plus_one_final(self, monkeypatch):
        Ds, y, kw = awkward_members()
        runs = []
        kernel = classify._sgd

        def counting(Xa, Ysign, rows, *args):
            runs.append((Xa.shape[0], rows.shape))
            return kernel(Xa, Ysign, rows, *args)

        monkeypatch.setattr(classify, "_sgd", counting)
        fit_cross_validated(Ds, y, GRID, kw["folds"], kw["seed"], 20)
        # three fold groups (see test_no_train_svm_calls_...), then the final fit
        assert runs == [(3, (1, 30)), (3, (2, 31)), (3, (1, 31)), (3, (1, 41))]

    @staticmethod
    def stacked_members(monkeypatch):
        """The member count of every kernel run from here on."""
        runs = []
        kernel = classify._sgd

        def counting(Xa, *args):
            runs.append(Xa.shape[0])
            return kernel(Xa, *args)

        monkeypatch.setattr(classify, "_sgd", counting)
        return runs

    def test_repeated_matrix_object_is_one_member(self, monkeypatch):
        (D, E, _), y, kw = awkward_members()
        want = fit_cross_validated([D, E], y, GRID, kw["folds"], kw["seed"], 20)
        runs = self.stacked_members(monkeypatch)
        got = fit_cross_validated([D, E, D], y, GRID, kw["folds"], kw["seed"], 20)
        assert runs == [2] * 4  # three fold groups and the final fit
        assert len(got) == 3 and got[0] is got[2]
        for g, w in zip(got[:2], want):
            assert (g.C, g.cv_acc) == (w.C, w.cv_acc)
            np.testing.assert_array_equal(g.W, w.W)  # bit for bit
            np.testing.assert_array_equal(g.b, w.b)

    def test_equal_matrices_that_are_distinct_objects_stay_two_members(self, monkeypatch):
        (D, _, _), y, kw = awkward_members()
        runs = self.stacked_members(monkeypatch)
        got = fit_cross_validated([D, D.copy()], y, GRID, kw["folds"], kw["seed"], 20)
        assert runs == [2] * 4  # compared by identity, not by contents
        assert got[0] is not got[1]
        np.testing.assert_array_equal(got[0].W, got[1].W)

    def test_members_of_different_shapes_rejected(self):
        Ds, y, kw = awkward_members()
        for bad in (Ds[0][:, :2], Ds[0][:40]):
            with pytest.raises(InvalidInputError, match="share one shape"):
                fit_cross_validated([Ds[0], bad], y, GRID, epochs=20, **kw)

    def test_labels_of_wrong_length_rejected(self):
        Ds, y, kw = awkward_members()
        with pytest.raises(InvalidInputError, match="labels must have shape"):
            fit_cross_validated(Ds, y[:-1], GRID, epochs=20, **kw)

    def test_no_members_rejected(self):
        _, y, kw = awkward_members()
        with pytest.raises(InvalidInputError):
            fit_cross_validated([], y, GRID, epochs=20, **kw)


def gathered_objectives(Wa, Xa, Ysign, rows, lam):
    """Oracle: the stacked runs' objective as the kernel once evaluated it,
    one (member, fold) at a time on a gathered copy of its training rows."""

    def mean_hinge(Wf, X, Y):
        n, K = Y.shape
        margins = (X @ Wf.T).reshape(n, -1, K)
        margins *= Y[:, None, :]
        np.subtract(1.0, margins, out=margins)
        return np.maximum(0.0, margins, out=margins).mean(axis=0)

    hinge = np.array([
        [mean_hinge(Wf, Xm[r], Ysign[r]) for Wf, r in zip(Wm, rows)]
        for Wm, Xm in zip(Wa, Xa)
    ])
    reg = 0.5 * lam[:, None, :] * (Wa[..., :-1] ** 2).sum(axis=-1)
    return (hinge + reg.reshape(hinge.shape)).mean(axis=-1)


def frozen_fold_groups():
    """The five SVM methods' sources on the frozen config, 5 folds of 800
    training rows each: one group."""
    Ds, y, kw = frozen_method_sources()
    Ds, y, rows = fold_contiguous(Ds, y, **kw)
    return Ds, y, [rows]


def awkward_fold_groups():
    """The awkward members in 4 folds, grouped as cross-validation groups
    them: fold 0 (30 rows); folds 1 and 3 (31 rows); fold 2 (31 rows, K = 2)."""
    Ds, y, kw = awkward_members()
    Ds, y, rows = fold_contiguous(Ds, y, **kw)
    return Ds, y, [[rows[0]], [rows[1], rows[3]], [rows[2]]]


def full_data_fold():
    """The awkward members trained on all 41 rows as one fold."""
    Ds, y, _ = awkward_members()
    return Ds, y, [[np.arange(len(y))]]


class TestObjectiveOracle:
    # Exact under OpenBLAS's SkylakeX and Haswell kernels; Nehalem rounds a
    # few entries of the wider product differently in the last bit.
    @pytest.mark.parametrize("case", [frozen_fold_groups, awkward_fold_groups,
                                      full_data_fold])
    def test_equals_gathered_evaluation_bit_for_bit(self, case):
        Ds, y, groups = case()
        Xa = classify._stack_members(Ds)
        Cs = np.tile(GRID, (len(Ds), 1))
        rng = np.random.default_rng(3)
        for rows in map(np.stack, groups):
            F, n = rows.shape
            K = int(y[rows].max()) + 1
            Ysign = classify._signs(y, K)
            lam = np.repeat(1.0 / (Cs * n), K, axis=1)
            train = np.zeros((len(y), F, 1))
            train[rows.T, np.arange(F), 0] = 1.0
            Ytr = (np.tile(Ysign, len(GRID))[:, None, :] * train).reshape(len(y), -1)
            trained = classify._sgd(Xa, Ysign, rows, Cs, 20, 5)
            for Wa in (rng.standard_normal(trained.shape), trained):
                got = classify._objectives(Wa, Xa, Ytr, n, lam, K)
                want = gathered_objectives(Wa, Xa, Ysign, rows, lam)
                assert got.shape == (len(Ds), F, len(GRID))
                np.testing.assert_array_equal(got, want)


def five_pass_hinge_objectives(Wa, Xa, Yt, train, n, lam, K):
    """Oracle: the epoch objective in its five-pass form.  Scores times
    the broadcast targets Yt (N, G*K), 1 minus that, max(0, .), times the
    broadcast training mask train (N, F, 1), then the row-order sum."""
    M, F, GK, _ = Wa.shape
    hinge = np.empty((M, F * GK))
    for Wm, Xm, out in zip(Wa, Xa, hinge):
        H = Xm @ Wm.reshape(F * GK, -1).T
        folds = H.reshape(len(H), F, GK)
        folds *= Yt[:, None, :]
        np.subtract(1.0, H, out=H)
        np.maximum(0.0, H, out=H)
        folds *= train
        H.sum(axis=0, out=out)
    hinge /= n
    reg = 0.5 * lam[:, None, :] * (Wa[..., :-1] ** 2).sum(axis=-1)
    return (hinge + reg.reshape(hinge.shape)).reshape(M, F, -1, K).mean(axis=-1)


class TestSignedTargetObjective:
    """The four-pass objective on the signed-target operand equals the
    five-pass form bit for bit."""

    def kernel_operand(self, Xa, Ysign, rows, Cs):
        """The signed-target operand of one kernel run, as _sgd builds it."""
        seen = []

        def spy(Wa, Xa, Ytr, *args):
            seen.append(Ytr.copy())
            raise InvalidInputError("operand seen")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "_objectives", spy)
            with pytest.raises(InvalidInputError, match="operand seen"):
                classify._sgd(Xa, Ysign, rows, Cs, 1, 0)
        return seen[0]

    def test_operand_is_signed_targets_on_training_rows(self):
        Ds, y, groups = awkward_fold_groups()
        Xa = classify._stack_members(Ds)
        rows = np.stack(groups[1])
        Ysign = classify._signs(y, 3)
        Ytr = self.kernel_operand(Xa, Ysign, rows, np.tile(GRID, (len(Ds), 1)))
        G = len(GRID)
        assert Ytr.shape == (len(y), 2 * G * 3) and Ytr.flags.c_contiguous
        for f, r in enumerate(rows):
            block = Ytr[:, f * G * 3:(f + 1) * G * 3]
            held_out = np.setdiff1d(np.arange(len(y)), r)
            np.testing.assert_array_equal(block[r], np.tile(Ysign[r], G))
            assert not block[held_out].any()

    @pytest.mark.parametrize("case", [frozen_fold_groups, awkward_fold_groups])
    def test_equals_five_pass_form_bit_for_bit(self, case):
        Ds, y, groups = case()
        Xa = classify._stack_members(Ds)
        Cs = np.tile(GRID, (len(Ds), 1))
        rng = np.random.default_rng(8)
        for rows in map(np.stack, groups):
            F, n = rows.shape
            K = int(y[rows].max()) + 1
            Ysign = classify._signs(y, K)
            Yt = np.tile(Ysign, len(GRID))
            lam = np.repeat(1.0 / (Cs * n), K, axis=1)
            train = np.zeros((len(y), F, 1))
            train[rows.T, np.arange(F), 0] = 1.0
            Ytr = self.kernel_operand(Xa, Ysign, rows, Cs)
            # scores of every kind: y s > 1 and y s < 1 from large random
            # weights, s = 0 exactly from zero rows, y s = +-1 exactly from
            # rows that are only a bias of 1
            Wa = 3.0 * rng.standard_normal((len(Ds), F, len(GRID) * K, Xa.shape[2]))
            Wa[:, :, ::4] = 0.0
            Wa[:, :, 1::4] = 0.0
            Wa[:, :, 1::4, -1] = 1.0
            margins = np.einsum("mnd,mfjd->mnfj", Xa, Wa) * Yt[None, :, None, :]
            assert (margins > 1).any() and ((margins < 1) & (margins != 0)).any()
            assert (margins == 0).any() and (margins == 1).any()
            assert (train == 0).any()
            got = classify._objectives(Wa, Xa, Ytr, n, lam, K)
            want = five_pass_hinge_objectives(Wa, Xa, Yt, train, n, lam, K)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_every_epoch_of_a_kernel_run_equals_five_pass_form(self, monkeypatch):
        Ds, y, groups = frozen_fold_groups()
        Xa = classify._stack_members(Ds)
        rows = np.stack(groups[0])
        Ysign = classify._signs(y, 3)
        train = np.zeros((len(y), len(rows), 1))
        train[rows.T, np.arange(len(rows)), 0] = 1.0
        objectives = classify._objectives
        calls = []

        def checked(Wa, Xa, Ytr, n, lam, K):
            got = objectives(Wa, Xa, Ytr, n, lam, K)
            want = five_pass_hinge_objectives(Wa, Xa, np.tile(Ysign, len(GRID)), train,
                                              n, lam, K)
            np.testing.assert_array_equal(got, want)
            calls.append(1)
            return got

        monkeypatch.setattr(classify, "_objectives", checked)
        classify._sgd(Xa, Ysign, rows, np.tile(GRID, (len(Ds), 1)), 20, 0)
        assert len(calls) == 20  # one per epoch; the all-zero start needs none

    @pytest.mark.parametrize("case", [frozen_fold_groups, awkward_fold_groups])
    def test_five_pass_form_is_exactly_one_at_zero_weights(self, case):
        # the kernel starts from these objectives without evaluating them
        Ds, y, groups = case()
        Xa = classify._stack_members(Ds)
        Cs = np.tile(GRID, (len(Ds), 1))
        for rows in map(np.stack, groups):
            F, n = rows.shape
            K = int(y[rows].max()) + 1
            lam = np.repeat(1.0 / (Cs * n), K, axis=1)
            train = np.zeros((len(y), F, 1))
            train[rows.T, np.arange(F), 0] = 1.0
            Wa = np.zeros((len(Ds), F, len(GRID) * K, Xa.shape[2]))
            got = five_pass_hinge_objectives(Wa, Xa, np.tile(classify._signs(y, K), len(GRID)),
                                             train, n, lam, K)
            np.testing.assert_array_equal(got, np.ones((len(Ds), F, len(GRID))))
            assert not np.signbit(got).any()


def strided_step(Wa, Xa, Yt, idx, lam_w, eta, radius):
    """Oracle: the minibatch step in its strided form.  Decay and
    projection on the weights-only view Wa[..., :-1], the norm from
    np.linalg.norm, the margins' product on a transposed view of Wa."""
    Xb, Yb = np.take(Xa, idx, axis=1), np.take(Yt, idx, axis=0)
    coef = Xb @ Wa.swapaxes(2, 3)
    coef *= Yb
    np.less(coef, 1.0, out=coef)
    coef *= np.negative(Yb, out=Yb)
    grad = coef.swapaxes(2, 3) @ Xb
    grad /= idx.shape[1]
    grad[..., :-1] += lam_w[..., :-1] * Wa[..., :-1]
    grad *= eta[..., None]
    Wa -= grad
    norms = np.linalg.norm(Wa[..., :-1], axis=-1)
    shrink = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    Wa[..., :-1] *= shrink[..., None]


def projected_by_scales(Wa, radius):
    """Oracle: the ball projection as every scale, computed for every row,
    times each row's weights, bias excluded."""
    norms = np.sqrt(classify._squared_norms(Wa))
    Wa[..., :-1] *= np.minimum(1.0, radius / np.maximum(norms, 1e-300))[..., None]


class TestProjection:
    def step_case(self):
        """One step of the awkward members' three-class fit on fold 0 at
        every grid C, from random weights."""
        Ds, y, groups = awkward_fold_groups()
        Xa = classify._stack_members(Ds)
        rows = np.stack(groups[0])
        Yt = np.tile(classify._signs(y, 3), len(GRID))
        lam = np.repeat(1.0 / (np.tile(GRID, (len(Ds), 1)) * rows.shape[1]), 3, axis=1)
        lam_rows = lam[:, None, :]
        lam_w = np.zeros((*lam_rows.shape, Xa.shape[2]))
        lam_w[..., :-1] = lam_rows[..., None]
        Wa = np.random.default_rng(4).standard_normal((len(Ds), 1, lam.shape[1], Xa.shape[2]))
        return Wa, Xa, Yt, rows[:, :64], lam_w, 1.0 / (lam_rows * 7)

    def unprojected(self, case):
        Wa, Xa, Yt, idx, lam_w, eta = case
        Wa = Wa.copy()
        classify._step(Wa, Xa, Yt, idx, lam_w, eta, np.inf)
        return Wa

    def test_step_equals_every_row_scaled(self):
        case = self.step_case()
        moved = self.unprojected(case)
        norms = np.sqrt(classify._squared_norms(moved))
        # radius per weight row: below its norm (scaled onto the ball),
        # exactly its norm (scale 1) and above it (inside the ball)
        radius = norms[:, :1].copy()
        radius[..., 0::3] *= 0.5
        radius[..., 2::3] *= 2.0
        want = moved.copy()
        projected_by_scales(want, radius)
        Wa = case[0].copy()
        classify._step(Wa, *case[1:], radius)
        assert not np.array_equal(want, moved)  # some rows left the ball
        np.testing.assert_array_equal(Wa[..., 1::3, :], moved[..., 1::3, :])
        np.testing.assert_array_equal(Wa[..., 2::3, :], moved[..., 2::3, :])
        np.testing.assert_array_equal(Wa, want)
        np.testing.assert_array_equal(np.signbit(Wa), np.signbit(want))

    def test_step_inside_the_ball_skips_the_scales_bit_for_bit(self):
        case = self.step_case()
        moved = self.unprojected(case)
        radius = np.sqrt(classify._squared_norms(moved))[:, :1]  # every norm exactly
        want = moved.copy()
        projected_by_scales(want, radius)
        Wa = case[0].copy()
        classify._step(Wa, *case[1:], radius)
        np.testing.assert_array_equal(Wa, want)
        np.testing.assert_array_equal(Wa, moved)
        np.testing.assert_array_equal(np.signbit(Wa), np.signbit(want))

    def test_nan_weight_row_is_scaled_as_every_row_was(self):
        case = self.step_case()
        case[0][0, 0, 1, 0] = np.nan
        moved = self.unprojected(case)
        radius = 2.0 * np.nanmax(np.sqrt(classify._squared_norms(moved))) * np.ones(moved.shape[2])
        want = moved.copy()
        projected_by_scales(want, radius)
        Wa = case[0].copy()
        classify._step(Wa, *case[1:], radius)
        assert np.isnan(want[0, 0, 1, :-1]).all()
        np.testing.assert_array_equal(Wa, want)


class TestFullWidthStep:
    def test_every_step_of_the_frozen_fits_stores_the_strided_weights(self, monkeypatch):
        # full-width decay adds 0 * b to the bias gradient; no stored weight
        # may differ from the strided form's, not even in its sign bit
        Ds, y, kw = frozen_method_sources()
        step = classify._step
        seen = {"steps": 0, "projected": 0, "zero_bias_grad": 0}

        def checked(Wa, Xa, Yt, idx, lam_w, eta, radius):
            want = Wa.copy()
            strided_step(want, Xa, Yt, idx, lam_w, eta, radius)
            before = Wa.copy()
            step(Wa, Xa, Yt, idx, lam_w, eta, radius)
            np.testing.assert_array_equal(Wa, want)
            np.testing.assert_array_equal(np.signbit(Wa), np.signbit(want))
            seen["steps"] += 1
            norms = np.linalg.norm(Wa[..., :-1], axis=-1)
            seen["projected"] += bool((np.abs(norms - radius) <= 1e-12 * radius).any())
            margins = (np.take(Xa, idx, axis=1) @ before.swapaxes(2, 3)) * np.take(Yt, idx, axis=0)
            seen["zero_bias_grad"] += int(np.sum(~(margins < 1.0).any(axis=2)))

        monkeypatch.setattr(classify, "_step", checked)
        fit_cross_validated(Ds, y, GRID, kw["folds"], kw["seed"], 20)
        # 260 cross-validation steps (5 folds of 800 rows) and 320 final ones
        assert seen["steps"] == 580
        assert seen["projected"] > 0  # rows scaled onto the ball
        # weight rows whose minibatch violates no margin: a +-0 bias gradient
        assert seen["zero_bias_grad"] > 0


class TestAccuracy:
    def test_identical(self):
        assert accuracy(np.array([1, 2, 0]), np.array([1, 2, 0])) == 1.0

    def test_disjoint(self):
        assert accuracy(np.array([1, 1, 1]), np.array([0, 0, 0])) == 0.0

    def test_half(self):
        assert accuracy(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 1])) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            accuracy(np.array([1, 2]), np.array([1]))
