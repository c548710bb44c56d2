"""Tests for the experiment runner.

Heavy directional claims (full 20-trial margins) live in the acceptance
suite; here the same machinery runs with fewer trials and looser bounds,
plus exact checks for shapes, determinism, and serialization.
"""

import dataclasses
import json

import numpy as np
import pytest

from coralign import classify, coral, lda, linalg
from coralign.bench import runner
from coralign.bench.data import (ROTATION_SEED_OFFSET, ShiftSpec, generate_shift,
                                 rotated_anisotropic_spec)
from coralign.bench.io import save_bin, save_csv
from coralign.bench.runner import (
    LOSS_BALANCE_STEPS,
    METHODS,
    ExperimentConfig,
    _FEATURE_MAPS,
    _GROUPS,
    _deep_network,
    _make_trial,
    config_from_dict,
    config_to_dict,
    lambda_sweep,
    run_experiment,
)
from coralign.deep import TrainConfig, forward, train_joint
from coralign.errors import InvalidInputError, NumericalError
from test_bench_data import BLOCKED_SPECS, one_expression_shift


def count_eigendecompositions(monkeypatch):
    """Record the shape of every matrix the shared eigen kernel decomposes."""
    calls = []

    def record(M, *args, _fn=linalg.sym_eigen, **kwargs):
        calls.append(np.shape(M))
        return _fn(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "sym_eigen", record)
    return calls


def train_deep(trial, cfg):
    """One deep run of a trial at cfg.coral_weight, as the deep methods
    train it: from the trial's network, its batches drawn from the trial
    seed."""
    return train_joint(_deep_network(trial, cfg), trial.Xs, trial.ys, trial.Xt, cfg,
                       trial.seed, target_labels=trial.yt)


LDA_FAMILY = ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched")


def lda_config(n, d, trials=1):
    """The LDA family on K = 10 classes of the frozen shift at d, n rows
    per domain.  A traced test runs it at a small size first, so that the
    modules numpy imports on first use (numpy.random, numpy.ma) are not
    counted as the trial's memory."""
    return ExperimentConfig(
        spec=rotated_anisotropic_spec(0, d=d, K=10, n_source=n, n_target=n),
        methods=LDA_FAMILY, trials=trials,
    )


def unrelated_spec(spec):
    """The spec of the unrelated domain drawn for spec's trial."""
    rot = spec.seed + ROTATION_SEED_OFFSET if spec.rotation_seed is None else spec.rotation_seed
    return dataclasses.replace(spec, seed=spec.seed + runner.UNRELATED_OFFSET,
                               rotation_angles=None,
                               rotation_seed=rot + runner.UNRELATED_OFFSET)


def zero_shift_spec(n=300, d=4, K=2, seed=0):
    return ShiftSpec(
        d=d, K=K, n_source=n, n_target=n,
        separation=2.0, scales=(1.0,) * d, mean_shift=(0.0,) * d,
        noise_std=0.0, seed=seed, rotation_angles=(),
    )


class TestConfigSerialization:
    def test_round_trip_through_json(self):
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=3),
            methods=("NA", "CORAL-reg"),
            trials=4,
            seed_base=9,
            lam=0.5,
        )
        blob = json.dumps(config_to_dict(cfg))
        back = config_from_dict(json.loads(blob))
        assert back == cfg

    def test_file_based_round_trip(self):
        cfg = ExperimentConfig(
            spec=None,
            methods=("NA",),
            trials=1,
            source_path="/tmp/a.csv",
            target_path="/tmp/b.csv",
            csv_has_header=True,
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_json_echo_of_a_spec_config(self):
        spec = ShiftSpec(d=4, K=2, n_source=40, n_target=50, separation=2.0,
                         scales=(1.0, 0.5, 2.0, 1.0), mean_shift=(0.0, 0.25, 0.0, 0.0),
                         noise_std=0.1, seed=3, rotation_angles=(0.5,))
        cfg = ExperimentConfig(spec=spec, methods=("NA", "CORAL-reg"), trials=4, seed_base=9,
                               lam=0.5, svm_grid=(0.1, 1.0),
                               deep=TrainConfig(hidden=8, coral_weight=2.0))
        assert json.dumps(config_to_dict(cfg)) == (
            '{"methods": ["NA", "CORAL-reg"], "trials": 4, "seed_base": 9, "lam": 0.5, '
            '"lda_lam": 1.0, "svm_grid": [0.1, 1.0], "svm_folds": 5, "svm_epochs": 20, '
            '"deep": {"hidden": 8, "iterations": 400, "learning_rate": 0.05, "batch_size": 64, '
            '"coral_weight": 2.0, "momentum": 0.9}, "csv_has_header": false, '
            '"target_csv_has_labels": true, "spec": {"d": 4, "K": 2, "n_source": 40, '
            '"n_target": 50, "separation": 2.0, "scales": [1.0, 0.5, 2.0, 1.0], '
            '"mean_shift": [0.0, 0.25, 0.0, 0.0], "noise_std": 0.1, "seed": 3, '
            '"rotation_angles": [0.5], "rotation_seed": null}}')

    def test_json_echo_of_a_file_config(self):
        cfg = ExperimentConfig(spec=None, methods=("NA",), trials=1, source_path="a.csv",
                               target_path="b.bin", csv_has_header=True,
                               target_csv_has_labels=False)
        assert json.dumps(config_to_dict(cfg)) == (
            '{"methods": ["NA"], "trials": 1, "seed_base": 0, "lam": 1.0, "lda_lam": 1.0, '
            '"svm_grid": [0.001, 0.01, 0.1, 1.0, 10.0], "svm_folds": 5, "svm_epochs": 20, '
            '"deep": {"hidden": 16, "iterations": 400, "learning_rate": 0.05, '
            '"batch_size": 64, "coral_weight": 1.0, "momentum": 0.9}, '
            '"csv_has_header": true, "target_csv_has_labels": false, '
            '"source_path": "a.csv", "target_path": "b.bin"}')

    @pytest.mark.parametrize("key, value", [
        ("svm_grid", ()), ("svm_grid", (np.inf,)), ("svm_grid", (1.0, np.nan)),
        ("svm_grid", (0.0, 1.0)), ("svm_grid", (-1.0,)), ("svm_folds", 1),
        ("svm_folds", 0), ("svm_epochs", 0),
    ], ids=["grid-empty", "grid-inf", "grid-nan", "grid-zero", "grid-negative", "folds-1",
            "folds-0", "epochs-0"])
    def test_svm_settings_checked_when_built(self, key, value):
        # checked even when no SVM method is requested
        with pytest.raises(InvalidInputError, match=f"^{key} must be"):
            ExperimentConfig(spec=zero_shift_spec(), methods=("LDA",), **{key: value})

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError, match="SVD-align"):
            ExperimentConfig(
                spec=zero_shift_spec(), methods=("SVD-align",), trials=1
            )

    def test_repeated_method_rejected(self):
        # a repeated method would get two results per trial in one aggregate
        with pytest.raises(InvalidInputError, match="methods repeat"):
            ExperimentConfig(spec=zero_shift_spec(), methods=("NA", "deep", "NA"), trials=1)

    def test_needs_spec_or_files(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(spec=None, methods=("NA",), trials=1)

    @pytest.mark.parametrize("paths", [
        {"source_path": "a.csv", "target_path": "b.csv"}, {"source_path": "a.csv"},
        {"target_path": "b.csv"},
    ], ids=["both", "source", "target"])
    def test_spec_and_file_paths_rejected_together(self, paths):
        # the spec was used and the paths silently ignored
        raw = {"spec": dataclasses.asdict(zero_shift_spec()), **paths}
        with pytest.raises(InvalidInputError, match="^config takes a spec or source\\+target "
                                                    "file paths, not both$"):
            config_from_dict(raw)

    def test_methods_default_to_na(self):
        raw = {"spec": dataclasses.asdict(zero_shift_spec())}
        assert config_from_dict(raw).methods == ("NA",)

    def test_mismatched_lda_needs_a_spec(self):
        # rejected when the config is read, before any method trains
        raw = {
            "methods": ["LDA", "CORAL-LDA-mismatched"],
            "source_path": "/tmp/a.csv",
            "target_path": "/tmp/b.csv",
        }
        with pytest.raises(InvalidInputError, match="CORAL-LDA-mismatched needs"):
            config_from_dict(raw)


class TestRunExperiment:
    def test_zero_shift_na_control(self):
        # identical populations: evaluation domain should score like the
        # training domain, within 3 points on the 20-trial mean
        cfg = ExperimentConfig(
            spec=zero_shift_spec(), methods=("NA",), trials=20, seed_base=0
        )
        report = run_experiment(cfg)
        na = report.methods["NA"]
        assert abs(na.target_acc_mean - na.source_acc_mean) <= 0.03

    def test_report_shapes_and_ranges(self):
        cfg = ExperimentConfig(
            spec=zero_shift_spec(n=120), methods=("NA", "CORAL-reg"), trials=3
        )
        report = run_experiment(cfg)
        assert report.config.trials == 3
        for name in ("NA", "CORAL-reg"):
            m = report.methods[name]
            assert len(m.target_acc) == 3
            assert all(0.0 <= a <= 1.0 for a in m.target_acc)
            assert all(0.0 <= a <= 1.0 for a in m.source_acc)
            assert all(x >= 0 for x in m.pre_dist)
            assert all(x >= 0 for x in m.post_dist)
            assert m.wall_clock_seconds >= 0.0

    @pytest.mark.parametrize("methods", [tuple(_FEATURE_MAPS), ("CORAL-reg",)])
    def test_svm_methods_share_two_kernel_runs_per_trial(self, monkeypatch, methods):
        # one cross-validation run (every training fold has 800 rows and
        # 3 classes) and one final-fit run, for all SVM methods together;
        # NA and target-recolor-source-direction train on the same source
        # matrix, one member
        runs = []
        kernel = classify._sgd

        def counting(Xa, *args):
            runs.append(Xa.shape[0])
            return kernel(Xa, *args)

        monkeypatch.setattr(classify, "_sgd", counting)
        cfg = ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=methods,
                               trials=2, svm_epochs=1)
        run_experiment(cfg)
        shared = {"NA", "target-recolor-source-direction"} <= set(methods)
        assert runs == [len(methods) - shared] * 4  # 4 members for the five, 1 for one

    def test_methods_on_the_untouched_source_share_one_fit(self):
        cfg = ExperimentConfig(spec=rotated_anisotropic_spec(0), trials=3,
                               methods=tuple(_FEATURE_MAPS), svm_epochs=2)
        methods = run_experiment(cfg).methods
        na, recolor = methods["NA"], methods["target-recolor-source-direction"]
        for key in ("chosen_C", "cv_acc"):
            assert len(na.extras[key]) == 3
            assert na.extras[key] == recolor.extras[key], key
        assert na.source_acc == recolor.source_acc

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(
            spec=zero_shift_spec(n=120), methods=("NA", "CORAL-reg"), trials=2
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for name in cfg.methods:
            np.testing.assert_array_equal(
                a.methods[name].target_acc, b.methods[name].target_acc
            )
            np.testing.assert_array_equal(
                a.methods[name].post_dist, b.methods[name].post_dist
            )

    def test_adaptation_direction_reduced_trials(self):
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=0),
            methods=("NA", "CORAL-reg", "whiten-both"),
            trials=5,
            seed_base=0,
        )
        report = run_experiment(cfg)
        na = report.methods["NA"].target_acc_mean
        coral = report.methods["CORAL-reg"].target_acc_mean
        wb = report.methods["whiten-both"].target_acc_mean
        assert coral > na + 0.05
        assert wb <= coral + 0.01
        # alignment must shrink the covariance gap on every trial
        m = report.methods["CORAL-reg"]
        assert all(p <= q for p, q in zip(m.post_dist, m.pre_dist))

    def test_analytical_and_recolor_variants_run(self):
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=1, n_source=400, n_target=400),
            methods=("CORAL-analytical", "target-recolor-source-direction"),
            trials=2,
        )
        report = run_experiment(cfg)
        an = report.methods["CORAL-analytical"]
        assert all(p <= q for p, q in zip(an.post_dist, an.pre_dist))
        rec = report.methods["target-recolor-source-direction"]
        assert all(0.0 <= a <= 1.0 for a in rec.target_acc)

    def test_whiten_both_regularizes_at_lam(self):
        # each domain whitened by its own (C + lam I)^{-1/2} at config.lam,
        # the lam CORAL-reg and target-recolor-source-direction use
        config = ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=("whiten-both",),
                                  trials=1, lam=0.5)
        trial = _make_trial(config, 0)
        got = _FEATURE_MAPS["whiten-both"](trial, config)
        want = coral.whiten_both_baseline(trial.Xs, trial.Xt, 0.5)
        for side, expected in zip(got, want):
            np.testing.assert_array_equal(side, expected)

    def test_lda_family_direction(self):
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=2),
            methods=("LDA", "CORAL-LDA", "CORAL-LDA-mismatched"),
            trials=3,
        )
        report = run_experiment(cfg)
        plain = report.methods["LDA"].target_acc_mean
        clda = report.methods["CORAL-LDA"].target_acc_mean
        assert clda >= plain - 0.01
        for name in ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched"):
            accs = report.methods[name].target_acc
            assert all(0.0 <= a <= 1.0 for a in accs)

    def test_matched_beats_unrelated_stats(self):
        # the same source discriminant, whitened with the target's
        # statistics or with an unrelated domain's
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=2, K=2, n_source=500, n_target=500),
            methods=("CORAL-LDA", "CORAL-LDA-mismatched"),
            trials=6,
        )
        rep = run_experiment(cfg)
        matched = rep.methods["CORAL-LDA"].target_acc_mean
        unrelated = rep.methods["CORAL-LDA-mismatched"].target_acc_mean
        assert matched >= unrelated - 0.01

    def test_lda_family_decomposes_each_whitening_covariance_once(self, monkeypatch):
        # the three LDA methods share one source operator for all K = 10
        # discriminants: per trial, no solve, one eigendecomposition per
        # distinct covariance (source, target, unrelated) and one stacked
        # fit_coral_lda call per CORAL variant, where each method on its
        # own made 3 solves and 4 eigendecompositions
        calls = count_eigendecompositions(monkeypatch)
        solves, coral_fits = [], []
        monkeypatch.setattr(np.linalg, "solve", lambda *a, _fn=np.linalg.solve:
                            solves.append(1) or _fn(*a))
        monkeypatch.setattr(lda, "fit_coral_lda", lambda *a, _fn=lda.fit_coral_lda:
                            coral_fits.append(1) or _fn(*a))
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=4, d=16, K=10, n_source=400, n_target=400),
            methods=("LDA", "CORAL-LDA", "CORAL-LDA-mismatched"),
            trials=2,
        )
        run_experiment(cfg)
        assert solves == []
        assert 0 < len(calls) <= 3 * cfg.trials
        assert set(calls) == {(16, 16)}
        assert len(coral_fits) == 2 * cfg.trials

    @pytest.mark.parametrize("spec", [
        rotated_anisotropic_spec(3),
        rotated_anisotropic_spec(5, d=96, K=4, n_source=1500, n_target=40),
        zero_shift_spec(seed=2),
        dataclasses.replace(zero_shift_spec(seed=2), rotation_angles=None, rotation_seed=9),
    ], ids=["frozen", "wide-blocks", "rotation-angles", "rotation-seed"])
    def test_unrelated_stats_are_the_standardized_unrelated_target(self, spec):
        want = linalg.mean_and_covariance(
            linalg.standardize(generate_shift(unrelated_spec(spec))[1].features)[0])
        got = runner._unrelated_stats(spec)
        assert got.n == want.n
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()

    @pytest.mark.parametrize("block_entries", [linalg._BLOCK_ENTRIES, 50])
    @pytest.mark.parametrize("name", sorted(BLOCKED_SPECS))
    def test_unrelated_stats_bytes_equal_one_expression_form(self, name, block_entries,
                                                             monkeypatch):
        # the unrelated target drawn in row blocks, 50 entries a block
        # giving a few rows per block and a short last block
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block_entries)
        spec = BLOCKED_SPECS[name]
        target = one_expression_shift(unrelated_spec(spec))[1]
        want = linalg.mean_and_covariance(linalg.standardize(target)[0])
        got = runner._unrelated_stats(spec)
        assert got.n == want.n
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()

    def test_unrelated_stats_peak_at_most_3_25_output_sized_arrays(self, traced_peak):
        # the unrelated domain peaks like generate_shift, while its source,
        # target and the target's pre-map draws live at once; its
        # standardized copy is made once the source is released
        n, d = 4000, 256
        spec = rotated_anisotropic_spec(0, d=d, n_source=n, n_target=n)
        small = rotated_anisotropic_spec(0, d=16, n_source=40, n_target=40)
        assert traced_peak(lambda: runner._unrelated_stats(spec),
                           lambda: runner._unrelated_stats(small), n * d * 8) <= 3.25

    def test_lda_trial_holds_no_raw_or_source_copy(self, traced_peak):
        # in arrays of n x d: the trial peaks while drawing its domains
        # (3.3); the unrelated domain, drawn whole before them, leaves only
        # its statistics.  Drawing it beside the two standardized domains
        # takes 4.35, and raw domains beside their standardized copies 5.4
        n, d = 4000, 256
        cfg = lda_config(n, d)
        members = [(name, cfg) for name in LDA_FAMILY]
        assert traced_peak(lambda: runner._lda_group(_make_trial(cfg, 0), cfg, members),
                           lambda: run_experiment(lda_config(40, 16)), n * d * 8) <= 3.5

    def test_each_trial_released_before_the_next_is_built(self, traced_peak):
        # three trials peak like one (3.3 arrays of n x d); a trial still
        # alive while the next draws its data adds its two standardized
        # domains (5.3)
        n, d = 4000, 256
        assert traced_peak(lambda: run_experiment(lda_config(n, d, trials=3)),
                           lambda: run_experiment(lda_config(40, 16)), n * d * 8) <= 3.75

    def test_unrelated_domain_drawn_only_for_the_mismatched_method(self, monkeypatch):
        cfg = lda_config(40, 16)
        got = _make_trial(cfg, 3).unrelated
        want = runner._unrelated_stats(dataclasses.replace(cfg.spec, seed=3))
        assert got.cov.tobytes() == want.cov.tobytes()

        def no_draw(spec):
            raise AssertionError("unrelated domain drawn")

        monkeypatch.setattr(runner, "_unrelated_stats", no_draw)
        cfg = dataclasses.replace(cfg, methods=("LDA", "CORAL-LDA"), trials=2)
        assert _make_trial(cfg, 0).unrelated is None
        assert list(run_experiment(cfg).methods) == ["LDA", "CORAL-LDA"]

    def test_every_domain_is_drawn_by_generate_shift(self, monkeypatch):
        # the unrelated domain too, each trial's before the trial's own
        seeds = []

        def record(spec, _fn=generate_shift):
            seeds.append(spec.seed)
            return _fn(spec)

        monkeypatch.setattr(runner, "generate_shift", record)
        cfg = dataclasses.replace(lda_config(40, 16, trials=2), seed_base=5)
        run_experiment(cfg)
        u = runner.UNRELATED_OFFSET
        assert seeds == [5 + u, 5, 6 + u, 6]

    def test_every_method_runs_without_a_dense_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        cfg = ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=METHODS, trials=1)
        report = run_experiment(cfg)
        assert list(report.methods) == list(METHODS)

    def test_deep_methods_smoke(self):
        spec = rotated_anisotropic_spec(seed=3, d=6, K=2, n_source=120, n_target=120)
        cfg = ExperimentConfig(
            spec=spec,
            methods=("deep", "deep-no-coral"),
            trials=1,
            deep=TrainConfig(hidden=8, iterations=60, batch_size=32),
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for name in ("deep", "deep-no-coral"):
            assert 0.0 <= a.methods[name].target_acc[0] <= 1.0
            assert a.methods[name].target_acc[0] == b.methods[name].target_acc[0]
        # no-coral leaves a bigger residual distance than the aligned run
        assert a.methods["deep"].post_dist[0] >= 0.0

    def test_deep_accuracies_are_the_argmax_scores_of_train_joint(self):
        spec = rotated_anisotropic_spec(seed=4, d=6, K=3, n_source=150, n_target=150)
        cfg = ExperimentConfig(
            spec=spec,
            methods=("deep", "deep-no-coral"),
            trials=1,
            deep=TrainConfig(hidden=8, iterations=30, batch_size=32),
        )
        report = run_experiment(cfg)
        trial = _make_trial(cfg, cfg.seed_base)
        for name, weight in (("deep", cfg.deep.coral_weight), ("deep-no-coral", 0.0)):
            trained, _ = train_deep(trial, dataclasses.replace(cfg.deep, coral_weight=weight))
            m = report.methods[name]
            src_pred = np.argmax(forward(trained, trial.Xs), axis=1)
            tgt_pred = np.argmax(forward(trained, trial.Xt), axis=1)
            assert m.source_acc[0] == np.mean(src_pred == trial.ys)
            assert m.target_acc[0] == np.mean(tgt_pred == trial.yt)

    def test_deep_methods_report_their_loss_balance(self):
        # each trial's mean cross-entropy and weighted alignment loss over
        # the last LOSS_BALANCE_STEPS of its LossReport curves
        spec = rotated_anisotropic_spec(seed=5, d=6, K=3, n_source=150, n_target=150)
        cfg = ExperimentConfig(
            spec=spec, methods=("deep", "deep-no-coral", "LDA"), trials=2,
            deep=TrainConfig(hidden=8, iterations=LOSS_BALANCE_STEPS + 10,
                             batch_size=32, coral_weight=2.0),
        )
        report = run_experiment(cfg)
        assert report.methods["LDA"].extras == {}
        for name, weight in (("deep", 2.0), ("deep-no-coral", 0.0)):
            want_class, want_coral = [], []
            for t in range(cfg.trials):
                trial = _make_trial(cfg, t)
                _, rep = train_deep(trial, dataclasses.replace(cfg.deep, coral_weight=weight))
                want_class.append(np.mean(rep.class_loss[10:]))
                want_coral.append(weight * np.mean(rep.coral_loss[10:]))
            extras = report.methods[name].extras
            assert extras == {"end_class_loss": want_class,
                              "end_weighted_coral_loss": want_coral}
            assert report.methods[name].to_dict()["end_class_loss"] == want_class
        assert min(report.methods["deep"].extras["end_weighted_coral_loss"]) > 0.0

    def test_default_deep_settings_train_every_default_trial(self):
        # the default experiment: 20 trials of the frozen shift, seeds 0-19
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=0), methods=("deep",)
        )
        assert cfg.trials == 20 and cfg.seed_base == 0
        try:
            report = run_experiment(cfg)
        except NumericalError as exc:
            pytest.fail(f"default deep training diverged: {exc}")
        accs = report.methods["deep"].target_acc
        assert len(accs) == 20
        assert all(0.0 <= a <= 1.0 for a in accs)

    @pytest.mark.parametrize("methods", [("deep", "deep-no-coral"), ("deep-no-coral",)])
    def test_deep_methods_share_one_lockstep_run_per_trial(self, monkeypatch, methods):
        runs = []
        kernel = runner._train_members

        def counting(net, Xs, ys, Xt, cfg, weights, *args):
            runs.append(list(weights))
            return kernel(net, Xs, ys, Xt, cfg, weights, *args)

        monkeypatch.setattr(runner, "_train_members", counting)
        spec = rotated_anisotropic_spec(seed=7, d=6, K=3, n_source=150, n_target=150)
        cfg = ExperimentConfig(spec=spec, methods=methods, trials=2,
                               deep=TrainConfig(hidden=8, iterations=20, batch_size=32))
        run_experiment(cfg)
        weights = {"deep": cfg.deep.coral_weight, "deep-no-coral": 0.0}
        assert runs == [[weights[name] for name in methods]] * cfg.trials

    @pytest.mark.parametrize("methods", [("deep", "deep-no-coral"), ("deep-no-coral", "deep")])
    def test_diverging_deep_run_names_its_method_and_trial_seed(self, methods):
        # weight 5 diverges on trial 10 of the default experiment (TrainConfig)
        cfg = ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=methods,
                               trials=1, seed_base=10, deep=TrainConfig(coral_weight=5.0))
        with pytest.raises(NumericalError, match=(
                r"^deep on trial seed 10: training diverged at iteration 86: "
                r"logit magnitude 1\.03e\+195 \(reduce")):
            run_experiment(cfg)

    def test_file_based_config(self, tmp_path):
        from coralign.bench.data import generate_shift

        src, tgt = generate_shift(zero_shift_spec(n=120))
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(src, sp)
        save_csv(tgt, tp)
        cfg = ExperimentConfig(
            spec=None,
            methods=("NA",),
            trials=1,
            source_path=str(sp),
            target_path=str(tp),
        )
        report = run_experiment(cfg)
        assert 0.0 <= report.methods["NA"].target_acc[0] <= 1.0

    def test_report_serializes_to_json(self):
        cfg = ExperimentConfig(
            spec=zero_shift_spec(n=120), methods=("NA",), trials=2
        )
        report = run_experiment(cfg)
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["trials"] == 2
        assert "NA" in parsed["methods"]
        assert len(parsed["methods"]["NA"]["target_acc"]) == 2


def trial_bytes(trial):
    """The bytes of every array a trial holds."""
    stats = [s for s in (trial.stats_s, trial.stats_t, trial.unrelated) if s is not None]
    arrays = [trial.Xs, trial.ys, trial.Xt, trial.yt] + [a for s in stats for a in (s.mean, s.cov)]
    return [None if a is None else a.tobytes() for a in arrays]


class TestFilePairTrial:
    """A file pair's trial depends on no seed: it is read and standardized
    once per run and serves every trial, which is safe because no method
    group writes into a trial's arrays."""

    SPEC = rotated_anisotropic_spec(seed=2, n_source=200, n_target=200)

    def _bin_config(self, tmp_path, spec=SPEC, **overrides):
        src, tgt = generate_shift(spec)
        sp, tp = tmp_path / f"s{spec.d}.bin", tmp_path / f"t{spec.d}.bin"
        save_bin(src, sp)
        save_bin(tgt, tp)
        return ExperimentConfig(spec=None, source_path=str(sp), target_path=str(tp),
                                **{"methods": ("NA", "LDA"), "trials": 3, **overrides})

    def test_read_and_standardized_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        for name in ("load_dataset", "standardize"):
            monkeypatch.setattr(runner, name, lambda *a, _fn=getattr(runner, name), _name=name:
                                calls.append(_name) or _fn(*a))
        run_experiment(self._bin_config(tmp_path))
        assert sorted(calls) == ["load_dataset"] * 2 + ["standardize"] * 2

    def test_bin_pair_run_peaks_like_a_spec_trial(self, tmp_path, traced_peak):
        # in arrays of n x d: both domains as read, then their standardized
        # copies (3.2); reading each file through two byte copies and a
        # cast peaked at 5.0
        n, d = 4000, 256
        big, small = (self._bin_config(tmp_path, lda_config(m, width).spec,
                                       methods=("LDA", "CORAL-LDA"))
                      for m, width in ((n, d), (40, 16)))
        assert traced_peak(lambda: run_experiment(big), lambda: run_experiment(small),
                           n * d * 8) <= 3.5

    def test_each_trial_equals_a_one_trial_run_at_its_seed(self, tmp_path):
        cfg = self._bin_config(tmp_path, seed_base=4)
        got = per_trial_results(cfg)
        for t in range(3):
            one = per_trial_results(dataclasses.replace(cfg, trials=1, seed_base=4 + t))
            for name, fields in one.items():
                assert [f[t] for f in got[name]] == [f[0] for f in fields]

    @pytest.mark.parametrize("source", ["spec", "file pair"])
    def test_no_method_writes_into_the_trial(self, tmp_path, monkeypatch, source):
        built, make = [], runner._make_trial

        def recording_make(*args):
            trial = make(*args)
            built.append((trial, trial_bytes(trial)))
            return trial

        monkeypatch.setattr(runner, "_make_trial", recording_make)
        small_deep = TrainConfig(hidden=4, iterations=10, batch_size=16)
        if source == "spec":
            cfg = ExperimentConfig(spec=self.SPEC, methods=METHODS, trials=1, deep=small_deep)
        else:
            cfg = self._bin_config(tmp_path, trials=2, deep=small_deep,
                                   methods=tuple(m for m in METHODS
                                                 if m != "CORAL-LDA-mismatched"))
        run_experiment(cfg)
        assert len(built) == 1
        for trial, at_build in built:
            assert trial_bytes(trial) == at_build


RESULT_FIELDS = ("target_acc", "source_acc", "pre_dist", "post_dist", "domain_distance")


def per_trial_results(config):
    """Method name -> its per-trial result lists, in RESULT_FIELDS order."""
    report = run_experiment(config)
    return {name: tuple(getattr(m, f) for f in RESULT_FIELDS)
            for name, m in report.methods.items()}


class TestMethodGroups:
    def test_every_method_belongs_to_exactly_one_group(self):
        members = [name for _, names in _GROUPS for name in names]
        assert sorted(members) == sorted(METHODS)
        assert len(members) == len(set(members))

    def test_results_do_not_depend_on_group_mates(self):
        # each LDA-family and deep method gives the same per-trial results
        # alone, with its whole group and in reversed request order
        grouped = ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched", "deep", "deep-no-coral")
        config = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=6, d=6, K=3, n_source=150, n_target=150),
            methods=grouped, trials=2,
            deep=TrainConfig(hidden=8, iterations=30, batch_size=32),
        )
        together = per_trial_results(config)
        reversed_order = dataclasses.replace(config, methods=grouped[::-1])
        assert per_trial_results(reversed_order) == together
        for name in grouped:
            alone = per_trial_results(dataclasses.replace(config, methods=(name,)))
            assert alone == {name: together[name]}


# Per-trial results of trials 0 and 1 of all ten methods on
# rotated_anisotropic_spec(0), recorded from the runner before its
# methods were grouped (one handler per non-SVM method), in
# RESULT_FIELDS order.
FROZEN_TWO_TRIALS = {
    "NA": (
        [0.86, 0.856],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [8.29528206922352, 8.651035421445753],
        [0.44336330915037475, 0.41104831775802275],
    ),
    "CORAL-reg": (
        [0.986, 0.983],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [2.1688505781708174, 2.017706586111377],
        [0.10270956340238727, 0.08127237379432814],
    ),
    "CORAL-analytical": (
        [0.991, 0.994],
        [0.997, 1.0],
        [8.29528206922352, 8.651035421445753],
        [1.4176012500475547e-14, 1.3549273007011881e-14],
        [6.31307748283155e-16, 5.196810709553494e-16],
    ),
    "whiten-both": (
        [0.963, 0.945],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [1.1040553731625018, 1.107802751817928],
        [0.30576102272113415, 0.32415042285576345],
    ),
    "target-recolor-source-direction": (
        [0.956, 0.949],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [4.4561707731719205, 4.224442912262161],
        [0.3364652565112761, 0.2867466154142197],
    ),
    "LDA": (
        [0.86, 0.857],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [8.29528206922352, 8.651035421445753],
        [0.44336330915037475, 0.41104831775802275],
    ),
    "CORAL-LDA": (
        [0.955, 0.95],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [8.29528206922352, 8.651035421445753],
        [0.0, 0.0],
    ),
    "CORAL-LDA-mismatched": (
        [0.84, 0.841],
        [1.0, 1.0],
        [8.29528206922352, 8.651035421445753],
        [8.29528206922352, 8.651035421445753],
        [0.6703276285072884, 0.6659105323011664],
    ),
    "deep": (
        [0.952, 0.949],
        [1.0, 1.0],
        [3.7527315767442256e-13, 1.4768561039743945e-13],
        [0.014230115384265142, 0.01807689428980014],
        [0.4927814865981588, 0.6225264505197876],
    ),
    "deep-no-coral": (
        [0.874, 0.817],
        [1.0, 1.0],
        [3.7527315767442256e-13, 1.4768561039743945e-13],
        [64.25557591655478, 70.07577066585282],
        [1.2369266986885723, 1.1298948876443398],
    ),
}

# CORAL-analytical aligns the covariances exactly, so its post distance
# and domain distance are round-off, whose digits depend on the BLAS
# kernel; they are checked to be round-off rather than pinned.
ROUND_OFF = {("CORAL-analytical", "post_dist"), ("CORAL-analytical", "domain_distance")}


class TestFrozenConfigResults:
    def test_two_trials_of_every_method_match_the_recorded_results(self):
        config = ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=METHODS,
                                  trials=2)
        got = per_trial_results(config)
        assert list(got) == list(FROZEN_TWO_TRIALS)
        for name, want in FROZEN_TWO_TRIALS.items():
            for field, g, w in zip(RESULT_FIELDS, got[name], want):
                if field.endswith("_acc"):
                    # equal under every OpenBLAS kernel measured
                    assert g == w, (name, field)
                elif (name, field) in ROUND_OFF:
                    assert max(g) < 1e-12, (name, field)
                else:
                    # distances differ by up to 1.1e-13 across kernels
                    assert g == pytest.approx(w, rel=1e-9), (name, field)


class TestChosenC:
    def test_svm_methods_report_each_trials_cross_validated_C(self):
        # chosen_C is a one-member cross-validated fit of the method's source;
        # cv_acc the mean over folds of serial _cv_accuracies at that C
        config = ExperimentConfig(spec=rotated_anisotropic_spec(0), trials=2,
                                  methods=tuple(_FEATURE_MAPS) + ("LDA", "CORAL-LDA"))
        report = run_experiment(config).to_dict()["methods"]
        lda_keys = set(report["LDA"])
        assert "chosen_C" not in lda_keys and set(report["CORAL-LDA"]) == lda_keys
        assert "cv_acc" not in lda_keys
        grid = sorted(config.svm_grid)
        chosen = {}
        for name, fmap in _FEATURE_MAPS.items():
            assert set(report[name]) == lda_keys | {"chosen_C", "cv_acc"}
            want, want_acc = [], []
            for t in range(2):
                trial = _make_trial(config, t)
                Xs = fmap(trial, config)[0]
                C = classify.fit_cross_validated([Xs], trial.ys, config.svm_grid, config.svm_folds,
                                                 trial.seed, config.svm_epochs)[0].C
                perm = np.random.default_rng(trial.seed).permutation(len(trial.ys))
                accs = classify._cv_accuracies(classify._stack_members([Xs], perm),
                                               trial.ys[perm], grid, config.svm_folds,
                                               trial.seed, config.svm_epochs)
                want.append(C)
                want_acc.append(accs[0, grid.index(C)].mean())
            assert report[name]["chosen_C"] == want, name
            assert report[name]["cv_acc"] == want_acc, name
            assert all(0.0 <= a <= 1.0 for a in want_acc)
            chosen[name] = want
        assert len({C for Cs in chosen.values() for C in Cs}) > 1


class TestLambdaSweep:
    def test_single_value_no_analytical_gives_single_row(self):
        cfg = ExperimentConfig(
            spec=zero_shift_spec(n=120), methods=("CORAL-reg",), trials=1
        )
        rep = lambda_sweep(cfg, [1.0], include_analytical=False)
        assert len(rep.rows) == 1
        assert rep.rows[0]["lam"] == 1.0

    def test_rows_cover_lambdas_plus_analytical(self):
        cfg = ExperimentConfig(
            spec=rotated_anisotropic_spec(seed=5, n_source=400, n_target=400),
            methods=("CORAL-reg",),
            trials=2,
        )
        rep = lambda_sweep(cfg, [0.01, 1.0])
        lams = [r["lam"] for r in rep.rows]
        assert lams == [0.01, 1.0, "analytical"]
        accs = [r["target_acc_mean"] for r in rep.rows]
        assert max(accs) - min(accs) <= 0.05
        assert json.dumps(rep.to_dict())

    def test_empty_lambda_list_without_analytical_rejected(self):
        cfg = ExperimentConfig(spec=zero_shift_spec(n=120), methods=("CORAL-reg",), trials=1)
        with pytest.raises(InvalidInputError, match="empty lambda list"):
            lambda_sweep(cfg, [], include_analytical=False)


def reference_sweep(config, lambdas, include_analytical):
    """Oracle: the sweep as one run_experiment per row, each building
    every trial and fitting its one method alone."""
    runs = [(float(lam), dict(methods=("CORAL-reg",), lam=float(lam))) for lam in lambdas]
    if include_analytical:
        runs.append(("analytical", dict(methods=("CORAL-analytical",))))
    rows = []
    for lam, overrides in runs:
        cfg = dataclasses.replace(config, **overrides)
        m = run_experiment(cfg).methods[cfg.methods[0]]
        rows.append({"lam": lam, "target_acc": m.target_acc,
                     "target_acc_mean": m.target_acc_mean, "target_acc_std": m.target_acc_std})
    return rows


class TestLambdaSweepInOnePass:
    # Each row is a member of one stacked fit per trial, bit for bit its
    # lone fit under the default SkylakeX kernel (see classify).
    SPEC = rotated_anisotropic_spec(seed=5, n_source=300, n_target=300)

    @pytest.mark.parametrize("include_analytical", [True, False])
    def test_rows_equal_one_run_per_row(self, include_analytical):
        cfg = ExperimentConfig(spec=self.SPEC, methods=("NA",), trials=2, seed_base=3)
        lambdas = [0.001, 0.1, 1.0, 10.0]
        got = lambda_sweep(cfg, lambdas, include_analytical).to_dict()["rows"]
        # JSON text compares every float exactly, NaN included
        assert json.dumps(got) == json.dumps(reference_sweep(cfg, lambdas, include_analytical))

    def test_file_config_rows_equal_one_run_per_row(self, tmp_path):
        from coralign.bench.data import generate_shift

        src, tgt = generate_shift(self.SPEC)
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(src, sp)
        save_csv(tgt, tp)
        cfg = ExperimentConfig(spec=None, methods=("CORAL-reg",), trials=2,
                               source_path=str(sp), target_path=str(tp))
        got = lambda_sweep(cfg, [0.01, 1.0]).to_dict()["rows"]
        assert json.dumps(got) == json.dumps(reference_sweep(cfg, [0.01, 1.0], True))

    def test_each_trial_built_once_and_fitted_in_one_call(self, monkeypatch):
        shifts, sgd_runs = [], []
        generate, kernel = runner.generate_shift, classify._sgd

        def counting_shift(spec):
            shifts.append(spec.seed)
            return generate(spec)

        def counting_sgd(Xa, *args):
            sgd_runs.append(Xa.shape[0])
            return kernel(Xa, *args)

        monkeypatch.setattr(runner, "generate_shift", counting_shift)
        monkeypatch.setattr(classify, "_sgd", counting_sgd)
        cfg = ExperimentConfig(spec=self.SPEC, methods=("CORAL-reg",), trials=3, seed_base=2)
        rep = lambda_sweep(cfg, [0.001, 0.01, 0.1, 1.0])
        assert len(rep.rows) == 5
        assert shifts == [2, 3, 4]
        # 300 rows in 5 folds: one fold group, then the final fit, each
        # run stepping the five rows' sources as members
        assert sgd_runs == [5] * 6

    def test_runs_only_its_own_members(self, monkeypatch):
        # a config listing every method: the sweep's members are its rows,
        # so no LDA or deep method runs and the SVM fit steps only the rows
        sgd_runs = []
        kernel = classify._sgd

        def not_called(*args, **kwargs):
            raise AssertionError("a method outside the sweep ran")

        def counting_sgd(Xa, *args):
            sgd_runs.append(Xa.shape[0])
            return kernel(Xa, *args)

        monkeypatch.setattr(lda, "fit_lda", not_called)
        monkeypatch.setattr(runner, "_train_members", not_called)
        monkeypatch.setattr(classify, "_sgd", counting_sgd)
        cfg = ExperimentConfig(spec=self.SPEC, methods=METHODS, trials=1)
        rep = lambda_sweep(cfg, [0.01, 1.0])
        assert [row["lam"] for row in rep.rows] == [0.01, 1.0, "analytical"]
        # one fold group, then the final fit, each stepping the three rows
        assert sgd_runs == [3, 3]
