"""CLI tests: subcommand behavior and the exit-code contract.

main() is invoked in-process with explicit argv; one test goes through
``python -m`` to cover the module entry point.  Exit codes: 0 success,
1 invalid input, 2 numerical failure, 3 failed check in check-mode
commands.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coralign
from coralign import coral, lda, linalg
from coralign.bench.cli import main
from coralign.bench.data import Dataset, ShiftSpec, generate_shift, rotated_anisotropic_spec
from coralign.bench import cli, runner
from coralign.bench.io import load_bin, load_csv, save_bin, save_csv
from coralign.bench.runner import (ExperimentConfig, config_from_dict, config_to_dict,
                                   run_experiment)
from coralign.deep import TrainConfig
from coralign.errors import NumericalError
from coralign.linalg import mean_and_covariance, psd_operator


def small_spec(seed=0, n=80, d=4, K=2):
    return ShiftSpec(
        d=d, K=K, n_source=n, n_target=n,
        separation=2.0, scales=(2.0, 0.5) + (1.0,) * (d - 2),
        mean_shift=(0.0,) * d, noise_std=0.1, seed=seed,
    )


@pytest.fixture()
def shift_files(tmp_path):
    src, tgt = generate_shift(small_spec())
    sp = tmp_path / "src.csv"
    tp = tmp_path / "tgt.csv"
    save_csv(src, sp)
    save_csv(tgt, tp)
    return sp, tp, src, tgt


class TestTransform:
    def test_regularized_matches_library_call(self, shift_files, tmp_path):
        sp, tp, src, tgt = shift_files
        out = tmp_path / "out.csv"
        rc = main([
            "transform", "--source", str(sp), "--target", str(tp),
            "--lambda", "0.5", "--out", str(out),
            "--source-labels", "--target-labels",
        ])
        assert rc == 0
        got = load_csv(out, has_labels=True)
        tr = coral.fit_regularized(src.features, tgt.features, 0.5)
        want = coral.apply_to_features(tr, src.features)
        np.testing.assert_array_equal(got.features, want)
        np.testing.assert_array_equal(got.labels, src.labels)

    def test_analytical_flag(self, shift_files, tmp_path):
        sp, tp, src, tgt = shift_files
        out = tmp_path / "out.bin"
        rc = main([
            "transform", "--source", str(sp), "--target", str(tp),
            "--analytical", "--out", str(out),
            "--source-labels", "--target-labels",
        ])
        assert rc == 0
        got = load_bin(out)
        tr = coral.fit_analytical(src.features, tgt.features)
        want = coral.apply_to_features(tr, src.features)
        np.testing.assert_array_equal(got.features, want)

    @pytest.mark.parametrize("n_source,n_target", [(9, 12), (9, 40), (40, 12)],
                             ids=["both-wide", "source-wide", "target-wide"])
    @pytest.mark.parametrize("mode", [["--lambda", "0.5"], ["--analytical"]],
                             ids=["regularized", "analytical"])
    def test_wide_pair_gaps_match_dense_covariances(self, tmp_path, capsys,
                                                    n_source, n_target, mode):
        # pairs with a side of fewer rows than its 16 dimensions
        rng = np.random.default_rng(17)
        Ds = 3.0 * rng.standard_normal((n_source, 16)) + 5.0
        Dt = rng.standard_normal((n_target, 16)) @ rng.standard_normal((16, 16))
        sp, tp, out = tmp_path / "s.csv", tmp_path / "t.csv", tmp_path / "o.csv"
        save_csv(Dataset(Ds, None), sp)
        save_csv(Dataset(Dt, None), tp)
        rc = main(["transform", "--source", str(sp), "--target", str(tp),
                   "--out", str(out), *mode])
        assert rc == 0
        moved = load_csv(out).features
        ct = mean_and_covariance(Dt).cov
        want = [np.linalg.norm(mean_and_covariance(X).cov - ct) for X in (Ds, moved)]
        line = capsys.readouterr().out
        printed = [float(x) for x in line.split("covariance gap ")[1].split(" -> ")]
        np.testing.assert_allclose(printed, want, rtol=1e-5)
        if mode == ["--analytical"] and n_source > 16:
            # a full-rank source is moved onto C_T itself
            assert printed[1] <= 1e-10 * np.linalg.norm(ct)

    def test_missing_file_exits_1(self, tmp_path):
        rc = main([
            "transform", "--source", str(tmp_path / "no.csv"),
            "--target", str(tmp_path / "no2.csv"),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1

    def test_nonpositive_lambda_exits_1(self, shift_files, tmp_path):
        sp, tp, _, _ = shift_files
        rc = main([
            "transform", "--source", str(sp), "--target", str(tp),
            "--lambda", "0", "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1


class TestLdaCommand:
    def _binary_csv(self, tmp_path, seed=0, name="train.csv"):
        src, tgt = generate_shift(small_spec(seed=seed))
        p = tmp_path / name
        save_csv(src, p)
        return p, src, tgt

    def test_plain_fit_matches_library(self, tmp_path):
        p, src, _ = self._binary_csv(tmp_path)
        out = tmp_path / "w.csv"
        rc = main(["lda", "--train", str(p), "--mode", "plain",
                   "--lam", "0.7", "--out", str(out)])
        assert rc == 0
        w = load_csv(out).features[0]
        mu1 = src.features[src.labels == 1].mean(axis=0)
        mu0 = src.features[src.labels == 0].mean(axis=0)
        cov = mean_and_covariance(src.features).cov
        want = lda.fit_lda(mu1 - mu0, psd_operator(cov, 0.7))
        np.testing.assert_array_equal(w, want)

    def test_coral_mode_uses_stats_file(self, tmp_path):
        p, src, tgt = self._binary_csv(tmp_path)
        stats_p = tmp_path / "stats.csv"
        save_csv(Dataset(tgt.features, None), stats_p)
        out = tmp_path / "w.csv"
        rc = main(["lda", "--train", str(p), "--mode", "coral",
                   "--stats-from", str(stats_p), "--out", str(out)])
        assert rc == 0
        w = load_csv(out).features[0]
        mu1 = src.features[src.labels == 1].mean(axis=0)
        mu0 = src.features[src.labels == 0].mean(axis=0)
        cov_s = mean_and_covariance(src.features).cov
        cov_t = mean_and_covariance(tgt.features).cov
        want = lda.fit_coral_lda(mu1 - mu0, psd_operator(cov_s, 1.0), psd_operator(cov_t, 1.0))
        np.testing.assert_array_equal(w, want)

    def test_weights_printed_without_out(self, tmp_path, capsys):
        p, src, _ = self._binary_csv(tmp_path)
        assert main(["lda", "--train", str(p)]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        mu1 = src.features[src.labels == 1].mean(axis=0)
        mu0 = src.features[src.labels == 0].mean(axis=0)
        cov = mean_and_covariance(src.features).cov
        want = lda.fit_lda(mu1 - mu0, psd_operator(cov, 1.0))
        np.testing.assert_array_equal([float(v) for v in printed.split(",")], want)

    def test_unlabeled_training_file_exits_1(self, tmp_path, capsys):
        p = tmp_path / "train.bin"
        save_bin(Dataset(generate_shift(small_spec())[0].features, None), p)
        assert main(["lda", "--train", str(p)]) == 1
        assert capsys.readouterr().err == "error: training dataset must carry labels\n"

    def test_three_classes_exit_1(self, tmp_path, capsys):
        p = tmp_path / "train.csv"
        save_csv(generate_shift(small_spec(K=3))[0], p)
        assert main(["lda", "--train", str(p)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: the lda command fits a binary discriminant")

    def test_coral_mode_requires_stats(self, tmp_path):
        p, _, _ = self._binary_csv(tmp_path)
        rc = main(["lda", "--train", str(p), "--mode", "coral",
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1

    @pytest.mark.parametrize("mode", ["plain", "coral"])
    def test_weights_come_from_one_source_operator(self, tmp_path, monkeypatch, mode):
        # one eigendecomposition per covariance, no dense solve
        p, _, tgt = self._binary_csv(tmp_path)
        stats_p = tmp_path / "stats.csv"
        save_csv(Dataset(tgt.features, None), stats_p)
        calls = []
        monkeypatch.setattr(linalg, "sym_eigen", lambda *a, _fn=linalg.sym_eigen, **k:
                            calls.append(1) or _fn(*a, **k))
        monkeypatch.setattr(np.linalg, "solve", None)
        rc = main(["lda", "--train", str(p), "--mode", mode, "--stats-from", str(stats_p),
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 0
        assert len(calls) == (1 if mode == "plain" else 2)

    def test_singular_covariance_exits_2(self, tmp_path):
        # duplicated column makes the covariance singular; with lam 0 the
        # plain fit must fail numerically, not silently
        X = np.random.default_rng(0).standard_normal((40, 2))
        X = np.hstack([X, X[:, :1]])
        y = np.array([0, 1] * 20)
        p = tmp_path / "sing.csv"
        save_csv(Dataset(X, y), p)
        rc = main(["lda", "--train", str(p), "--mode", "plain",
                   "--lam", "0", "--out", str(tmp_path / "w.csv")])
        assert rc == 2

    def test_singular_covariance_exits_2_in_coral_mode(self, tmp_path, capsys):
        # the same duplicated column: the coral fit obeys the plain fit's rule
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        X = np.hstack([X, X[:, :1]])
        p, stats_p = tmp_path / "sing.csv", tmp_path / "stats.csv"
        save_csv(Dataset(X, np.array([0, 1] * 20)), p)
        save_csv(Dataset(rng.standard_normal((40, 3)), None), stats_p)
        rc = main(["lda", "--train", str(p), "--mode", "coral", "--stats-from", str(stats_p),
                   "--lam", "0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical failure: covariance not invertible: C_S + lam I has rank 2 of 3\n")


class TestBenchCommand:
    def _config_file(self, tmp_path, **overrides):
        cfg = {
            "spec": {
                "d": 4, "K": 2, "n_source": 80, "n_target": 80,
                "separation": 2.0, "scales": [2.0, 0.5, 1.0, 1.0],
                "mean_shift": [0.0, 0.0, 0.0, 0.0],
                "noise_std": 0.1, "seed": 0,
            },
            "methods": ["NA"],
            "trials": 2,
        }
        cfg.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_report_written(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "rep.json"
        rc = main(["bench", "--config", str(cfg), "--report-out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["trials"] == 2
        assert len(rep["methods"]["NA"]["target_acc"]) == 2
        assert "NA" in capsys.readouterr().out

    def test_report_printed_without_report_out(self, tmp_path, capsys):
        assert main(["bench", "--config", str(self._config_file(tmp_path))]) == 0
        summary, blob = capsys.readouterr().out.split("\n", 1)
        assert summary.startswith("NA: target ")
        assert len(json.loads(blob)["methods"]["NA"]["target_acc"]) == 2

    def test_report_out_into_a_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rep.json"
        rc = main(["bench", "--config", str(self._config_file(tmp_path)),
                   "--report-out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")

    @staticmethod
    def _patch_runs(monkeypatch, error):
        def run(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_experiment", run)
        monkeypatch.setattr(cli, "lambda_sweep", run)

    @pytest.mark.parametrize("command", ["bench", "sweep-lambda"])
    def test_report_out_checked_before_the_first_trial(self, tmp_path, capsys, monkeypatch,
                                                       command):
        self._patch_runs(monkeypatch, AssertionError("the run started"))
        out = tmp_path / "missing" / "rep.json"
        rc = main([command, "--config", str(self._config_file(tmp_path)),
                   "--report-out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("command", ["bench", "sweep-lambda"])
    def test_failed_run_keeps_an_existing_report(self, tmp_path, capsys, monkeypatch, command):
        self._patch_runs(monkeypatch, NumericalError("trial diverged"))
        out = tmp_path / "rep.json"
        out.write_text("earlier report\n")
        rc = main([command, "--config", str(self._config_file(tmp_path)),
                   "--report-out", str(out)])
        assert rc == 2
        assert out.read_text() == "earlier report\n"

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {tmp_path / 'none.json'}: ")

    @pytest.mark.parametrize("fault, message", [
        ("unlabeled source", "error: source dataset must carry labels\n"),
        ("differing widths", "error: source and target dimensions differ\n"),
    ])
    def test_unusable_file_pair_exits_1(self, tmp_path, capsys, fault, message):
        src, tgt = generate_shift(small_spec())
        if fault == "unlabeled source":
            src = Dataset(src.features, None)
        else:
            tgt = Dataset(tgt.features[:, 1:], tgt.labels)
        paths = [str(tmp_path / "s.bin"), str(tmp_path / "t.bin")]
        save_bin(src, paths[0])
        save_bin(tgt, paths[1])
        cfg = self._config_file(tmp_path, spec=None, source_path=paths[0],
                                target_path=paths[1])
        assert main(["bench", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == message

    def test_spec_and_file_paths_together_exit_1(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, source_path=str(tmp_path / "s.csv"),
                                target_path=str(tmp_path / "t.csv"))
        assert main(["bench", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: config takes a spec or source+target file paths, not both\n")

    @pytest.mark.parametrize("command", ["bench", "sweep-lambda"])
    def test_report_without_target_labels_is_strict_json(self, tmp_path, command):
        # an accuracy without target labels is NaN, written as null
        src, tgt = generate_shift(small_spec())
        paths = [str(tmp_path / "s.bin"), str(tmp_path / "t.bin")]
        save_bin(src, paths[0])
        save_bin(Dataset(tgt.features, None), paths[1])
        cfg = self._config_file(tmp_path, spec=None, source_path=paths[0],
                                target_path=paths[1], methods=["CORAL-reg"])
        out = tmp_path / "rep.json"
        argv = [command, "--config", str(cfg), "--report-out", str(out)]
        assert main(argv + (["--lambdas", "1"] if command == "sweep-lambda" else [])) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        rep = json.loads(out.read_text(), parse_constant=reject)
        rows = rep["rows"] if command == "sweep-lambda" else rep["methods"].values()
        for row in rows:
            assert row["target_acc"] == [None, None]
            assert row["target_acc_mean"] is None and row["target_acc_std"] is None

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "rep.json"
        rc = main(["bench", "--config", str(cfg), "--trials", "3",
                   "--seed", "17", "--report-out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["trials"] == 3
        assert rep["seed_base"] == 17

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        rc = main(["bench", "--config", str(cfg), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_diverging_deep_run_exits_2_naming_method_and_trial_seed(self, tmp_path, capsys):
        # alignment weight 5 diverges on trial seed 10 of the frozen shift
        cfg = ExperimentConfig(spec=rotated_anisotropic_spec(10), methods=("deep", "deep-no-coral"),
                               trials=1, seed_base=10, deep=TrainConfig(coral_weight=5.0))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["bench", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: deep on trial seed 10: training diverged at iteration 86: "
            "logit magnitude 1.03e+195")

    def test_unknown_method_exits_1(self, tmp_path):
        cfg = self._config_file(tmp_path, methods=["teleport"])
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1

    def test_mismatched_lda_without_spec_exits_1(self, tmp_path, capsys):
        # the data files are never written: the config fails before they are read
        cfg = self._config_file(tmp_path, spec=None, methods=["CORAL-LDA-mismatched"],
                                source_path=str(tmp_path / "s.csv"),
                                target_path=str(tmp_path / "t.csv"))
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "CORAL-LDA-mismatched" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["bench", "--config", str(p)])
        assert rc == 1

    @pytest.mark.parametrize("case, message", [
        ("unknown deep key", "unknown deep keys: ['depth']"),
        ("unknown spec key", "unknown spec keys: ['dims']"),
        ("spec without scales", "spec is missing keys: ['scales']"),
        ("top-level list", "config must be a JSON object, not list"),
        ("spec not an object", "spec must be a JSON object, not str"),
        ("deep not an object", "deep must be a JSON object, not list"),
        ("trials a string", "config key 'trials' must be an integer, not \"3\""),
        ("lam a string", "config key 'lam' must be a number, not \"1\""),
        ("svm_folds a fraction", "config key 'svm_folds' must be an integer, not 2.5"),
        ("scales a number", "spec key 'scales' must be a list of numbers, not 5"),
        ("d a string", "spec key 'd' must be an integer, not \"20\""),
        ("deep batch of one", "batch size must be >= 2"),
    ])
    def test_malformed_config_exits_1_with_an_error_line(self, tmp_path, capsys,
                                                         case, message):
        raw = json.loads(self._config_file(tmp_path).read_text())
        if case == "unknown deep key":
            raw["deep"] = {"hidden": 8, "depth": 3}
        elif case == "unknown spec key":
            raw["spec"]["dims"] = 4
        elif case == "spec without scales":
            del raw["spec"]["scales"]
        elif case == "top-level list":
            raw = ["NA"]
        elif case == "spec not an object":
            raw["spec"] = "rotated"
        elif case == "deep not an object":
            raw["deep"] = [8, 400]
        elif case == "deep batch of one":
            # rejected even though no deep method is requested
            raw["deep"] = {"batch_size": 1}
        else:
            key, value = {
                "trials a string": ("trials", "3"),
                "lam a string": ("lam", "1"),
                "svm_folds a fraction": ("svm_folds", 2.5),
                "scales a number": ("spec.scales", 5),
                "d a string": ("spec.d", "20"),
            }[case]
            *outer, key = key.split(".")
            (raw[outer[0]] if outer else raw)[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["bench", "--config", str(p)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("separation", float("inf")), ("noise_std", float("nan")),
        ("scales", [2.0, float("inf"), 1.0, 1.0]), ("mean_shift", [0.0, float("nan"), 0.0, 0.0]),
        ("rotation_angles", [float("-inf")]),
    ], ids=["separation", "noise_std", "scales", "mean_shift", "rotation_angles"])
    def test_non_finite_spec_number_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                                key, value):
        # Python's JSON reader takes NaN and Infinity; the spec rejects
        # them before any data is drawn, so no warning reaches stderr
        raw = json.loads(self._config_file(tmp_path).read_text())
        raw["spec"][key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bench", "--config", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: {key} must be finite\n")


class TestOutOfRangeNumbers:
    """Non-finite regularization strengths and negative seeds are the
    input's fault: every entry point exits 1 with an error line, where
    they used to end in a numpy traceback (eigh failing to converge on
    NaN or inf, numpy's generators rejecting a negative seed) or exit 2."""

    @pytest.fixture()
    def files(self, tmp_path):
        src, tgt = generate_shift(small_spec())
        paths = tmp_path / "src.csv", tmp_path / "tgt.csv"
        save_csv(src, paths[0])
        save_csv(Dataset(tgt.features, None), paths[1])
        return [str(p) for p in paths]

    def _config(self, tmp_path, files, **overrides):
        cfg = {"source_path": files[0], "target_path": files[1],
               "target_csv_has_labels": False, "trials": 1, **overrides}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    @pytest.mark.parametrize("argv", [
        ["bench", "--config", "{cfg}"],
        ["sweep-lambda", "--config", "{cfg}", "--lambdas", "1", "--no-analytical"],
    ], ids=["bench", "sweep-lambda"])
    @pytest.mark.parametrize("key, value, method", [
        ("lam", float("nan"), "CORAL-reg"),
        ("lam", float("inf"), "CORAL-reg"),
        ("lda_lam", float("nan"), "LDA"),
        ("lda_lam", float("inf"), "LDA"),
        ("seed_base", -1, "NA"),
    ], ids=["lam-nan", "lam-inf", "lda_lam-nan", "lda_lam-inf", "seed_base-negative"])
    def test_config_value(self, tmp_path, capsys, files, argv, key, value, method):
        cfg = self._config(tmp_path, files, methods=[method], **{key: value})
        assert main([a.format(cfg=cfg) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("command", ["bench", "sweep-lambda"])
    def test_negative_seed_flag_with_data_files(self, tmp_path, capsys, files, command):
        cfg = self._config(tmp_path, files, methods=["NA"])
        assert main([command, "--config", cfg, "--seed", "-5"]) == 1
        assert capsys.readouterr().err.startswith("error: seed_base must be")

    def test_sweep_lambda_list(self, tmp_path, capsys, files):
        cfg = self._config(tmp_path, files, methods=["CORAL-reg"])
        assert main(["sweep-lambda", "--config", cfg, "--lambdas", "1,nan"]) == 1
        assert capsys.readouterr().err.startswith("error: lam must be")

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_transform_lambda(self, tmp_path, capsys, files, lam):
        assert main(["transform", "--source", files[0], "--target", files[1],
                     "--source-labels", "--lambda", lam,
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: lambda must be")

    @pytest.mark.parametrize("key, value, method", [
        ("svm_grid", [float("inf")], "NA"),
        ("svm_grid", [], "LDA"),
        ("svm_folds", 0, "LDA"),
        ("svm_epochs", 0, "LDA"),
    ], ids=["grid-inf", "grid-empty", "folds-0", "epochs-0"])
    def test_svm_setting(self, tmp_path, capsys, files, key, value, method):
        # an infinite C trained to NaN weights and exited 0; the others
        # passed unchecked when no SVM method ran
        cfg = self._config(tmp_path, files, methods=[method], **{key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bench", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("key", ["learning_rate", "coral_weight"])
    def test_deep_setting(self, tmp_path, capsys, files, key):
        # exited 2 after numpy warnings, "diverged at iteration 1"
        cfg = self._config(tmp_path, files, methods=["deep"], deep={key: float("inf")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["deep", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be a finite number" in err

    @pytest.mark.parametrize("mode", ["plain", "coral"])
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_lda_lambda(self, tmp_path, capsys, files, mode, lam):
        assert main(["lda", "--train", files[0], "--mode", mode, "--stats-from", files[1],
                     "--lam", lam]) == 1
        assert capsys.readouterr().err.startswith("error: lambda must be a finite number")


class TestSweepCommand:
    def test_single_lambda_no_analytical(self, tmp_path):
        cfgp = TestBenchCommand()._config_file(
            tmp_path, methods=["CORAL-reg"], trials=1
        )
        out = tmp_path / "sweep.json"
        rc = main(["sweep-lambda", "--config", str(cfgp),
                   "--lambdas", "1.0", "--no-analytical",
                   "--report-out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert len(rep["rows"]) == 1
        assert rep["rows"][0]["lam"] == 1.0

    def test_non_numeric_lambda_exits_1(self, tmp_path, capsys):
        cfgp = TestBenchCommand()._config_file(tmp_path, methods=["CORAL-reg"], trials=1)
        assert main(["sweep-lambda", "--config", str(cfgp), "--lambdas", "1,x"]) == 1
        assert capsys.readouterr().err == (
            "error: expected comma-separated numbers, got '1,x'\n")

    def test_default_includes_analytical(self, tmp_path):
        cfgp = TestBenchCommand()._config_file(
            tmp_path, methods=["CORAL-reg"], trials=1
        )
        out = tmp_path / "sweep.json"
        rc = main(["sweep-lambda", "--config", str(cfgp),
                   "--lambdas", "0.1,1.0", "--report-out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["lam"] for r in rows] == [0.1, 1.0, "analytical"]


class TestDeepCommand:
    def test_curves_written(self, tmp_path, capsys):
        cfg = {
            "spec": {
                "d": 4, "K": 2, "n_source": 64, "n_target": 64,
                "separation": 2.0, "scales": [2.0, 0.5, 1.0, 1.0],
                "mean_shift": [0.0, 0.0, 0.0, 0.0],
                "noise_std": 0.1, "seed": 1,
            },
            "methods": ["deep"],
            "trials": 1,
            "deep": {"hidden": 6, "iterations": 12, "batch_size": 16,
                     "learning_rate": 0.05, "coral_weight": 5.0,
                     "momentum": 0.9},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        curves = tmp_path / "curves.csv"
        rc = main(["deep", "--config", str(p), "--curves-out", str(curves)])
        assert rc == 0
        lines = curves.read_text().splitlines()
        assert lines[0].startswith("iteration,class_loss,coral_loss")
        assert len(lines) == 13  # header + one row per iteration
        # the last curve entries are the printed final accuracies
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        printed = capsys.readouterr().out
        assert (f"final source acc {float(last['source_acc']):.4f}, "
                f"target acc {float(last['target_acc']):.4f}, ") in printed

    def test_matches_the_runner_deep_method(self, tmp_path, capsys):
        # the command and the bench's "deep" method build the same run
        cfg = {
            "spec": {
                "d": 4, "K": 3, "n_source": 90, "n_target": 90,
                "separation": 3.0, "scales": [2.0, 0.5, 1.0, 1.0],
                "mean_shift": [0.5, 0.0, 0.0, 0.0],
                "noise_std": 0.1, "seed": 0,
            },
            "methods": ["deep"],
            "seed_base": 4,
            "deep": {"hidden": 6, "iterations": 40, "batch_size": 16,
                     "learning_rate": 0.05, "coral_weight": 1.0,
                     "momentum": 0.9},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["deep", "--config", str(p)]) == 0
        printed = capsys.readouterr().out
        config = dataclasses.replace(config_from_dict(cfg), trials=1)
        m = run_experiment(config).methods["deep"]
        assert f"target acc {m.target_acc[0]:.4f}," in printed
        assert f"alignment distance {m.post_dist[0]:.6g}\n" in printed


    def test_draws_no_unrelated_domain(self, tmp_path, monkeypatch):
        # the command trains deep alone, whatever else the config lists
        def no_draw(spec):
            raise AssertionError("unrelated domain drawn")

        monkeypatch.setattr(runner, "_unrelated_stats", no_draw)
        cfg = TestBenchCommand()._config_file(
            tmp_path, methods=["deep", "CORAL-LDA-mismatched"],
            deep={"hidden": 4, "iterations": 5, "batch_size": 16})
        assert main(["deep", "--config", str(cfg)]) == 0

    def test_deep_only_runs_form_no_trial_statistics(self, tmp_path, monkeypatch):
        # neither deep method reads the domains' covariances, so a trial
        # whose methods are all deep forms none
        def no_stats(X):
            raise AssertionError("trial statistics formed")

        monkeypatch.setattr(runner, "mean_and_covariance", no_stats)
        cfg = TestBenchCommand()._config_file(
            tmp_path, methods=["deep", "deep-no-coral"],
            deep={"hidden": 4, "iterations": 5, "batch_size": 16})
        assert main(["deep", "--config", str(cfg)]) == 0
        assert main(["bench", "--config", str(cfg)]) == 0


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck", "--n", "4,8", "--d", "2,5", "--seeds", "3"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_impossible_tolerance_exits_3(self):
        rc = main(["gradcheck", "--n", "4", "--d", "2", "--seeds", "2",
                   "--tol", "0"])
        assert rc == 3

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0"], "--seeds >= 1"),
        (["--seeds", "-1"], "--seeds >= 1"),
        (["--n", ""], "non-empty --n and --d"),
        (["--d", ","], "non-empty --n and --d"),
        (["--n", "4,-3"], "of positive sizes"),
        (["--step", "nan"], "--step must be"),
        (["--step", "inf"], "--step must be"),
        (["--tol", "nan"], "--tol must be"),
        (["--tol", "inf"], "--tol must be"),
        (["--tol", "-1"], "--tol must be"),
    ])
    def test_a_check_of_nothing_or_against_nothing_exits_1(self, capsys, flags, message):
        # "over 0 checks" used to pass, a NaN tolerance to fail whatever the
        # gradients, and a negative size to end in a numpy traceback
        assert main(["gradcheck", "--n", "4", "--d", "2", "--seeds", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""


class TestConvertCommand:
    def test_csv_to_bin_round_trip(self, shift_files, tmp_path):
        sp, _, src, _ = shift_files
        binp = tmp_path / "conv.bin"
        rc = main(["convert", str(sp), str(binp), "--csv-has-labels"])
        assert rc == 0
        back = load_bin(binp)
        np.testing.assert_array_equal(back.features, src.features)
        np.testing.assert_array_equal(back.labels, src.labels)
        csvp = tmp_path / "back.csv"
        rc = main(["convert", str(binp), str(csvp)])
        assert rc == 0
        again = load_csv(csvp, has_labels=True)
        np.testing.assert_array_equal(again.features, src.features)

    @pytest.mark.parametrize("fault, message", [
        ("trailing bytes", "8 trailing bytes"),
        ("label flag 2", "has_labels flag must be 0/1, got 2"),
    ])
    def test_malformed_bin_exits_1(self, tmp_path, capsys, fault, message):
        p = tmp_path / "in.bin"
        save_bin(Dataset(np.ones((4, 2)), None), p)
        raw = bytearray(p.read_bytes())
        if fault == "trailing bytes":
            raw += bytes(8)
        else:
            raw[16] = 2  # the has_labels byte after magic, version, rows, cols
        p.write_bytes(bytes(raw))
        assert main(["convert", str(p), str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_unsupported_pair_exits_1(self, tmp_path):
        rc = main(["convert", str(tmp_path / "a.txt"), str(tmp_path / "b.csv")])
        assert rc == 1


class TestArgumentErrors:
    def test_unknown_flag_exits_1(self):
        assert main(["bench", "--nope"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

    def test_module_entry_point(self, tmp_path):
        cfg = TestBenchCommand()._config_file(tmp_path, trials=1)
        out = tmp_path / "rep.json"
        # the child imports coralign from where this process found it
        package_root = str(Path(coralign.__file__).resolve().parent.parent)
        paths = [package_root, os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "coralign", "bench",
             "--config", str(cfg), "--report-out", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["trials"] == 1
