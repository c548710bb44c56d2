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
from pathlib import Path

import numpy as np
import pytest

import coralign
from coralign import coral, lda
from coralign.bench.cli import main
from coralign.bench.data import Dataset, ShiftSpec, generate_shift
from coralign.bench.io import load_bin, load_csv, save_csv
from coralign.bench.runner import config_from_dict, run_experiment
from coralign.linalg import mean_and_covariance


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
        save_csv(Dataset(Ds, None, "source"), sp)
        save_csv(Dataset(Dt, None, "target"), tp)
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
        want = lda.fit_lda(mu1 - mu0, cov, lam=0.7)
        np.testing.assert_array_equal(w, want)

    def test_coral_mode_uses_stats_file(self, tmp_path):
        p, src, tgt = self._binary_csv(tmp_path)
        stats_p = tmp_path / "stats.csv"
        save_csv(Dataset(tgt.features, None, "t"), stats_p)
        out = tmp_path / "w.csv"
        rc = main(["lda", "--train", str(p), "--mode", "coral",
                   "--stats-from", str(stats_p), "--out", str(out)])
        assert rc == 0
        w = load_csv(out).features[0]
        mu1 = src.features[src.labels == 1].mean(axis=0)
        mu0 = src.features[src.labels == 0].mean(axis=0)
        cov_s = mean_and_covariance(src.features).cov
        cov_t = mean_and_covariance(tgt.features).cov
        want = lda.fit_coral_lda(
            mu1 - mu0, lda.whitening(cov_s, 1.0), lda.whitening(cov_t, 1.0)
        )
        np.testing.assert_array_equal(w, want)

    def test_coral_mode_requires_stats(self, tmp_path):
        p, _, _ = self._binary_csv(tmp_path)
        rc = main(["lda", "--train", str(p), "--mode", "coral",
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1

    def test_singular_covariance_exits_2(self, tmp_path):
        # duplicated column makes the covariance singular; with lam 0 the
        # plain solve must fail numerically, not silently
        X = np.random.default_rng(0).standard_normal((40, 2))
        X = np.hstack([X, X[:, :1]])
        y = np.array([0, 1] * 20)
        p = tmp_path / "sing.csv"
        save_csv(Dataset(X, y, "s"), p)
        rc = main(["lda", "--train", str(p), "--mode", "plain",
                   "--lam", "0", "--out", str(tmp_path / "w.csv")])
        assert rc == 2


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


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck", "--n", "4,8", "--d", "2,5", "--seeds", "3"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_impossible_tolerance_exits_3(self):
        rc = main(["gradcheck", "--n", "4", "--d", "2", "--seeds", "2",
                   "--tol", "0"])
        assert rc == 3


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
