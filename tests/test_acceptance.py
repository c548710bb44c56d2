"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line (visible with -s, or in
captured output otherwise) and enforces both the quantitative bound and
a wall-clock budget.  The comparative gates (3 to 6) also print, from
the report's per-trial accuracies, each paired difference with its
seeded bootstrap 95% interval over trials and the trials won; gate 4
prints the interval of its spread.  These are printed, not asserted.
These intentionally re-derive expected values with independent
constructions rather than calling back into the code under test, except
where the check is about the public pipeline itself.
"""

import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coralign import classify, coral, deep, lda
from coralign.bench import Dataset, generate_shift, rotated_anisotropic_spec
from coralign.bench.cli import main as cli_main
from coralign.bench.io import load_bin, load_csv, save_bin, save_csv
from coralign.bench.runner import ExperimentConfig, lambda_sweep, run_experiment
from coralign.errors import FormatError, InvalidInputError
from coralign.linalg import mean_and_covariance, psd_operator, standardize


@contextmanager
def check(label):
    """Print a single [PASS]/[FAIL] line for the enclosed block."""
    info = {"detail": ""}
    t0 = time.perf_counter()

    def line(outcome):
        detail = f" — {info['detail']}" if info["detail"] else ""
        return f"\n[{outcome}] {label}{detail} ({time.perf_counter() - t0:.1f}s)"

    try:
        yield info
    except BaseException:
        print(line("FAIL"))
        raise
    print(line("PASS"))


def _interval(per_trial, statistic, resamples=20_000, seed=15):
    """Seeded percentile-bootstrap 95% interval of ``statistic`` over
    trials: each resample draws the trials with replacement, and
    ``statistic`` maps the rows' means over them (rows x resamples) to
    one value per resample."""
    per_trial = np.atleast_2d(np.asarray(per_trial, dtype=float))
    n = per_trial.shape[1]
    picks = np.random.default_rng(seed).integers(0, n, (resamples, n))
    return np.percentile(statistic(per_trial[:, picks].mean(axis=2)), [2.5, 97.5])


def _paired(a, b):
    """a - b over paired per-trial accuracies, in points: the mean
    difference, its bootstrap 95% interval and the trials a wins."""
    a, b = 100 * np.asarray(a), 100 * np.asarray(b)
    lo, hi = _interval([a, b], lambda means: means[0] - means[1])
    return f"{np.mean(a - b):+.1f}pt [{lo:.1f}, {hi:.1f}], wins {np.sum(a > b)}/{len(a)}"


def _random_full_rank(n, d, rng):
    return rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)


def _benchmark_config(**overrides):
    base = dict(
        spec=rotated_anisotropic_spec(0),
        methods=("NA", "CORAL-reg", "whiten-both"),
        trials=20,
        seed_base=0,
        lam=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAcceptance:
    def test_1_analytical_transform_optimality(self):
        with check("1/9 analytical transform optimality") as info:
            t0 = time.perf_counter()
            rng = np.random.default_rng(2026)
            worst = 0.0
            dims = [2, 8, 16]
            for i in range(50):
                d = dims[i % 3]
                Ds = _random_full_rank(50 * d, d, rng)
                Dt = _random_full_rank(50 * d, d, rng)
                T = coral.fit_analytical(Ds, Dt)
                got = mean_and_covariance(coral.apply_to_features(T, Ds)).cov
                Ct = mean_and_covariance(Dt).cov
                rel = np.linalg.norm(got - Ct) ** 2 / np.linalg.norm(Ct) ** 2
                worst = max(worst, rel)
            assert worst <= 1e-10

            # Rank-deficient constructions with an independent truncation
            # oracle: eigendecompose the target covariance and keep only
            # the top-r components, r = min of the two ranks.
            trunc_err = 0.0
            for seed in (11, 21, 31):
                # target confined to its first two coordinates; the
                # aligned source covariance must land exactly on it
                rng2 = np.random.default_rng(seed)
                Ds = _random_full_rank(100, 4, rng2)
                Dt = np.zeros((80, 4))
                Dt[:, :2] = rng2.standard_normal((80, 2)) @ rng2.standard_normal((2, 2))
                T = coral.fit_analytical(Ds, Dt)
                got = mean_and_covariance(coral.apply_to_features(T, Ds)).cov
                Ct = mean_and_covariance(Dt).cov
                assert T.rank_used == 2
                trunc_err = max(trunc_err, np.linalg.norm(got - Ct))

                # source confined to two coordinates, target full rank with
                # exactly zero cross-covariance between the two blocks
                d, r = 5, 2
                Ds = np.zeros((90, d))
                Ds[:, :r] = rng2.standard_normal((90, r)) @ rng2.standard_normal((r, r))
                G = 10.0 * rng2.standard_normal((120, r))
                H = 0.1 * rng2.standard_normal((120, d - r))
                G = G - G.mean(axis=0)
                H = H - H.mean(axis=0)
                H = H - G @ np.linalg.lstsq(G, H, rcond=None)[0]
                Dt = np.hstack([G, H])
                T = coral.fit_analytical(Ds, Dt)
                got = mean_and_covariance(coral.apply_to_features(T, Ds)).cov
                Ct = mean_and_covariance(Dt).cov
                w, V = np.linalg.eigh(Ct)
                order = np.argsort(w)[::-1]
                w, V = w[order], V[:, order]
                truncation = (V[:, :r] * w[:r]) @ V[:, :r].T
                assert T.rank_used == r
                trunc_err = max(trunc_err, np.linalg.norm(got - truncation))
            assert trunc_err <= 1e-6

            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0
            info["detail"] = (
                f"worst full-rank rel residual {worst:.1e}, "
                f"truncation error {trunc_err:.1e}"
            )

    def test_2_gradient_check(self):
        with check("2/9 alignment-loss gradient correctness") as info:
            t0 = time.perf_counter()
            # independent sweep over the same grid the CLI uses, with
            # independently seeded streams.  Standard-normal batches: the
            # fixed 1e-5 step's noise floor is calibrated for unit-scale
            # data, so larger inputs would measure difference noise, not
            # gradient correctness.
            worst = 0.0
            for seed in range(20):
                for n in (4, 8, 32):
                    for d in (2, 5, 16):
                        rng = np.random.default_rng([seed, n, d])
                        S = rng.standard_normal((n, d))
                        T = rng.standard_normal((n, d))
                        worst = max(worst, deep.finite_diff_check(S, T, step=1e-5))
            assert worst <= 1e-5

            # and the shipped command must agree (exit 0, not 3)
            rc = cli_main(["gradcheck"])
            assert rc == 0

            elapsed = time.perf_counter() - t0
            assert elapsed < 30.0
            info["detail"] = f"max relative error {worst:.2e} over 180 checks; CLI exit 0"

    def test_3_adaptation_beats_no_adaptation(self):
        with check("3/9 adaptation benefit on the rotated-anisotropic shift") as info:
            t0 = time.perf_counter()
            report = run_experiment(_benchmark_config())
            na = report.methods["NA"].target_acc_mean
            cr = report.methods["CORAL-reg"].target_acc_mean
            wb = report.methods["whiten-both"].target_acc_mean
            accs = {name: m.target_acc for name, m in report.methods.items()}
            info["detail"] = (
                f"CORAL-reg {cr:.3f} vs NA {na:.3f} "
                f"({_paired(accs['CORAL-reg'], accs['NA'])}), whiten-both {wb:.3f} "
                f"(CORAL-reg {_paired(accs['CORAL-reg'], accs['whiten-both'])})"
            )
            assert cr >= na + 0.10
            assert wb <= cr

            elapsed = time.perf_counter() - t0
            assert elapsed < 120.0

    def test_4_regularization_stability(self):
        with check("4/9 accuracy stability across regularization strengths") as info:
            t0 = time.perf_counter()
            sweep = lambda_sweep(
                _benchmark_config(methods=("CORAL-reg",)),
                [0.001, 0.01, 0.1, 1.0],
                include_analytical=True,
            )
            means = {row["lam"]: row["target_acc_mean"] for row in sweep.rows}
            spread = max(means.values()) - min(means.values())
            lo, hi = _interval([100 * np.asarray(row["target_acc"]) for row in sweep.rows],
                               lambda means: means.max(axis=0) - means.min(axis=0))
            info["detail"] = (f"spread {spread * 100:.2f}pt [{lo:.2f}, {hi:.2f}] "
                              f"across {sorted(means, key=str)}")
            assert len(means) == 5
            assert spread <= 0.02

            elapsed = time.perf_counter() - t0
            assert elapsed < 180.0

    def test_5_lda_reduction_and_stats_mismatch(self):
        with check("5/9 whitened-LDA reduction and stats-mismatch ordering") as info:
            t0 = time.perf_counter()
            # identical source/target covariances must collapse the
            # cross-domain discriminant onto the plain one
            worst = 0.0
            for i in range(100):
                rng = np.random.default_rng(500 + i)
                d = int(rng.integers(2, 12))
                G = rng.standard_normal((d, d))
                C = G @ G.T / d + 0.05 * np.eye(d)
                mu_pos = 2.0 * rng.standard_normal(d)
                mu_neg = 2.0 * rng.standard_normal(d)
                plain = lda.fit_lda(mu_pos - mu_neg, psd_operator(C, 1.0))
                cross = lda.fit_coral_lda(mu_pos - mu_neg, psd_operator(C, 1.0),
                                          psd_operator(C.copy(), 1.0))
                worst = max(worst, float(np.abs(plain - cross).max()))
            assert worst <= 1e-8

            # the source discriminant whitened with the target's statistics
            # against the same one whitened with an unrelated domain's
            config = ExperimentConfig(
                spec=rotated_anisotropic_spec(0, K=2),
                methods=("CORAL-LDA", "CORAL-LDA-mismatched"),
                trials=20,
                seed_base=0,
            )
            rep = run_experiment(config)
            matched = rep.methods["CORAL-LDA"].target_acc_mean
            unrelated = rep.methods["CORAL-LDA-mismatched"].target_acc_mean
            info["detail"] = (
                f"max reduction gap {worst:.1e}; matched {matched:.3f} "
                f"vs unrelated stats {unrelated:.3f} ("
                + _paired(rep.methods["CORAL-LDA"].target_acc,
                          rep.methods["CORAL-LDA-mismatched"].target_acc) + ")"
            )
            assert matched >= unrelated

            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0

    def test_6_joint_training_equilibrium(self):
        with check("6/9 joint training beats plain training and shrinks the gap") as info:
            t0 = time.perf_counter()
            report = run_experiment(
                _benchmark_config(
                    methods=("deep", "deep-no-coral"), trials=5, deep=deep.TrainConfig()
                )
            )
            with_align = report.methods["deep"]
            without = report.methods["deep-no-coral"]
            gap = with_align.target_acc_mean - without.target_acc_mean
            info["detail"] = f"accuracy gap {_paired(with_align.target_acc, without.target_acc)}"
            assert gap >= 0.05

            dist_with = float(np.mean(with_align.post_dist))
            dist_without = float(np.mean(without.post_dist))
            assert dist_without >= 10.0 * dist_with

            # zero alignment weight must reproduce plain training bit for bit
            spec = rotated_anisotropic_spec(3)
            src, tgt = generate_shift(spec)
            Xs, _, _ = standardize(src.features)
            Xt, _, _ = standardize(tgt.features)
            cfg = deep.TrainConfig(coral_weight=0.0, iterations=150)
            net_a, _ = deep.train_joint(
                deep.init_network([spec.d, 16, spec.K], seed=5), Xs, src.labels, Xt, cfg, 11
            )
            net_b, _ = deep.train_joint(
                deep.init_network([spec.d, 16, spec.K], seed=5), Xs, src.labels, None, cfg, 11
            )
            for (Wa, ba), (Wb, bb) in zip(net_a.layers, net_b.layers):
                assert np.array_equal(Wa, Wb)
                assert np.array_equal(ba, bb)

            elapsed = time.perf_counter() - t0
            assert elapsed < 300.0
            info["detail"] += (
                f", final distance ratio {dist_without / dist_with:.0f}x, "
                "zero-weight run bit-identical"
            )

    def test_7_high_dimensional_throughput(self):
        with check("7/9 high-dimensional fit-and-apply throughput") as info:
            rng = np.random.default_rng(7)
            Xs = rng.standard_normal((795, 4096))
            Xt = 1.5 * rng.standard_normal((2817, 4096))

            t0 = time.perf_counter()
            T = coral.fit_regularized(Xs, Xt, lam=1.0)
            out = coral.apply_to_features(T, Xs)
            big = time.perf_counter() - t0
            assert out.shape == (795, 4096)
            assert big < 60.0

            Xs2 = rng.standard_normal((795, 1024))
            Xt2 = 1.5 * rng.standard_normal((2817, 1024))
            t0 = time.perf_counter()
            T2 = coral.fit_regularized(Xs2, Xt2, lam=1.0)
            out2 = coral.apply_to_features(T2, Xs2)
            small = time.perf_counter() - t0
            assert out2.shape == (795, 1024)
            assert small < 5.0

            info["detail"] = f"d=4096 in {big:.1f}s, d=1024 in {small:.2f}s"

    def test_8_weight_feature_equivalence(self):
        with check("8/9 weight-space vs feature-space application") as info:
            t0 = time.perf_counter()
            rng = np.random.default_rng(88)
            d, k = 20, 3
            scale = np.geomspace(0.3, 3.0, d)
            Xs = rng.standard_normal((2000, d)) * scale
            Xt = rng.standard_normal((2000, d)) @ rng.standard_normal((d, d))
            ys = rng.integers(0, k, 2000)
            T = coral.fit_regularized(Xs, Xt, lam=1.0)
            model = classify.train_svm(
                coral.apply_to_features(T, Xs), ys, C=1.0, epochs=8, seed=0
            )
            moved = coral.apply_to_weights(T, model)

            P = rng.standard_normal((10_000, d)) * scale
            feat_scores = coral.apply_to_features(T, P) @ model.W.T + model.b
            weight_scores = P @ moved.W.T + moved.b
            pred_f = classify.predict(model, coral.apply_to_features(T, P))
            pred_w = classify.predict(moved, P)

            assert np.array_equal(pred_f, pred_w)
            denom = np.maximum(1.0, np.maximum(np.abs(feat_scores), np.abs(weight_scores)))
            rel = float((np.abs(feat_scores - weight_scores) / denom).max())
            assert rel <= 1e-9

            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0
            info["detail"] = f"10000 points, argmax identical, max score rel diff {rel:.1e}"

    def test_9_io_round_trips(self, tmp_path):
        with check("9/9 dataset file round-trips and malformed-input errors") as info:
            t0 = time.perf_counter()
            rng = np.random.default_rng(9)
            X = rng.standard_normal((37, 5))
            X[0, 0] = 1.0 / 3.0
            X[1, 1] = 1e300
            X[2, 2] = -1e-300
            X[3, 3] = np.pi
            y = rng.integers(0, 4, 37)
            ds = Dataset(X, y)

            bin_path = tmp_path / "acc.bin"
            save_bin(ds, bin_path)
            back = load_bin(bin_path)
            assert np.array_equal(back.features, X)
            assert np.array_equal(back.labels, y)
            # byte-identical on re-save
            save_bin(back, tmp_path / "acc2.bin")
            assert bin_path.read_bytes() == (tmp_path / "acc2.bin").read_bytes()

            csv_path = tmp_path / "acc.csv"
            save_csv(ds, csv_path)
            back_csv = load_csv(csv_path, has_labels=True)
            assert np.array_equal(back_csv.features, X)  # 17 sig digits round-trip
            assert np.array_equal(back_csv.labels, y)

            ragged = tmp_path / "ragged.csv"
            ragged.write_text("1.0,2.0\n3.0\n")
            with pytest.raises(FormatError, match="line 2"):
                load_csv(ragged)

            bad_magic = tmp_path / "bad.bin"
            bad_magic.write_bytes(b"NOPE" + bin_path.read_bytes()[4:])
            with pytest.raises(FormatError, match="magic"):
                load_bin(bad_magic)

            truncated = tmp_path / "trunc.bin"
            truncated.write_bytes(bin_path.read_bytes()[:-6])
            with pytest.raises(FormatError):
                load_bin(truncated)

            with pytest.raises(InvalidInputError):
                load_csv(tmp_path / "missing.csv")

            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0
            info["detail"] = "binary bit-identical, CSV exact, 4 error paths raised"
