"""Command-line interface.

Exit codes: 0 success; 1 invalid input or configuration; 2 numerical
failure (non-finite values, matrices outside the PSD tolerance); 3 a
check-mode command ran fine but its check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .. import coral, deep as deep_mod, lda as lda_mod
from ..errors import InvalidInputError, NumericalError
from ..linalg import mean_and_covariance, psd_operator
from .data import Dataset
from .io import load_dataset, save_dataset
from .runner import (
    ExperimentConfig,
    _deep_network,
    _make_trial,
    config_from_dict,
    lambda_sweep,
    run_experiment,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this CLI reserves 2
    # for numerical failures, so argument problems become invalid-input
    def error(self, message):
        raise InvalidInputError(message)


def _read_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _parse_list(text: str, kind):
    """The comma-separated values of text, each read by kind (int or float)."""
    try:
        return [kind(x) for x in text.split(",") if x]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise InvalidInputError(f"expected comma-separated {what}, got {text!r}")


def _cmd_transform(args) -> int:
    src = load_dataset(args.source, args.csv_has_header, args.source_labels)
    tgt = load_dataset(args.target, args.csv_has_header, args.target_labels)
    if args.analytical:
        tr = coral.fit_analytical(src.features, tgt.features)
    else:
        tr = coral.fit_regularized(src.features, tgt.features, args.lam)
    moved = coral.apply_to_features(tr, src.features)
    save_dataset(Dataset(moved, src.labels), args.out)
    ct = mean_and_covariance(tgt.features).cov
    pre = np.linalg.norm(mean_and_covariance(src.features).cov - ct)
    post = np.linalg.norm(mean_and_covariance(moved).cov - ct)
    mode = "analytical" if args.analytical else f"lambda={args.lam:g}"
    print(f"transformed {src.n} rows, dim {src.d} ({mode}); "
          f"covariance gap {pre:.6g} -> {post:.6g}")
    return EXIT_OK


def _cmd_lda(args) -> int:
    train = load_dataset(args.train, args.csv_has_header, True)
    if train.labels is None:
        raise InvalidInputError("training dataset must carry labels")
    if int(train.labels.max()) + 1 != 2:
        raise InvalidInputError("the lda command fits a binary discriminant "
                                "(labels 0/1)")
    mu1 = train.features[train.labels == 1].mean(axis=0)
    mu0 = train.features[train.labels == 0].mean(axis=0)
    stats_train = mean_and_covariance(train.features)
    source = psd_operator(stats_train.cov, args.lam)
    if args.mode == "coral":
        if not args.stats_from:
            raise InvalidInputError("--stats-from is required with --mode coral")
        other = load_dataset(args.stats_from, args.csv_has_header, False)
        stats_other = mean_and_covariance(other.features)
        w = lda_mod.fit_coral_lda(mu1 - mu0, source, psd_operator(stats_other.cov, args.lam))
        dist = lda_mod.domain_distance(stats_train, stats_other)
        print(f"coral discriminant fitted (dim {train.d}); "
              f"domain distance {dist:.6g}")
    else:
        w = lda_mod.fit_lda(mu1 - mu0, source)
        print(f"plain discriminant fitted (dim {train.d})")
    if args.out:
        save_dataset(Dataset(w[None, :], None), args.out)
    else:
        print(",".join(format(v, ".17g") for v in w))
    return EXIT_OK


def _read_run_config(args) -> ExperimentConfig:
    """--config with the --trials and --seed overrides applied.  Opening
    --report-out to append first fails a path that cannot be written
    before any trial, and keeps an existing report if the run then fails
    (a new path is then left as an empty file)."""
    cfg = _read_config(args.config)
    if args.report_out:
        open(args.report_out, "a").close()
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, trials=args.trials)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed_base=args.seed)
    return cfg


def _write_report(report, path) -> None:
    """The report's JSON to ``path`` (--report-out), else to stdout."""
    blob = json.dumps(report.to_dict(), indent=2)
    if path:
        Path(path).write_text(blob + "\n")
    else:
        print(blob)


def _cmd_bench(args) -> int:
    report = run_experiment(_read_run_config(args))
    for name, m in report.methods.items():
        print(f"{name}: target {m.target_acc_mean:.4f} +/- {m.target_acc_std:.4f}"
              f" (source {m.source_acc_mean:.4f},"
              f" {m.wall_clock_seconds:.2f}s)")
    _write_report(report, args.report_out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rep = lambda_sweep(_read_run_config(args), _parse_list(args.lambdas, float),
                       include_analytical=not args.no_analytical)
    for row in rep.rows:
        print(f"lambda={row['lam']}: target {row['target_acc_mean']:.4f} "
              f"+/- {row['target_acc_std']:.4f}")
    _write_report(rep, args.report_out)
    return EXIT_OK


def _cmd_deep(args) -> int:
    cfg = _read_config(args.config)
    trial = _make_trial(dataclasses.replace(cfg, methods=("deep",)), cfg.seed_base)
    _, rep = deep_mod.train_joint(_deep_network(trial, cfg.deep), trial.Xs, trial.ys, trial.Xt,
                                  cfg.deep, trial.seed, target_labels=trial.yt,
                                  accuracy_curves=bool(args.curves_out))
    if args.curves_out:
        lines = ["iteration,class_loss,coral_loss,source_acc,target_acc"]
        for i in range(len(rep.class_loss)):
            cells = (rep.class_loss[i], rep.coral_loss[i],
                     rep.source_acc[i], rep.target_acc[i])
            lines.append(f"{i}," + ",".join(format(v, ".10g") for v in cells))
        Path(args.curves_out).write_text("\n".join(lines) + "\n")
    print(f"final source acc {rep.final_source_acc:.4f}, "
          f"target acc {rep.final_target_acc:.4f}, "
          f"alignment distance {rep.final_coral_distance:.6g}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    ns, ds = _parse_list(args.n, int), _parse_list(args.d, int)
    if args.seeds < 1 or not ns or not ds or min(ns + ds) < 1:
        raise InvalidInputError("gradcheck needs --seeds >= 1 and non-empty --n and --d "
                                "of positive sizes")
    if not (0 < args.step < np.inf and 0 <= args.tol < np.inf):
        raise InvalidInputError("--step must be finite and > 0, --tol must be finite and >= 0")
    worst = 0.0
    for seed in range(args.seeds):
        for n in ns:
            for d in ds:
                rng = np.random.default_rng(seed * 10007 + n * 101 + d)
                S = rng.standard_normal((n, d))
                T = rng.standard_normal((n, d))
                worst = max(worst, deep_mod.finite_diff_check(S, T, args.step))
    print(f"max relative error {worst:.3e} over {args.seeds * len(ns) * len(ds)} checks "
          f"(tolerance {args.tol:g})")
    return EXIT_OK if worst <= args.tol else EXIT_CHECK_FAILED


def _cmd_convert(args) -> int:
    kinds = (Path(args.input).suffix, Path(args.output).suffix)
    if kinds not in ((".csv", ".bin"), (".bin", ".csv")):
        raise InvalidInputError(
            "convert supports .csv -> .bin and .bin -> .csv"
        )
    ds = load_dataset(args.input, has_header=args.csv_has_header,
                      has_labels=args.csv_has_labels)
    save_dataset(ds, args.output, header=args.csv_has_header)
    print(f"converted {ds.n} rows, dim {ds.d} "
          f"({'with' if ds.labels is not None else 'no'} labels)")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="coralign",
                     description="Covariance alignment for domain shift: "
                                 "transforms, discriminants, benchmarks.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("transform", help="fit and apply the alignment map")
    p.add_argument("--source", required=True, help="labeled source dataset")
    p.add_argument("--target", required=True, help="target dataset (features)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="regularization strength (default 1.0)")
    p.add_argument("--analytical", action="store_true",
                   help="use the pseudoinverse-root path instead of --lambda")
    p.add_argument("--out", required=True, help="output path (.csv or .bin)")
    p.add_argument("--source-labels", action="store_true",
                   help="the source CSV ends with an integer label column")
    p.add_argument("--target-labels", action="store_true",
                   help="the target CSV ends with an integer label column")
    p.add_argument("--csv-has-header", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("lda", help="fit a binary discriminant")
    p.add_argument("--train", required=True, help="labeled dataset (labels 0/1)")
    p.add_argument("--mode", choices=("plain", "coral"), default="plain")
    p.add_argument("--stats-from",
                   help="dataset supplying the evaluation-side covariance "
                        "(coral mode)")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--out", help="write the weight vector here (1 x d)")
    p.add_argument("--csv-has-header", action="store_true")
    p.set_defaults(func=_cmd_lda)

    p = sub.add_parser("bench", help="run the method comparison")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report-out", help="write the JSON report here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep-lambda",
                       help="accuracy across regularization strengths")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", default="0.001,0.01,0.1,1")
    p.add_argument("--no-analytical", action="store_true",
                   help="skip the analytical row")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report-out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("deep", help="one joint training run; curves with --curves-out")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--curves-out", help="per-iteration CSV")
    p.set_defaults(func=_cmd_deep)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the alignment-loss "
                            "gradient")
    p.add_argument("--n", default="4,8,32", help="comma list of batch sizes")
    p.add_argument("--d", default="2,5,16", help="comma list of widths")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("convert", help="convert between .csv and .bin")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--csv-has-header", action="store_true")
    p.add_argument("--csv-has-labels", action="store_true")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise InvalidInputError("no subcommand given (see --help)")
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
