"""Experiment runner: adaptation methods x randomized trials.

Each trial regenerates the synthetic shift from seed_base + trial_index
(or reuses fixed input files), standardizes every domain with its own
statistics, trains the base classifier with a cross-validated hinge-loss
C on the method's transformed source, and evaluates on the target.
A trial's SVM methods share one fit: every requested SVM method is mapped
first, then all are cross-validated and trained in one
``classify.fit_cross_validated`` call, each at its own C, and each is
scored on its own features.

Method identifiers:
  NA                              no adaptation
  CORAL-reg                       regularized alignment at config.lam
  CORAL-analytical                pseudoinverse-root alignment
  whiten-both                     each domain whitened by its own stats
  target-recolor-source-direction target re-colored to the source
  LDA / CORAL-LDA / CORAL-LDA-mismatched
                                  discriminant family (mismatched pulls
                                  whitening stats from an unrelated
                                  synthetic domain)
  deep / deep-no-coral            joint trainer with/without the
                                  alignment loss

For the deep methods the reported pre/post distances are the alignment
loss on the monitored layer before/after training; for feature-space
methods they are Frobenius covariance distances in input space.

CORAL-LDA against CORAL-LDA-mismatched is the statistics-mismatch
experiment: the same source discriminant whitened with the target's
statistics or with those of an unrelated domain.  Both use the source
class means, so no target label enters either.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import classify, coral, deep, lda
from ..errors import InvalidInputError
from ..linalg import mean_and_covariance, standardize
from .data import ROTATION_SEED_OFFSET, Dataset, ShiftSpec, generate_shift
from .io import load_dataset

# Seed offset deriving the "unrelated" third domain; a large prime so it
# never collides with trial indexing.
UNRELATED_OFFSET = 104729


@dataclass(frozen=True)
class DeepSettings:
    """Joint-trainer settings; the defaults are tuned to the frozen
    benchmark shift.

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


@dataclass(frozen=True)
class ExperimentConfig:
    spec: Optional[ShiftSpec]
    methods: tuple
    trials: int = 20
    seed_base: int = 0
    lam: float = 1.0
    lda_lam: float = 1.0
    svm_grid: tuple = (0.001, 0.01, 0.1, 1.0, 10.0)
    svm_folds: int = 5
    svm_epochs: int = 20
    deep: DeepSettings = field(default_factory=DeepSettings)
    source_path: Optional[str] = None
    target_path: Optional[str] = None
    csv_has_header: bool = False
    target_csv_has_labels: bool = True

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "svm_grid", tuple(self.svm_grid))
        if not self.methods:
            raise InvalidInputError("no methods requested")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidInputError(
                    f"unknown method identifier {m!r}; known: {', '.join(METHODS)}"
                )
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.spec is None and not (self.source_path and self.target_path):
            raise InvalidInputError(
                "config needs either a spec or source+target file paths"
            )
        if self.spec is None and "CORAL-LDA-mismatched" in self.methods:
            raise InvalidInputError(
                "CORAL-LDA-mismatched needs a synthetic spec to derive "
                "an unrelated domain"
            )
        if self.lam <= 0:
            raise InvalidInputError("lam must be > 0 (use CORAL-analytical for 0)")
        if self.lda_lam < 0:
            raise InvalidInputError("lda_lam must be >= 0")


@dataclass
class MethodAggregate:
    """Per-trial results of one method.

    ``wall_clock_seconds`` sums the method's time over the trials.  An
    SVM method is charged its own feature map and scoring time plus an
    equal share of the trial's shared SVM fit; any other method, the
    time of its handler."""

    name: str
    target_acc: list = field(default_factory=list)
    source_acc: list = field(default_factory=list)
    pre_dist: list = field(default_factory=list)
    post_dist: list = field(default_factory=list)
    domain_distance: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def target_acc_mean(self) -> float:
        return float(np.mean(self.target_acc))

    @property
    def target_acc_std(self) -> float:
        return float(np.std(self.target_acc))

    @property
    def source_acc_mean(self) -> float:
        return float(np.mean(self.source_acc))

    def to_dict(self) -> dict:
        return {
            "target_acc": [float(x) for x in self.target_acc],
            "source_acc": [float(x) for x in self.source_acc],
            "target_acc_mean": self.target_acc_mean,
            "target_acc_std": self.target_acc_std,
            "source_acc_mean": self.source_acc_mean,
            "source_acc_std": float(np.std(self.source_acc)),
            "pre_dist": [float(x) for x in self.pre_dist],
            "post_dist": [float(x) for x in self.post_dist],
            "pre_dist_mean": float(np.mean(self.pre_dist)),
            "post_dist_mean": float(np.mean(self.post_dist)),
            "domain_distance": [float(x) for x in self.domain_distance],
            "domain_distance_mean": float(np.mean(self.domain_distance)),
            "wall_clock_seconds": self.wall_clock_seconds,
        }


@dataclass
class ExperimentReport:
    methods: dict
    trials: int
    seed_base: int
    config: ExperimentConfig

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed_base": self.seed_base,
            "config": config_to_dict(self.config),
            "methods": {k: v.to_dict() for k, v in self.methods.items()},
        }


@dataclass
class _Trial:
    """Standardized per-trial data shared by every method."""

    Xs: np.ndarray
    ys: np.ndarray
    Xt: np.ndarray
    yt: Optional[np.ndarray]
    stats_s: "object"
    stats_t: "object"
    pre: float
    seed: int
    spec: Optional[ShiftSpec]


def _load_file_pair(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    src = load_dataset(config.source_path, config.csv_has_header, True, "source")
    tgt = load_dataset(config.target_path, config.csv_has_header,
                       config.target_csv_has_labels, "target")
    if src.labels is None:
        raise InvalidInputError("source dataset must carry labels")
    if src.d != tgt.d:
        raise InvalidInputError("source and target dimensions differ")
    return src, tgt


def _make_trial(config: ExperimentConfig, seed: int, file_pair) -> _Trial:
    if file_pair is not None:
        src, tgt = file_pair
        spec = None
    else:
        spec = dataclasses.replace(config.spec, seed=seed)
        src, tgt = generate_shift(spec)
    Xs, _, _ = standardize(src.features)
    Xt, _, _ = standardize(tgt.features)
    stats_s = mean_and_covariance(Xs)
    stats_t = mean_and_covariance(Xt)
    pre = float(np.linalg.norm(stats_s.cov - stats_t.cov))
    return _Trial(
        Xs=Xs, ys=src.labels, Xt=Xt, yt=tgt.labels,
        stats_s=stats_s, stats_t=stats_t, pre=pre, seed=seed, spec=spec,
    )


def _acc(model, X, y) -> float:
    if y is None:
        return float("nan")
    return classify.accuracy(classify.predict(model, X), y)


def _class_means(X, y):
    K = int(y.max()) + 1
    return np.stack([X[y == k].mean(axis=0) for k in range(K)])


def _svm_scores(trial: _Trial, Xs, Xt, model):
    """Result of an SVM method whose model was trained on the mapped
    source Xs; post and domain_distance compare the covariances of Xs and
    Xt, reusing the trial's statistics for an unmapped side."""
    stats_s = trial.stats_s if Xs is trial.Xs else mean_and_covariance(Xs)
    stats_t = trial.stats_t if Xt is trial.Xt else mean_and_covariance(Xt)
    post = float(np.linalg.norm(stats_s.cov - stats_t.cov))
    return (_acc(model, Xt, trial.yt), _acc(model, Xs, trial.ys), trial.pre,
            post, lda.domain_distance(stats_s, stats_t))


# Feature maps of the SVM methods: (trial, config) -> (source, target).


def _no_adaptation(trial, config):
    return trial.Xs, trial.Xt


def _coral_regularized(trial, config):
    tr = coral.fit_regularized(trial.Xs, trial.Xt, config.lam)
    return coral.apply_to_features(tr, trial.Xs), trial.Xt


def _coral_analytical(trial, config):
    tr = coral.fit_analytical(trial.Xs, trial.Xt)
    return coral.apply_to_features(tr, trial.Xs), trial.Xt


def _whiten_both(trial, config):
    return coral.whiten_both_baseline(trial.Xs, trial.Xt)


def _recolor_target(trial, config):
    tr = coral.fit_regularized(trial.Xt, trial.Xs, config.lam)
    return trial.Xs, coral.apply_to_features(tr, trial.Xt)


def _lda_family(trial: _Trial, config: ExperimentConfig, whiten_cov, dmd):
    """One-vs-background discriminants; argmax over midpoint-shifted scores.

    whiten_cov selects the covariance whitening the evaluated features;
    None means plain source-space scoring.  ``dmd`` is the method's
    domain distance, reported as is.
    """
    mus = _class_means(trial.Xs, trial.ys)
    mu0 = trial.Xs.mean(axis=0)
    diffs = mus - mu0
    V = lda.fit_lda(diffs, trial.stats_s.cov, config.lda_lam)
    # midpoint thresholds 0.5 v_k . (mu_k + mu0), one row-wise dot each
    thr = 0.5 * (V[:, None, :] @ (mus + mu0)[:, :, None]).ravel()
    W = V
    if whiten_cov is not None:
        W = lda.fit_coral_lda(diffs, lda.whitening(trial.stats_s.cov, config.lda_lam),
                              lda.whitening(whiten_cov, config.lda_lam))
    src_pred = np.argmax(trial.Xs @ V.T - thr, axis=1)
    tgt_pred = np.argmax(trial.Xt @ W.T - thr, axis=1)
    sacc = classify.accuracy(src_pred, trial.ys)
    tacc = (
        classify.accuracy(tgt_pred, trial.yt)
        if trial.yt is not None
        else float("nan")
    )
    return tacc, sacc, trial.pre, trial.pre, dmd


def _unrelated_stats(spec: ShiftSpec):
    """Statistics of a third, differently-shifted domain, standardized
    like the trial's own."""
    rot = (
        spec.rotation_seed
        if spec.rotation_seed is not None
        else spec.seed + ROTATION_SEED_OFFSET
    )
    spec_u = dataclasses.replace(
        spec,
        seed=spec.seed + UNRELATED_OFFSET,
        rotation_angles=None,
        rotation_seed=rot + UNRELATED_OFFSET,
    )
    _, unrel = generate_shift(spec_u)
    Xu, _, _ = standardize(unrel.features)
    return mean_and_covariance(Xu)


def _lda_mismatched(trial: _Trial, config: ExperimentConfig):
    stats_u = _unrelated_stats(trial.spec)
    return _lda_family(trial, config, stats_u.cov,
                       lda.domain_distance(stats_u, trial.stats_t))


def _train_deep(trial: _Trial, settings: DeepSettings, coral_weight: float,
                accuracy_curves: bool = False):
    """The one place a deep run is built: network and TrainConfig from
    ``settings``, both seeded with the trial seed.  Returns the initial
    network, the trained one and the LossReport (with per-iteration
    accuracy curves only if ``accuracy_curves``)."""
    K = int(trial.ys.max()) + 1
    net = deep.init_network([trial.Xs.shape[1], settings.hidden, K], seed=trial.seed)
    tc = deep.TrainConfig(
        coral_weight=coral_weight,
        learning_rate=settings.learning_rate,
        batch_size=settings.batch_size,
        iterations=settings.iterations,
        seed=trial.seed,
        momentum=settings.momentum,
    )
    trained, rep = deep.train_joint(
        net, trial.Xs, trial.ys, trial.Xt, tc, target_labels=trial.yt,
        accuracy_curves=accuracy_curves,
    )
    return net, trained, rep


def _deep_method(with_coral: bool):
    def run(trial: _Trial, config: ExperimentConfig):
        weight = config.deep.coral_weight if with_coral else 0.0
        net, _, rep = _train_deep(trial, config.deep, weight)
        logits_s, _ = deep.forward(net, trial.Xs)
        logits_t, _ = deep.forward(net, trial.Xt)
        pre = deep.coral_loss(logits_s, logits_t)
        dmd = lda.domain_distance(rep.final_source_stats, rep.final_target_stats)
        return (rep.final_target_acc, rep.final_source_acc, pre,
                rep.final_coral_distance, dmd)

    return run


# SVM method name -> feature map (trial, config) -> (source, target).
_FEATURE_MAPS = {
    "NA": _no_adaptation,
    "CORAL-reg": _coral_regularized,
    "CORAL-analytical": _coral_analytical,
    "whiten-both": _whiten_both,
    "target-recolor-source-direction": _recolor_target,
}

# Other method name -> handler mapping (trial, config) to
# (target_acc, source_acc, pre, post, domain_distance).
_HANDLERS = {
    "LDA": lambda trial, config: _lda_family(
        trial, config, None, lda.domain_distance(trial.stats_s, trial.stats_t)),
    "CORAL-LDA": lambda trial, config: _lda_family(
        trial, config, trial.stats_t.cov, 0.0),
    "CORAL-LDA-mismatched": _lda_mismatched,
    "deep": _deep_method(with_coral=True),
    "deep-no-coral": _deep_method(with_coral=False),
}

METHODS = (*_FEATURE_MAPS, *_HANDLERS)


def _timed(agg: MethodAggregate, fn, *args):
    """fn(*args), its wall time added to agg."""
    t0 = time.perf_counter()
    out = fn(*args)
    agg.wall_clock_seconds += time.perf_counter() - t0
    return out


def _run_trial(trial: _Trial, config: ExperimentConfig, agg: dict) -> dict:
    """Method name -> result tuple for one trial; the SVM methods are
    mapped, then trained in one shared fit (MethodAggregate says how its
    time is charged), then scored."""
    svm = [name for name in config.methods if name in _FEATURE_MAPS]
    results = {}
    if svm:
        mapped = [_timed(agg[name], _FEATURE_MAPS[name], trial, config) for name in svm]
        t0 = time.perf_counter()
        models = classify.fit_cross_validated(
            [Xs for Xs, _ in mapped], trial.ys, config.svm_grid, config.svm_folds,
            trial.seed, config.svm_epochs,
        )
        share = (time.perf_counter() - t0) / len(svm)
        for name, (Xs, Xt), model in zip(svm, mapped, models):
            agg[name].wall_clock_seconds += share
            results[name] = _timed(agg[name], _svm_scores, trial, Xs, Xt, model)
    for name in config.methods:
        if name not in results:
            results[name] = _timed(agg[name], _HANDLERS[name], trial, config)
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    file_pair = _load_file_pair(config) if config.spec is None else None
    agg = {name: MethodAggregate(name=name) for name in config.methods}
    for t in range(config.trials):
        trial = _make_trial(config, config.seed_base + t, file_pair)
        results = _run_trial(trial, config, agg)
        for name in config.methods:
            tacc, sacc, pre, post, dmd = results[name]
            if not np.isnan(tacc) and not 0.0 <= tacc <= 1.0:
                raise InvalidInputError(f"{name}: accuracy {tacc} out of range")
            agg[name].target_acc.append(tacc)
            agg[name].source_acc.append(sacc)
            agg[name].pre_dist.append(pre)
            agg[name].post_dist.append(post)
            agg[name].domain_distance.append(dmd)
    return ExperimentReport(
        methods=agg,
        trials=config.trials,
        seed_base=config.seed_base,
        config=config,
    )


@dataclass
class SweepReport:
    rows: list

    def to_dict(self) -> dict:
        return {"rows": self.rows}


def lambda_sweep(
    config: ExperimentConfig, lambdas, include_analytical: bool = True
) -> SweepReport:
    """Accuracy per regularization strength, optionally plus analytical."""
    lambdas = list(lambdas)
    if not lambdas and not include_analytical:
        raise InvalidInputError("empty lambda list")
    runs = [(float(lam), dict(methods=("CORAL-reg",), lam=float(lam))) for lam in lambdas]
    if include_analytical:
        runs.append(("analytical", dict(methods=("CORAL-analytical",))))
    rows = []
    for lam, overrides in runs:
        cfg = dataclasses.replace(config, **overrides)
        m = run_experiment(cfg).methods[cfg.methods[0]]
        rows.append(
            {
                "lam": lam,
                "target_acc": [float(x) for x in m.target_acc],
                "target_acc_mean": m.target_acc_mean,
                "target_acc_std": m.target_acc_std,
            }
        )
    return SweepReport(rows=rows)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "methods": list(config.methods),
        "trials": config.trials,
        "seed_base": config.seed_base,
        "lam": config.lam,
        "lda_lam": config.lda_lam,
        "svm_grid": list(config.svm_grid),
        "svm_folds": config.svm_folds,
        "svm_epochs": config.svm_epochs,
        "deep": dataclasses.asdict(config.deep),
        "csv_has_header": config.csv_has_header,
        "target_csv_has_labels": config.target_csv_has_labels,
    }
    if config.spec is not None:
        spec = dataclasses.asdict(config.spec)
        spec["scales"] = list(config.spec.scales)
        spec["mean_shift"] = list(config.spec.mean_shift)
        if config.spec.rotation_angles is not None:
            spec["rotation_angles"] = list(config.spec.rotation_angles)
        out["spec"] = spec
    if config.source_path is not None:
        out["source_path"] = config.source_path
    if config.target_path is not None:
        out["target_path"] = config.target_path
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    spec = None
    if "spec" in raw and raw["spec"] is not None:
        s = dict(raw.pop("spec"))
        s["scales"] = tuple(s["scales"])
        s["mean_shift"] = tuple(s["mean_shift"])
        if s.get("rotation_angles") is not None:
            s["rotation_angles"] = tuple(s["rotation_angles"])
        spec = ShiftSpec(**s)
    else:
        raw.pop("spec", None)
    deep_settings = DeepSettings(**raw.pop("deep")) if "deep" in raw else DeepSettings()
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    raw.setdefault("methods", ("NA",))
    raw["methods"] = tuple(raw["methods"])
    if "svm_grid" in raw:
        raw["svm_grid"] = tuple(raw["svm_grid"])
    return ExperimentConfig(spec=spec, deep=deep_settings, **raw)
