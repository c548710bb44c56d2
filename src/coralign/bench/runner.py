"""Experiment runner: adaptation methods x randomized trials.

Each trial regenerates the synthetic shift from seed_base + trial_index
(or reuses fixed input files), standardizes every domain with its own
statistics, trains the base classifier with a cross-validated hinge-loss
C on the method's transformed source, and evaluates on the target.

Methods run in groups, one call per group and trial for the group's
requested members, which share its work.  The five SVM methods share one
``classify.fit_cross_validated`` call, each at its own C; the LDA family
shares one solve and one source whitening; each deep method is a group
of its own.  Every member is charged an equal share of its group's time.

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
import json
import numbers
import time
from dataclasses import MISSING, dataclass, field
from typing import Optional

import numpy as np

from .. import classify, coral, lda
from ..deep import TrainConfig, init_network, train_joint
from ..errors import InvalidInputError
from ..linalg import mean_and_covariance, standardize
from .data import ROTATION_SEED_OFFSET, Dataset, ShiftSpec, generate_shift
from .io import load_dataset

# Seed offset deriving the "unrelated" third domain; a large prime so it
# never collides with trial indexing.
UNRELATED_OFFSET = 104729

# Training steps at the end of a deep run over which its two losses are
# averaged, to check the paper's balance of the losses at the end.
LOSS_BALANCE_STEPS = 50


@dataclass(frozen=True)
class ExperimentConfig:
    spec: Optional[ShiftSpec]
    methods: tuple[str, ...]
    trials: int = 20
    seed_base: int = 0
    lam: float = 1.0
    lda_lam: float = 1.0
    svm_grid: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0)
    svm_folds: int = 5
    svm_epochs: int = 20
    deep: TrainConfig = field(default_factory=TrainConfig)
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
        if len(set(self.methods)) != len(self.methods):
            raise InvalidInputError(f"methods repeat: {list(self.methods)}")
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

    ``wall_clock_seconds`` sums the method's time over the trials: in
    each trial, an equal share of the time of its method group's call
    (the SVM methods, the LDA family, or the deep method alone).
    ``extras`` maps the method's own per-trial fields to their values of
    each trial: ``chosen_C``, the cross-validated C, for an SVM method;
    ``end_class_loss`` and ``end_weighted_coral_loss`` for a deep method,
    its cross-entropy and weighted alignment loss averaged over the last
    min(LOSS_BALANCE_STEPS, iterations) training steps.  ``to_dict`` adds
    each after the common fields."""

    name: str
    target_acc: list = field(default_factory=list)
    source_acc: list = field(default_factory=list)
    pre_dist: list = field(default_factory=list)
    post_dist: list = field(default_factory=list)
    domain_distance: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

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
        out = {
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
        for key, values in self.extras.items():
            out[key] = [float(v) for v in values]
        return out


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


def _acc(pred, y) -> float:
    """Accuracy of the predicted labels, NaN without labels."""
    return float("nan") if y is None else classify.accuracy(pred, y)


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


def _svm_group(trial: _Trial, config: ExperimentConfig, names):
    """The SVM methods: each feature map, then one cross-validated fit of
    all mapped sources, each at its own C, which each result carries.
    Each method is scored on its own features; post and domain_distance
    compare the covariances of its two sides, reusing the trial's
    statistics for an unmapped side."""
    mapped = [_FEATURE_MAPS[name](trial, config) for name in names]
    models = classify.fit_cross_validated(
        [Xs for Xs, _ in mapped], trial.ys, config.svm_grid, config.svm_folds,
        trial.seed, config.svm_epochs,
    )
    results = []
    for (Xs, Xt), model in zip(mapped, models):
        stats_s = trial.stats_s if Xs is trial.Xs else mean_and_covariance(Xs)
        stats_t = trial.stats_t if Xt is trial.Xt else mean_and_covariance(Xt)
        post = float(np.linalg.norm(stats_s.cov - stats_t.cov))
        results.append((_acc(classify.predict(model, Xt), trial.yt),
                        _acc(classify.predict(model, Xs), trial.ys), trial.pre,
                        post, lda.domain_distance(stats_s, stats_t), {"chosen_C": model.C}))
    return results


def _lda_group(trial: _Trial, config: ExperimentConfig, names):
    """The LDA family: one-vs-background discriminants, argmax over
    midpoint-shifted scores.

    One solve gives the plain weights, the thresholds and the source
    accuracy for every member.  LDA scores the target with the plain
    weights; each CORAL variant whitens them with the one source whitening
    and its own target-side whitening: the target's own covariance, or an
    unrelated domain's for CORAL-LDA-mismatched."""
    mus = np.stack([trial.Xs[trial.ys == k].mean(axis=0)
                    for k in range(int(trial.ys.max()) + 1)])
    mu0 = trial.Xs.mean(axis=0)
    diffs = mus - mu0
    V = lda.fit_lda(diffs, trial.stats_s.cov, config.lda_lam)
    # midpoint thresholds 0.5 v_k . (mu_k + mu0), one row-wise dot each
    thr = 0.5 * (V[:, None, :] @ (mus + mu0)[:, :, None]).ravel()
    sacc = _acc(np.argmax(trial.Xs @ V.T - thr, axis=1), trial.ys)
    if any(name != "LDA" for name in names):
        whiten_s = lda.whitening(trial.stats_s.cov, config.lda_lam)

    def coral_weights(cov):
        return lda.fit_coral_lda(diffs, whiten_s, lda.whitening(cov, config.lda_lam))

    results = []
    for name in names:
        if name == "LDA":
            W, dmd = V, lda.domain_distance(trial.stats_s, trial.stats_t)
        elif name == "CORAL-LDA":
            W, dmd = coral_weights(trial.stats_t.cov), 0.0
        else:
            stats_u = _unrelated_stats(trial.spec)
            W, dmd = coral_weights(stats_u.cov), lda.domain_distance(stats_u, trial.stats_t)
        tacc = _acc(np.argmax(trial.Xt @ W.T - thr, axis=1), trial.yt)
        results.append((tacc, sacc, trial.pre, trial.pre, dmd, {}))
    return results


def _unrelated_stats(spec: ShiftSpec):
    """Statistics of a third, differently-shifted domain, standardized
    like the trial's own."""
    rot = spec.rotation_seed
    if rot is None:
        rot = spec.seed + ROTATION_SEED_OFFSET
    spec_u = dataclasses.replace(spec, seed=spec.seed + UNRELATED_OFFSET,
                                 rotation_angles=None, rotation_seed=rot + UNRELATED_OFFSET)
    _, unrel = generate_shift(spec_u)
    Xu, _, _ = standardize(unrel.features)
    return mean_and_covariance(Xu)


def _train_deep(trial: _Trial, cfg: TrainConfig, accuracy_curves: bool = False):
    """The one place a deep run is built: the network, ``cfg.hidden`` wide,
    and its training, both seeded with the trial seed.  Returns the
    trained network and the LossReport (with per-iteration accuracy
    curves only if ``accuracy_curves``)."""
    K = int(trial.ys.max()) + 1
    net = init_network([trial.Xs.shape[1], cfg.hidden, K], seed=trial.seed)
    return train_joint(net, trial.Xs, trial.ys, trial.Xt, cfg, trial.seed,
                       target_labels=trial.yt, accuracy_curves=accuracy_curves)


def _deep_group(trial: _Trial, config: ExperimentConfig, names):
    """deep or deep-no-coral, the joint trainer with or without the
    alignment loss; pre and post are its alignment loss before and after
    training, and the extras its loss balance at the end."""
    (name,) = names
    cfg = config.deep if name == "deep" else dataclasses.replace(config.deep, coral_weight=0.0)
    _, rep = _train_deep(trial, cfg)
    dmd = lda.domain_distance(rep.final_source_stats, rep.final_target_stats)
    last = slice(-LOSS_BALANCE_STEPS, None)
    balance = {"end_class_loss": np.mean(rep.class_loss[last]),
               "end_weighted_coral_loss": cfg.coral_weight * np.mean(rep.coral_loss[last])}
    return [(rep.final_target_acc, rep.final_source_acc, rep.initial_coral_distance,
             rep.final_coral_distance, dmd, balance)]


# SVM method name -> feature map (trial, config) -> (source, target).
_FEATURE_MAPS = {
    "NA": _no_adaptation,
    "CORAL-reg": _coral_regularized,
    "CORAL-analytical": _coral_analytical,
    "whiten-both": _whiten_both,
    "target-recolor-source-direction": _recolor_target,
}

# Method groups: (group, members).  A group maps (trial, config, names),
# names its requested members in config.methods order, to one
# (target_acc, source_acc, pre, post, domain_distance, extras) per name,
# extras the member's own fields (MethodAggregate.extras); members share
# the group's work.
# The two deep methods share none, so each is a group of its own.
_GROUPS = (
    (_svm_group, tuple(_FEATURE_MAPS)),
    (_lda_group, ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched")),
    (_deep_group, ("deep",)),
    (_deep_group, ("deep-no-coral",)),
)

METHODS = tuple(name for _, members in _GROUPS for name in members)


def _run_trial(trial: _Trial, config: ExperimentConfig, agg: dict) -> dict:
    """Method name -> result tuple for one trial: each group runs once
    for its requested members, and each member is charged an equal share
    of the group's time."""
    results = {}
    for group, members in _GROUPS:
        names = [name for name in config.methods if name in members]
        if names:
            t0 = time.perf_counter()
            out = group(trial, config, names)
            share = (time.perf_counter() - t0) / len(names)
            for name, result in zip(names, out):
                agg[name].wall_clock_seconds += share
                results[name] = result
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    file_pair = _load_file_pair(config) if config.spec is None else None
    agg = {name: MethodAggregate(name=name) for name in config.methods}
    for t in range(config.trials):
        trial = _make_trial(config, config.seed_base + t, file_pair)
        results = _run_trial(trial, config, agg)
        for name in config.methods:
            tacc, sacc, pre, post, dmd, extras = results[name]
            if not np.isnan(tacc) and not 0.0 <= tacc <= 1.0:
                raise InvalidInputError(f"{name}: accuracy {tacc} out of range")
            agg[name].target_acc.append(tacc)
            agg[name].source_acc.append(sacc)
            agg[name].pre_dist.append(pre)
            agg[name].post_dist.append(post)
            agg[name].domain_distance.append(dmd)
            for key, value in extras.items():
                agg[name].extras.setdefault(key, []).append(value)
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


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


# The JSON value each field annotation takes, as (description, test): an
# integer is a number too, true and false are not.  Nested objects are
# checked by their own _keywords call.
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[float, ...]": ("a list of numbers", _is_list_of(_is_number)),
    "tuple[str, ...]": ("a list of strings", _is_list_of(lambda v: isinstance(v, str))),
}


def _check_json_type(value, annotation: str, name: str) -> None:
    optional = annotation.startswith("Optional[")
    if optional:
        annotation = annotation[len("Optional["):-1]
    if annotation not in _JSON_TYPES or (optional and value is None):
        return
    description, test = _JSON_TYPES[annotation]
    if not test(value):
        raise InvalidInputError(f"{name} must be {description}, not {json.dumps(value)}")


def _keywords(raw, cls, what: str, **defaults) -> dict:
    """The JSON object ``raw`` over ``defaults`` as keyword arguments of the
    dataclass ``cls``; InvalidInputError unless it is an object that names
    only fields of ``cls`` and every field without a default, each value
    of the JSON type its field's annotation names (``_JSON_TYPES``)."""
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{what} must be a JSON object, not {type(raw).__name__}")
    kwargs = {**defaults, **raw}
    fields = dataclasses.fields(cls)
    unknown = set(kwargs) - {f.name for f in fields}
    if unknown:
        raise InvalidInputError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise InvalidInputError(f"{what} is missing keys: {missing}")
    for f in fields:
        if f.name in raw:
            _check_json_type(raw[f.name], f.type, f"{what} key {f.name!r}")
    return kwargs


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = _keywords(raw, ExperimentConfig, "config", spec=None, methods=("NA",))
    if raw["spec"] is not None:
        s = _keywords(raw["spec"], ShiftSpec, "spec")
        s["scales"] = tuple(s["scales"])
        s["mean_shift"] = tuple(s["mean_shift"])
        if s.get("rotation_angles") is not None:
            s["rotation_angles"] = tuple(s["rotation_angles"])
        raw["spec"] = ShiftSpec(**s)
    if "deep" in raw:
        raw["deep"] = TrainConfig(**_keywords(raw["deep"], TrainConfig, "deep"))
    raw["methods"] = tuple(raw["methods"])
    if "svm_grid" in raw:
        raw["svm_grid"] = tuple(raw["svm_grid"])
    return ExperimentConfig(**raw)
