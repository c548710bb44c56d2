"""Experiment runner: adaptation methods x randomized trials.

Each trial regenerates the synthetic shift from seed_base + trial_index,
standardizes every domain with its own statistics, trains the base
classifier with a cross-validated hinge-loss C on the method's
transformed source, and evaluates on the target.  A file pair is read
and standardized once per run, and that one trial serves every seed.

One loop builds, runs and frees the trials.  Its members are (method
name, config) pairs, the config the one the method's feature map reads:
``run_experiment`` runs each requested method at the run's config, and
``lambda_sweep`` runs CORAL-reg at each λ (and CORAL-analytical) as
members of the same loop.  Methods run in groups, one call per group and
trial for the group's members, which share its work.  The SVM members
share one ``classify.fit_cross_validated`` call, each at its own C, and
NA and target-recolor-source-direction, which both train on the
untouched source matrix, are one member of it, fit once; the LDA family
decomposes each domain's covariance once and solves nothing; the two
deep methods train side by side in one lockstep run, on the same source
batches.  Every member is charged an equal share of its group's time;
building the trial is charged to no method.

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
class means, so no target label enters either.  When the config lists
CORAL-LDA-mismatched, each trial draws the unrelated domain before its
own data and keeps only its statistics.
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
from ..deep import TrainConfig, _Diverged, _train_members, init_network
from ..errors import InvalidInputError, NumericalError
from ..linalg import DomainStats, mean_and_covariance, psd_operator, standardize
from .data import ShiftSpec, _rotation_seed, generate_shift
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
        if self.spec is not None and (self.source_path or self.target_path):
            raise InvalidInputError(
                "config takes a spec or source+target file paths, not both"
            )
        if self.spec is None and "CORAL-LDA-mismatched" in self.methods:
            raise InvalidInputError(
                "CORAL-LDA-mismatched needs a synthetic spec to derive "
                "an unrelated domain"
            )
        if not 0 < self.lam < np.inf:
            raise InvalidInputError("lam must be a finite number > 0 (CORAL-analytical is 0)")
        if not 0 <= self.lda_lam < np.inf:
            raise InvalidInputError("lda_lam must be a finite number >= 0")
        if self.seed_base < 0:
            raise InvalidInputError("seed_base must be >= 0")
        if not self.svm_grid or not all(0 < C < np.inf for C in self.svm_grid):
            raise InvalidInputError("svm_grid must be a non-empty list of finite numbers > 0")
        if self.svm_folds < 2:
            raise InvalidInputError("svm_folds must be >= 2")
        if self.svm_epochs < 1:
            raise InvalidInputError("svm_epochs must be >= 1")


@dataclass
class MethodAggregate:
    """Per-trial results of one method.

    ``wall_clock_seconds`` sums the method's time over the trials: in
    each trial, an equal share of the time of its method group's call
    (the SVM methods, the LDA family, or the deep methods).
    ``extras`` maps the method's own per-trial fields to their values of
    each trial: ``chosen_C``, the cross-validated C, and ``cv_acc``, the
    mean held-out accuracy of that C over the folds, for an SVM method;
    ``end_class_loss`` and ``end_weighted_coral_loss`` for a deep method,
    its cross-entropy and weighted alignment loss averaged over the last
    min(LOSS_BALANCE_STEPS, iterations) training steps.  ``to_dict`` adds
    each after the common fields."""

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
    config: ExperimentConfig

    def to_dict(self) -> dict:
        return {
            "trials": self.config.trials,
            "seed_base": self.config.seed_base,
            "config": config_to_dict(self.config),
            "methods": {k: v.to_dict() for k, v in self.methods.items()},
        }


@dataclass
class _Trial:
    """Standardized per-trial data shared by every method; ``unrelated``
    holds the unrelated domain's statistics for CORAL-LDA-mismatched."""

    Xs: np.ndarray
    ys: np.ndarray
    Xt: np.ndarray
    yt: Optional[np.ndarray]
    stats_s: DomainStats
    stats_t: DomainStats
    pre: float
    seed: int
    unrelated: Optional[DomainStats]


def _make_trial(config: ExperimentConfig, seed: int) -> _Trial:
    """The trial's standardized domains and their statistics: the config's
    file pair, whatever the seed, or the spec's shift drawn at ``seed``.
    Raw features are released once standardized.  For CORAL-LDA-mismatched
    the unrelated domain's statistics are taken first, before the trial's
    own domains exist."""
    if config.spec is None:
        src = load_dataset(config.source_path, config.csv_has_header, True)
        tgt = load_dataset(config.target_path, config.csv_has_header,
                           config.target_csv_has_labels)
        if src.labels is None:
            raise InvalidInputError("source dataset must carry labels")
        if src.d != tgt.d:
            raise InvalidInputError("source and target dimensions differ")
        unrelated = None
    else:
        spec = dataclasses.replace(config.spec, seed=seed)
        unrelated = (_unrelated_stats(spec) if "CORAL-LDA-mismatched" in config.methods
                     else None)
        src, tgt = generate_shift(spec)
    ys, yt = src.labels, tgt.labels
    Xs = standardize(src.features)[0]
    del src
    Xt = standardize(tgt.features)[0]
    del tgt
    stats_s = mean_and_covariance(Xs)
    stats_t = mean_and_covariance(Xt)
    pre = float(np.linalg.norm(stats_s.cov - stats_t.cov))
    return _Trial(
        Xs=Xs, ys=ys, Xt=Xt, yt=yt,
        stats_s=stats_s, stats_t=stats_t, pre=pre, seed=seed, unrelated=unrelated,
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
    return coral.whiten_both_baseline(trial.Xs, trial.Xt, config.lam)


def _recolor_target(trial, config):
    tr = coral.fit_regularized(trial.Xt, trial.Xs, config.lam)
    return trial.Xs, coral.apply_to_features(tr, trial.Xt)


def _svm_group(trial: _Trial, config: ExperimentConfig, members):
    """The SVM methods: each member's feature map at the member's own
    config, then one cross-validated fit of all mapped sources, each at
    its own C, which each result carries with its mean held-out accuracy.
    NA and target-recolor-source-direction both pass the trial's own
    source matrix, which that fit trains once.  Each member is scored on
    its own features; post and domain_distance compare the covariances of
    its two sides, reusing the trial's statistics for an unmapped side."""
    mapped = [_FEATURE_MAPS[name](trial, cfg) for name, cfg in members]
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
                        post, lda.domain_distance(stats_s, stats_t),
                        {"chosen_C": model.C, "cv_acc": model.cv_acc}))
    return results


def _lda_group(trial: _Trial, config: ExperimentConfig, members):
    """The LDA family: one-vs-background discriminants, argmax over
    midpoint-shifted scores.

    One source operator C_S + lda_lam I serves every member: its inverse
    gives the plain weights, the thresholds and the source accuracy.  LDA
    scores the target with the plain weights; each CORAL variant whitens
    with the source operator and its own target-side one: the target's
    covariance, or for CORAL-LDA-mismatched that of the unrelated domain
    the trial drew before its own data (``trial.unrelated``)."""
    mus = np.stack([trial.Xs[trial.ys == k].mean(axis=0)
                    for k in range(int(trial.ys.max()) + 1)])
    mu0 = trial.stats_s.mean
    diffs = mus - mu0
    source = psd_operator(trial.stats_s.cov, config.lda_lam)
    V = lda.fit_lda(diffs, source)
    # midpoint thresholds 0.5 v_k . (mu_k + mu0), one row-wise dot each
    thr = 0.5 * (V[:, None, :] @ (mus + mu0)[:, :, None]).ravel()
    sacc = _acc(np.argmax(trial.Xs @ V.T - thr, axis=1), trial.ys)
    results = []
    for name, _ in members:
        if name == "LDA":
            W, dmd = V, lda.domain_distance(trial.stats_s, trial.stats_t)
        else:
            stats = trial.stats_t if name == "CORAL-LDA" else trial.unrelated
            W = lda.fit_coral_lda(diffs, source, psd_operator(stats.cov, config.lda_lam))
            dmd = lda.domain_distance(stats, trial.stats_t)
        tacc = _acc(np.argmax(trial.Xt @ W.T - thr, axis=1), trial.yt)
        results.append((tacc, sacc, trial.pre, trial.pre, dmd, {}))
    return results


def _unrelated_stats(spec: ShiftSpec) -> DomainStats:
    """Statistics of a third, differently-shifted domain, standardized
    like the trial's own: the target of generate_shift(spec_u), drawn
    through the same entry as the trial's own data.  Its source is
    released as the pair is indexed, and its target once standardized."""
    spec_u = dataclasses.replace(spec, seed=spec.seed + UNRELATED_OFFSET, rotation_angles=None,
                                 rotation_seed=_rotation_seed(spec) + UNRELATED_OFFSET)
    return mean_and_covariance(standardize(generate_shift(spec_u)[1].features)[0])


def _deep_network(trial: _Trial, cfg: TrainConfig):
    """The network every deep run of a trial starts from: ``cfg.hidden``
    wide, seeded with the trial seed."""
    K = int(trial.ys.max()) + 1
    return init_network([trial.Xs.shape[1], cfg.hidden, K], seed=trial.seed)


def _deep_group(trial: _Trial, config: ExperimentConfig, members):
    """deep and deep-no-coral, the joint trainer with and without the
    alignment loss, in one lockstep run: each member is what train_joint
    gives from _deep_network at its weight, its batches drawn from the
    trial seed.  Pre and post are a member's alignment loss before and
    after training, and the extras its loss balance at the end.  A
    diverging member's NumericalError names the method and the trial
    seed."""
    names = [name for name, _ in members]
    weights = [config.deep.coral_weight if name == "deep" else 0.0 for name in names]
    try:
        runs = _train_members(_deep_network(trial, config.deep), trial.Xs, trial.ys,
                              trial.Xt, config.deep, weights, trial.seed, trial.yt)
    except _Diverged as exc:
        raise NumericalError(f"{names[exc.member]} on trial seed {trial.seed}: {exc}") from exc
    last = slice(-LOSS_BALANCE_STEPS, None)
    results = []
    for weight, (_, rep) in zip(weights, runs):
        dmd = lda.domain_distance(rep.final_source_stats, rep.final_target_stats)
        balance = {"end_class_loss": np.mean(rep.class_loss[last]),
                   "end_weighted_coral_loss": weight * np.mean(rep.coral_loss[last])}
        results.append((rep.final_target_acc, rep.final_source_acc, rep.initial_coral_distance,
                        rep.final_coral_distance, dmd, balance))
    return results


# SVM method name -> feature map (trial, config) -> (source, target).
_FEATURE_MAPS = {
    "NA": _no_adaptation,
    "CORAL-reg": _coral_regularized,
    "CORAL-analytical": _coral_analytical,
    "whiten-both": _whiten_both,
    "target-recolor-source-direction": _recolor_target,
}

# Method groups: (group, methods).  A group maps (trial, config, members),
# its members the run's (name, config) pairs of its methods in run order,
# to one (target_acc, source_acc, pre, post, domain_distance, extras) per
# member, extras the member's own fields (MethodAggregate.extras); members
# share the group's work.  Only the SVM group reads a member's config;
# the others read the run's.
_GROUPS = (
    (_svm_group, tuple(_FEATURE_MAPS)),
    (_lda_group, ("LDA", "CORAL-LDA", "CORAL-LDA-mismatched")),
    (_deep_group, ("deep", "deep-no-coral")),
)

METHODS = tuple(name for _, methods in _GROUPS for name in methods)


def _run(config: ExperimentConfig, members) -> list[MethodAggregate]:
    """One MethodAggregate per member, a (method name, config) pair whose
    config the method's feature map reads, over config's trials.  A file
    pair's trial is built once and serves every trial seed; a spec's
    trial is built per seed and released before the next is built.  Each
    group runs once per trial for its own members, and each member is
    charged an equal share of the group's time."""
    shared = _make_trial(config, config.seed_base) if config.spec is None else None
    aggs = [MethodAggregate() for _ in members]
    groups = [(group, idx) for group, methods in _GROUPS
              if (idx := [i for i, (name, _) in enumerate(members) if name in methods])]
    for seed in range(config.seed_base, config.seed_base + config.trials):
        trial = (_make_trial(config, seed) if shared is None
                 else dataclasses.replace(shared, seed=seed))
        for group, idx in groups:
            t0 = time.perf_counter()
            out = group(trial, config, [members[i] for i in idx])
            share = (time.perf_counter() - t0) / len(idx)
            for i, (tacc, sacc, pre, post, dmd, extras) in zip(idx, out):
                agg = aggs[i]
                agg.wall_clock_seconds += share
                agg.target_acc.append(tacc)
                agg.source_acc.append(sacc)
                agg.pre_dist.append(pre)
                agg.post_dist.append(post)
                agg.domain_distance.append(dmd)
                for key, value in extras.items():
                    agg.extras.setdefault(key, []).append(value)
        del trial  # released before the next trial is built
    return aggs


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    aggs = _run(config, [(name, config) for name in config.methods])
    return ExperimentReport(methods=dict(zip(config.methods, aggs)), config=config)


@dataclass
class SweepReport:
    rows: list

    def to_dict(self) -> dict:
        return {"rows": self.rows}


def lambda_sweep(
    config: ExperimentConfig, lambdas, include_analytical: bool = True
) -> SweepReport:
    """CORAL-reg's target accuracy per trial at each λ, plus
    CORAL-analytical's if asked: one row each, what ``run_experiment``
    reports for the method at ``lam`` = λ.  The rows are members of the
    one run loop: each trial is built once, and all rows' sources are the
    members of one ``classify.fit_cross_validated`` call, bitwise each
    row's own fit under OpenBLAS's default SkylakeX kernel (Haswell and
    Nehalem can differ in the last bit, see ``classify``)."""
    rows = [(float(lam), ("CORAL-reg", dataclasses.replace(config, lam=float(lam))))
            for lam in lambdas]
    if include_analytical:
        rows.append(("analytical", ("CORAL-analytical", config)))
    if not rows:
        raise InvalidInputError("empty lambda list")
    aggs = _run(config, [member for _, member in rows])
    return SweepReport(rows=[
        {"lam": lam, "target_acc": m.target_acc, "target_acc_mean": m.target_acc_mean,
         "target_acc_std": m.target_acc_std}
        for (lam, _), m in zip(rows, aggs)
    ])


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config's fields as JSON-ready values: the data source (spec,
    or the two file paths) last, each only when set."""
    out = dataclasses.asdict(config)
    source = {key: out.pop(key) for key in ("spec", "source_path", "target_path")}
    out.update((key, value) for key, value in source.items() if value is not None)
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
    """The config a JSON object describes.  Every key but the data source
    has a default; without ``methods`` the config runs ("NA",)."""
    raw = _keywords(raw, ExperimentConfig, "config", spec=None, methods=("NA",))
    if raw["spec"] is not None:
        raw["spec"] = ShiftSpec(**_keywords(raw["spec"], ShiftSpec, "spec"))
    if "deep" in raw:
        raw["deep"] = TrainConfig(**_keywords(raw["deep"], TrainConfig, "deep"))
    return ExperimentConfig(**raw)
