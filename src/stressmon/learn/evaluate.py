"""User-grouped cross-validation, F1 scoring and the personalization probe.

Folds partition users, never rows, so no subject's data spans train and
test.  Every fold gets a fresh start: the imputer, feature selection and
model are fit on the training users only.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..dataset import DEFAULT_IMPUTE_K, DEFAULT_IMPUTE_WEIGHTING, FeatureMatrix, fit_imputer
from ..errors import InsufficientTargetData, LengthMismatch, TooFewGroups, write_csv, write_json
from .knn import train_knn
from .trees import (DEFAULT_BOOST_RATE, DEFAULT_N_TREES, feature_ranking, select_top_features,
                    train_boosted, train_random_forest)

DEFAULT_FOLDS = 5
AUTO_SELECT_MIN = 4
AUTO_TUNE_TREES = 50
#: The classifiers a ModelSpec may name.
MODEL_KINDS = ("rf", "knn", "boosted")


@dataclass(frozen=True)
class ModelSpec:
    """Which classifier to fit and with what hyperparameters."""

    kind: str = "rf"                 # one of MODEL_KINDS
    depth: int = 5
    k: int = 5
    n_trees: int = DEFAULT_N_TREES
    rounds: int = 100
    learning_rate: float = DEFAULT_BOOST_RATE
    select_top: object = None        # None, int, or "auto"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    def describe(self) -> dict:
        return {**asdict(self), "impute_k": DEFAULT_IMPUTE_K,
                "impute_weighting": DEFAULT_IMPUTE_WEIGHTING}


@dataclass
class FoldResult:
    fold: int
    f1: float
    test_users: list
    selected_features: list
    confusion: dict


@dataclass
class EvalReport:
    """Per-fold F1 scores plus their arithmetic mean and fold metadata."""

    spec: dict
    seed: int
    folds: list = field(default_factory=list)

    @property
    def fold_f1s(self):
        return [f.f1 for f in self.folds]

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.fold_f1s)) if self.folds else float("nan")

    def to_dict(self) -> dict:
        return {
            "model": self.spec,
            "seed": self.seed,
            "mean_f1": self.mean_f1,
            "folds": [asdict(f) for f in self.folds],
        }

    def write(self, json_path, csv_path):
        write_json(json_path, self.to_dict(), indent=2, sort_keys=True)
        write_csv(csv_path, [
            ["fold", "f1", "tp", "fp", "fn", "tn", "test_users"],
            *([f.fold, repr(f.f1), *(f.confusion[k] for k in ("tp", "fp", "fn", "tn")),
               " ".join(f.test_users)] for f in self.folds),
            ["mean", repr(self.mean_f1), "", "", "", "", ""]])


def f1_score(y_true, y_pred) -> float:
    """2PR/(P+R) with F1 = 0 when precision + recall = 0."""
    if np.shape(y_true) != np.shape(y_pred):
        raise LengthMismatch(f"{np.shape(y_true)} vs {np.shape(y_pred)}")
    counts = _confusion(y_true, y_pred)
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _confusion(y_true, y_pred) -> dict:
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    return {"tp": int(np.sum((y_true == 1) & (y_pred == 1))),
            "fp": int(np.sum((y_true == 0) & (y_pred == 1))),
            "fn": int(np.sum((y_true == 1) & (y_pred == 0))),
            "tn": int(np.sum((y_true == 0) & (y_pred == 0)))}


def fit_model(spec: ModelSpec, X, y, seed: int, feature_names=None):
    if spec.kind == "rf":
        return train_random_forest(X, y, depth=spec.depth, n_trees=spec.n_trees,
                                   seed=seed, feature_names=feature_names)
    if spec.kind == "boosted":
        return train_boosted(X, y, rounds=spec.rounds, depth=spec.depth,
                             learning_rate=spec.learning_rate, seed=seed,
                             feature_names=feature_names)
    return train_knn(X, y, k=spec.k, feature_names=feature_names)


def split_users_into_folds(users, folds: int, seed: int):
    """Seeded disjoint partition of the (sorted) user list into folds."""
    users = sorted(users)
    if len(users) < folds:
        raise TooFewGroups(f"{len(users)} users cannot fill {folds} folds")
    order = np.random.default_rng([seed, len(users)]).permutation(len(users))
    shuffled = [users[i] for i in order]
    return [list(part) for part in np.array_split(shuffled, folds)]


def fit_on_rows(matrix: FeatureMatrix, rows, spec: ModelSpec, seed: int):
    """Fresh-start fit on ``rows`` alone: impute, select features, fit.

    Returns ``(model, imputer, selected)``.  The imputer is fit on ``rows``
    and completes any other rows for prediction; ``selected`` lists the
    column indices the model reads.
    """
    imputer = fit_imputer(matrix, rows)
    values = matrix.values[rows]
    X = imputer.transform(values, np.isnan(values), exclude=np.arange(len(rows)))
    y = matrix.labels[rows].astype(int)
    if spec.select_top is None:
        selected = list(range(len(matrix.columns)))
    elif spec.select_top == "auto":
        selected = _auto_select(X, y, [matrix.groups[i] for i in rows], spec, seed)
    else:
        selected = select_top_features(X, y, int(spec.select_top), seed=seed)
    model = fit_model(spec, X[:, selected], y, seed,
                      feature_names=[matrix.columns[i] for i in selected])
    return model, imputer, selected


def _held_out(matrix: FeatureMatrix, train_rows, test_rows, spec: ModelSpec, seed: int):
    """``(y_true, y_pred, selected)`` on ``test_rows`` of a :func:`fit_on_rows`
    on ``train_rows``."""
    model, imputer, selected = fit_on_rows(matrix, train_rows, spec, seed)
    values = matrix.values[test_rows]
    X_te = imputer.transform(values, np.isnan(values))
    return (matrix.labels[test_rows].astype(int), model.predict(X_te[:, selected]),
            selected)


def _auto_select(X, y, groups, spec, seed):
    """The first k columns, ascending, of the training rows' :func:`feature_ranking`,
    with k tuned on a held-out third of the training users."""
    d = X.shape[1]
    ranked = feature_ranking(X, y, seed)
    users = sorted(set(groups))
    if len(users) < 3 or d <= AUTO_SELECT_MIN:
        return sorted(ranked[:AUTO_SELECT_MIN])
    order = np.random.default_rng([seed, 7]).permutation(len(users))
    held = {users[i] for i in order[:max(1, len(users) // 3)]}
    inner_test = np.array([g in held for g in groups])
    tune_spec = replace(spec, n_trees=min(spec.n_trees, AUTO_TUNE_TREES),
                        rounds=min(spec.rounds, AUTO_TUNE_TREES), select_top=None)
    best_m, best_f1 = AUTO_SELECT_MIN, -1.0
    for m in range(AUTO_SELECT_MIN, d + 1):
        cols = sorted(ranked[:m])
        model = fit_model(tune_spec, X[~inner_test][:, cols], y[~inner_test], seed)
        score = f1_score(y[inner_test], model.predict(X[inner_test][:, cols]))
        if score > best_f1:
            best_m, best_f1 = m, score
    return sorted(ranked[:best_m])


def grouped_cv(matrix: FeatureMatrix, spec: ModelSpec,
               folds: int = DEFAULT_FOLDS, seed: int = 0) -> EvalReport:
    """User-grouped k-fold evaluation with per-fold fresh preprocessing."""
    labeled = matrix.labeled()
    fold_users = split_users_into_folds(set(labeled.groups), folds, seed)
    groups = np.array(labeled.groups, dtype=object)
    report = EvalReport(spec=spec.describe(), seed=seed)
    for f, test_users in enumerate(fold_users):
        is_test = np.isin(groups, test_users)
        y_te, y_pred, selected = _held_out(labeled, np.flatnonzero(~is_test),
                                           np.flatnonzero(is_test), spec, 1009 * seed + f)
        report.folds.append(FoldResult(
            fold=f, f1=f1_score(y_te, y_pred), test_users=sorted(test_users),
            selected_features=[labeled.columns[i] for i in selected],
            confusion=_confusion(y_te, y_pred)))
    return report


@dataclass
class PersonalizationResult:
    user: str
    f1_before: float
    f1_after: float
    #: (before, after) fits' training rows and fit-plus-predict seconds; not reported
    train_rows: tuple
    fit_s: tuple

    def to_dict(self) -> dict:
        return {"user": self.user, "f1_before": self.f1_before, "f1_after": self.f1_after}


def personalization_eval(matrix: FeatureMatrix, target_user: str,
                         spec: ModelSpec, seed: int = 0) -> PersonalizationResult:
    """F1 on the target's first (chronological) half, before and after
    adding the target's second half to the training data."""
    labeled = matrix.labeled()
    groups = np.array(labeled.groups, dtype=object)
    target_rows = np.flatnonzero(groups == target_user)
    if target_rows.size < 2:
        raise InsufficientTargetData(
            f"user {target_user!r} has {target_rows.size} labeled windows")
    order = np.argsort(labeled.window_starts[target_rows], kind="stable")
    target_rows = target_rows[order]
    n_test = (target_rows.size + 1) // 2
    test_rows = target_rows[:n_test]
    extra_rows = target_rows[n_test:]
    other_rows = np.flatnonzero(groups != target_user)
    if other_rows.size == 0:
        raise InsufficientTargetData(
            f"user {target_user!r} is the only user with labeled windows; "
            "no other user's are left to train on")
    trains = (other_rows, np.sort(np.concatenate([other_rows, extra_rows])))
    scores, fit_s = [], []
    for train_rows in trains:
        t0 = time.monotonic()
        scores.append(f1_score(*_held_out(labeled, train_rows, test_rows, spec, seed)[:2]))
        fit_s.append(time.monotonic() - t0)
    return PersonalizationResult(user=target_user, f1_before=scores[0], f1_after=scores[1],
                                 train_rows=tuple(map(len, trains)), fit_s=tuple(fit_s))
