"""Command-line orchestration of the pipeline stages.

Each stage reads and writes the documented on-disk formats and drops a
manifest (inputs, output hashes, versions, timings) into its output
directory, so reruns are verifiable.  Exit codes: 0 success, 2 usage
errors, 3 data/config errors.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, dataset, explain as explain_mod, signals
from .context import CONTEXT_FEATURE_NAMES, ContextSchema, load_zones
from .errors import DataFormatError, StressmonError, TooManyFeatures, read_input, write_json
from .hrv import HRV_FEATURE_NAMES
from .learn import (ModelSpec, fit_on_rows, grouped_cv, model_from_dict, model_to_dict,
                    personalization_eval)
from .learn.evaluate import DEFAULT_FOLDS, MODEL_KINDS
from .learn.trees import TreeEnsembleModel, tree_nodes
from .sim import SimConfig, run_simulation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, command, seed, inputs, outputs, timings, config_path=None,
                   counts=None):
    """Write ``manifest.json``; ``counts``, when given, is what the stage read and kept."""
    manifest = {
        "command": command,
        "config_hash": _sha256(config_path) if config_path else None,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": {os.path.basename(str(p)): _sha256(p) for p in outputs},
        "versions": {"stressmon": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "timings": timings,
    }
    if counts is not None:
        manifest["counts"] = counts
    path = os.path.join(str(out_dir), "manifest.json")
    write_json(path, manifest, indent=2, sort_keys=True)
    return path


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    config = SimConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
    result = run_simulation(config, args.out)
    write_manifest(args.out, "simulate", config.seed, [args.config],
                   list(result.paths.values()),
                   {"total_s": round(time.monotonic() - t0, 3), **result.timings},
                   config_path=args.config, counts=result.counts)
    print(f"simulated {config.n_users} users x {config.days} days -> {args.out} "
          f"({result.counts['bursts']} bursts, {result.counts['emas']} EMAs)")
    return EXIT_OK


def featurize_directory(data_dir, zones_path=None, counts=None):
    """data dir (bursts/context/ema files) -> labeled FeatureMatrix.

    ``ema.csv`` is read first, so that the burst and context folds
    (:func:`signals.windowize`) hold only the labeled slots.  Errors are
    raised in a fixed order: a malformed bursts.jsonl line, then a
    malformed context.jsonl line, then a malformed ema.csv, then any missing
    required file; so an ema.csv error is held back until the folds have
    checked every line.  ``counts``, when given, receives what the run read,
    kept and took (the featurize manifest's counts and stage times).
    """
    path = {name: os.path.join(str(data_dir), name)
            for name in ("bursts.jsonl", "context.jsonl", "ema.csv", "zones.json")}
    present = {name: p if os.path.exists(p) else None for name, p in path.items()}

    t0 = time.monotonic()
    emas, ema_error = None, None
    if present["ema.csv"]:
        try:
            emas = dataset.read_ema_csv(present["ema.csv"])
        except (StressmonError, OSError) as err:
            ema_error = err
    label5 = dataset.ema_labeler(emas or [])
    records = {}
    raw_windows = signals.windowize(
        present["bursts.jsonl"], present["context.jsonl"],
        lambda user_id, start_ms: label5(user_id, start_ms) is not None, records)
    if ema_error is not None:
        raise ema_error
    missing = [path[name] for name in ("bursts.jsonl", "ema.csv") if not present[name]]
    if missing:
        raise DataFormatError(f"missing required input: {', '.join(missing)}")
    zones_file = zones_path or present["zones.json"]
    schema = ContextSchema(zones=load_zones(zones_file) if zones_file else [])

    t1 = time.monotonic()
    matrix = dataset.featurize_windows(raw_windows, schema)
    t2 = time.monotonic()
    # windowize kept only the windows label5 labels, in (user, start) order
    matrix.labels[:] = [dataset.binarize(label5(w.user_id, w.start_ms)) for w in raw_windows]
    if counts is not None:
        counts.update(
            records={"bursts.jsonl": records["bursts"], "context.jsonl": records["context"],
                     "ema.csv": len(emas)},
            labeled_windows=len(raw_windows),
            labeled_without_ppg=sum(w.ppg is None for w in raw_windows),
            off_wrist_bursts=sum(w.ppg is not None and signals.off_wrist(w.ppg.samples)
                                 for w in raw_windows),
            seconds={"read_s": round(t1 - t0, 3), "filter_hrv_s": round(t2 - t1, 3),
                     "assemble_s": round(time.monotonic() - t2, 3)})
    return matrix


def cmd_featurize(args) -> int:
    t0 = time.monotonic()
    counts = {}
    matrix = featurize_directory(args.data, args.zones, counts)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    dataset.write_matrix_csv(matrix, args.out)
    timings = {"total_s": round(time.monotonic() - t0, 3), **counts.pop("seconds")}
    write_manifest(out_dir, "featurize", None, [args.data],
                   [args.out, dataset.sidecar_path(args.out)], timings, counts=counts)
    print(f"featurized {matrix.n_rows} labeled windows -> {args.out}")
    return EXIT_OK


def _model_spec(args) -> ModelSpec:
    return ModelSpec(kind=args.model, depth=args.depth, k=args.k,
                     n_trees=args.n_trees, rounds=args.rounds,
                     learning_rate=args.learning_rate, select_top=args.select_top)


#: The columns each ``--features`` choice trains on.
_FEATURE_SETS = {"all": dataset.FEATURE_COLUMNS, "ppg": HRV_FEATURE_NAMES,
                 "context": CONTEXT_FEATURE_NAMES}


def _read_features(path, which):
    """The matrix at ``path``, restricted to the ``--features`` choice ``which``.

    A matrix that lacks a column the choice trains on is a DataFormatError
    naming the file and the columns.
    """
    matrix = dataset.read_matrix_csv(path)
    _require_columns(path, matrix, _FEATURE_SETS[which], f"--features {which}")
    return _restrict_features(matrix, which)


def _require_columns(path, matrix, needed, reader):
    """A DataFormatError naming the matrix file and the lacking columns,
    when ``matrix`` lacks one of the columns ``needed`` by ``reader``."""
    lacking = [c for c in needed if c not in matrix.columns]
    if lacking:
        raise DataFormatError(f"{path}: {reader} needs columns the matrix lacks: "
                              f"{', '.join(lacking)}")


def _restrict_features(matrix, which):
    features = _FEATURE_SETS[which]
    if which != "all":
        matrix = matrix.select_columns(list(features))
    return _drop_rows_without_hrv(matrix, features)


def _drop_rows_without_hrv(matrix, features):
    """``matrix`` less the rows missing every HRV column it holds (the whole
    HRV block, in a featurized matrix), when the ``features`` a model reads
    include an HRV column."""
    if set(features) & set(HRV_FEATURE_NAMES):
        return dataset.drop_rows_missing_block(
            matrix, [c for c in HRV_FEATURE_NAMES if c in matrix.columns])
    return matrix


def save_model_json(path, model):
    if isinstance(model, TreeEnsembleModel):
        rec = model_to_dict(model)
    else:  # knn: training data instead of trees
        rec = {"kind": "knn", "hyperparameters": model.hyperparameters,
               "feature_names": model.feature_names, "trees": [],
               "seed": 0,
               "knn": {"z_train": model.z_train.tolist(),
                       "y_train": model.y_train.tolist(),
                       "mean": model.mean.tolist(), "std": model.std.tolist()}}
    write_json(path, rec, sort_keys=True)


def load_model_json(path):
    """The tree model of a file written by save_model_json; a knn model or a
    malformed file raises DataFormatError naming it (see model_from_dict)."""
    return read_input(path, "model file",
                      lambda lines: model_from_dict(json.loads("".join(lines))))


def cmd_train_eval(args) -> int:
    t0 = time.monotonic()
    matrix = _read_features(args.matrix, args.features)
    spec = _model_spec(args)
    t1 = time.monotonic()
    report = grouped_cv(matrix, spec, folds=args.folds, seed=args.seed)
    t2 = time.monotonic()

    os.makedirs(args.out, exist_ok=True)
    report_json = os.path.join(args.out, "report.json")
    report_csv = os.path.join(args.out, "report.csv")
    report.write(report_json, report_csv)

    # Final model on all labeled rows, for downstream explain/personalize.
    labeled = matrix.labeled()
    t3 = time.monotonic()
    model, _, _ = fit_on_rows(labeled, np.arange(labeled.n_rows), spec, args.seed)
    t4 = time.monotonic()
    model_path = os.path.join(args.out, "model.json")
    save_model_json(model_path, model)
    # a knn model has no nodes
    nodes = sum(1 for _ in tree_nodes(model)) if isinstance(model, TreeEnsembleModel) else 0

    write_manifest(args.out, "train_eval", args.seed, [args.matrix],
                   [report_json, report_csv, model_path],
                   {"total_s": round(time.monotonic() - t0, 3),
                    "grouped_cv_s": round(t2 - t1, 3), "final_fit_s": round(t4 - t3, 3)},
                   counts={"final_model_nodes": nodes})
    fold_txt = " ".join(f"{f:.3f}" for f in report.fold_f1s)
    print(f"{args.model} ({args.features}) mean F1 = {report.mean_f1:.3f} "
          f"over folds [{fold_txt}] -> {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    marks = [time.monotonic()]  # then the end of each timed stage
    model = load_model_json(args.model)
    limit = explain_mod.MAX_EXACT_FEATURES
    if len(model.feature_names) > limit:
        raise TooManyFeatures(f"{args.model}: {len(model.feature_names)} features > {limit}; "
                              f"train with --select-top {limit} or fewer")
    marks.append(time.monotonic())
    labeled = dataset.read_matrix_csv(args.matrix).labeled()
    _require_columns(args.matrix, labeled, model.feature_names, f"the model {args.model}")
    labeled = _drop_rows_without_hrv(labeled, model.feature_names)

    n = labeled.n_rows
    if n == 0:
        raise StressmonError(f"{args.matrix}: no labeled rows to explain")
    marks.append(time.monotonic())
    rng = np.random.default_rng([args.seed, 11])
    bg_rows = np.sort(rng.choice(n, size=min(args.background, n), replace=False))
    explained = np.sort(rng.choice(n, size=min(args.max_rows, n), replace=False))
    # Distances use every column of every labeled row, so the imputer is fit
    # on all of them; only the sampled rows are read, so only they are filled.
    imputer = dataset.fit_imputer(labeled, np.arange(n))
    sampled = np.union1d(bg_rows, explained)
    values = labeled.values[sampled]
    completed = imputer.transform(values, np.isnan(values), exclude=sampled)
    cols = [labeled.columns.index(c) for c in model.feature_names]
    background = completed[np.searchsorted(sampled, bg_rows)][:, cols]
    rows = completed[np.searchsorted(sampled, explained)][:, cols]
    marks.append(time.monotonic())

    explanations = explain_mod.explain_rows(model, rows, background)
    ranking = explain_mod.mean_abs_ranking(explanations)
    records = explain_mod.beeswarm_records(explanations)
    marks.append(time.monotonic())

    os.makedirs(args.out, exist_ok=True)
    ranking_path = os.path.join(args.out, "shap_ranking.json")
    write_json(ranking_path, [{"feature": name, "mean_abs_shap": value}
                              for name, value in ranking], indent=2)
    beeswarm_path = os.path.join(args.out, "beeswarm.csv")
    explain_mod.write_beeswarm_csv(beeswarm_path, records)
    marks.append(time.monotonic())
    # whole milliseconds from the start, so the stages sum to at most the total
    ms = [round((t - marks[0]) * 1000) for t in [*marks, time.monotonic()]]
    timings = {f"{stage}_s": (end - start) / 1000
               for stage, start, end in zip(("load", "read", "impute", "shap", "write"),
                                            ms, ms[1:])}
    write_manifest(args.out, "explain", args.seed, [args.model, args.matrix],
                   [ranking_path, beeswarm_path], {"total_s": ms[-1] / 1000, **timings},
                   counts={"rows_explained": len(rows), "background_rows": len(background),
                           "features": len(model.feature_names)})
    top = ", ".join(f"{name}={value:.4f}" for name, value in ranking[:5])
    print(f"mean |SHAP| ranking: {top} -> {args.out}")
    return EXIT_OK


def cmd_personalize(args) -> int:
    t0 = time.monotonic()
    matrix = _read_features(args.matrix, args.features)
    result = personalization_eval(matrix, args.user, _model_spec(args),
                                  seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "personalization.json")
    write_json(report_path, result.to_dict(), indent=2, sort_keys=True)
    write_manifest(args.out, "personalize", args.seed, [args.matrix],
                   [report_path], {"total_s": round(time.monotonic() - t0, 3)})
    print(f"user {args.user}: F1 before={result.f1_before:.3f} "
          f"after={result.f1_after:.3f} -> {args.out}")
    return EXIT_OK


def _int_at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _positive_float(text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _select_top(text):
    return text if text == "auto" else _positive_int(text)


def _add_model_flags(parser):
    spec = ModelSpec()
    parser.add_argument("--model", choices=MODEL_KINDS, default=spec.kind,
                        help="classifier (default: %(default)s)")
    parser.add_argument("--depth", type=_positive_int, default=spec.depth,
                        help="tree depth (default: %(default)s)")
    parser.add_argument("--k", type=_positive_int, default=spec.k,
                        help="neighbours of the k-NN classifier (default: %(default)s)")
    parser.add_argument("--n-trees", type=_positive_int, default=spec.n_trees,
                        help="forest size (default: %(default)s)")
    parser.add_argument("--rounds", type=_positive_int, default=spec.rounds,
                        help="boosting rounds (default: %(default)s)")
    parser.add_argument("--learning-rate", type=_positive_float,
                        default=spec.learning_rate,
                        help="boosting step size (default: %(default)s)")
    parser.add_argument("--features", choices=list(_FEATURE_SETS), default="all")
    parser.add_argument("--select-top", type=_select_top, default=spec.select_top,
                        help="number of features to keep, or 'auto'")
    parser.add_argument("--seed", type=_int_at_least(0), default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was."""
    parser = argparse.ArgumentParser(prog="stressmon",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the collection-stack simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("featurize", help="simulated files -> labeled feature matrix")
    p.add_argument("--data", required=True, help="directory with the simulation outputs")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--zones", default=None, help="zone config JSON (defaults to data dir)")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-eval", help="grouped cross-validated evaluation")
    p.add_argument("--matrix", required=True)
    p.add_argument("--folds", type=_int_at_least(2), default=DEFAULT_FOLDS,
                   help="user-grouped folds (default: %(default)s)")
    _add_model_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_eval)

    p = sub.add_parser("explain", help="SHAP ranking and beeswarm export")
    p.add_argument("--model", required=True, help="model.json from train-eval")
    p.add_argument("--matrix", required=True)
    p.add_argument("--background", type=_positive_int, default=128)
    p.add_argument("--max-rows", type=_positive_int, default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("personalize", help="before/after-personalization F1")
    p.add_argument("--matrix", required=True)
    p.add_argument("--user", required=True)
    _add_model_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_personalize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StressmonError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
