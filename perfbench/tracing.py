"""Span tracing of the stressmon pipeline from outside the program.

`Tracer.install` replaces every public function and public-class method of
the layer modules with a wrapper that records a span (name, start, end,
parent) and lets per-function hooks count what the call returned or
raised.  Every module attribute that held the original object is patched,
so names imported with ``from .x import f`` are traced too.
`Tracer.uninstall` puts each original back.  Nothing under ``src/`` is
edited.

Self time of a span is its duration minus the durations of its direct
children, so the self times of a tree sum to the root's duration.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

#: Layers, named after the ``stressmon`` modules they wrap.
LAYERS = ("sim", "sema", "signals", "context", "hrv", "dataset",
          "learn.trees", "learn.knn", "learn.evaluate", "explain", "cli")

#: Window fates in the order featurize meets them.
FATES = ("no_ppg", "too_short", "no_plausible_peaks", "too_few_intervals",
         "hrv_ok")

ROOT_SPAN = "bench.pass"


class Tracer:
    """In-memory span recorder plus the hooks that count layer work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []        # span name per span
        self.starts = []
        self.ends = []
        self.parents = []      # index of the enclosing span, or -1
        self._open = []
        self._patches = []     # (owner, attribute, original)
        self._restored = []
        self.counts = {}
        self.hooks = {}
        self.fates = FateLedger()
        self.imputed = ImputationLedger()
        self.explained_rows = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        dur = self.durations()
        child = np.zeros(len(dur))
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn):
        hook = self.hooks.get(name)
        enter = getattr(hook, "enter", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(self, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.close(idx)
                if hook is not None:
                    hook.failed(self, args, kwargs, err)
                raise
            self.close(idx)
            if hook is not None:
                hook.returned(self, args, kwargs, result)
            return result

        return traced

    def install(self, layers=LAYERS):
        """Wrap the public callables of each layer module; see `targets`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.hooks = {**default_hooks(), **self.fates.hooks()}
        modules = loaded_modules()
        for name, owner, attr, original in targets(layers):
            wrapped = self.wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        self._restored = list(self._patches)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute patched by `install` holds its original."""
        return not self._patches and all(
            vars(owner).get(attr) is original for owner, attr, original in self._restored)


def loaded_modules():
    """Every imported ``stressmon`` module, the package itself included."""
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "stressmon" or key.startswith("stressmon."))]


def targets(layers=LAYERS):
    """(span name, owner, attribute, original) for each public callable.

    Functions defined in a layer module, and functions in the class body
    of classes defined there; names starting with ``_`` are skipped.
    """
    found = []
    for layer in layers:
        module = importlib.import_module(f"stressmon.{layer}")
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
    return found


# -- hooks: counts taken from arguments, returns and exceptions ----------------

class _Hook:
    def __init__(self, on_return=None, on_error=None):
        self.on_return = on_return
        self.on_error = on_error

    def returned(self, tracer, args, kwargs, result):
        if self.on_return is not None:
            self.on_return(tracer, args, kwargs, result)

    def failed(self, tracer, args, kwargs, err):
        if self.on_error is not None:
            self.on_error(tracer, args, kwargs, err)


class FateLedger:
    """Windows by fate, counted from featurize's calls into its layers.

    A window without a PPG burst is ``no_ppg``.  Every other window gets
    one `signals.bandpass_filter` call and, if that passes, one
    `hrv.burst_hrv` call; the exception either raises, or a clean return,
    decides the fate.  Calls outside `dataset.featurize_windows` are not
    counted.
    """

    ERRORS = {"TooShort": "too_short", "NoPlausiblePeaks": "no_plausible_peaks",
              "TooFewIntervals": "too_few_intervals"}

    def __init__(self):
        self.counts = dict.fromkeys(FATES, 0)
        self.active = 0

    def record_error(self, err):
        if self.active:
            key = self.ERRORS.get(type(err).__name__, "other_" + type(err).__name__)
            self.counts[key] = self.counts.get(key, 0) + 1

    def hooks(self):
        ledger = self

        class Featurize(_Hook):
            def enter(self, tracer, args, kwargs):
                ledger.active += 1
                raw = args[0] if args else kwargs["raw_windows"]
                ledger.counts["no_ppg"] += sum(1 for w in raw if w.ppg is None)

            def returned(self, tracer, args, kwargs, result):
                ledger.active -= 1

            def failed(self, tracer, args, kwargs, err):
                ledger.active -= 1

        def ok(tracer, args, kwargs, result):
            if ledger.active:
                ledger.counts["hrv_ok"] += 1

        def error(tracer, args, kwargs, err):
            ledger.record_error(err)

        return {"dataset.featurize_windows": Featurize(),
                "signals.bandpass_filter": _Hook(on_error=error),
                "hrv.burst_hrv": _Hook(ok, error)}


class ImputationLedger:
    """Cells imputed per column, from `KnnImputer.transform`'s missing mask.

    Column names come from the last matrix the pipeline restricted or
    imputed; a mask of another width is counted by column index.
    """

    def __init__(self):
        self.columns = ()
        self.cells = {}

    def add(self, missing):
        per_column = np.asarray(missing, dtype=bool).sum(axis=0)
        names = self.columns if len(self.columns) == per_column.size else \
            [f"col{j}" for j in range(per_column.size)]
        for name, n in zip(names, per_column):
            self.cells[name] = self.cells.get(name, 0) + int(n)
        return int(per_column.sum())


def _tree_nodes(model) -> int:
    total = 0
    for root in model.trees:
        stack = [root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
    return total


def default_hooks():
    """Hooks keyed by span name; each adds to `Tracer.counts` or a ledger."""
    def add(key, value_of):
        def hook(tracer, args, kwargs, result):
            tracer.count(key, value_of(args, kwargs, result))
        return hook

    def br_returned(tracer, args, kwargs, result):
        tracer.count("hrv.estimate_br.low_confidence", int(bool(result.low_confidence)))

    def br_failed(tracer, args, kwargs, err):
        if type(err).__name__ == "InsufficientSpan":
            tracer.count("hrv.estimate_br.low_confidence")

    def columns_of_result(tracer, args, kwargs, result):
        tracer.imputed.columns = tuple(result.columns)

    class KnnImpute(_Hook):
        def enter(self, tracer, args, kwargs):
            matrix = args[0] if args else kwargs["matrix"]
            tracer.imputed.columns = tuple(matrix.columns)

    def transform(tracer, args, kwargs, result):
        missing = args[2] if len(args) > 2 else kwargs["missing"]
        tracer.count("dataset.KnnImputer.transform.cells", tracer.imputed.add(missing))

    def shap(tracer, args, kwargs, result):
        row = np.asarray(args[1] if len(args) > 1 else kwargs["row"], dtype=float)
        tracer.explained_rows.add((id(args[0]), row.tobytes()))

    def read_bursts(tracer, args, kwargs, result):
        tracer.count("signals.read_bursts_jsonl.bursts", len(result))
        tracer.count("signals.read_bursts_jsonl.mb", os.path.getsize(args[0]) / 1e6)

    def unlabeled(tracer, args, kwargs, result):
        tracer.count("dataset.label_windows.unlabeled",
                     sum(1 for w in result if w.label2 is None))

    hooks = {
        "signals.burst_record": _Hook(add("signals.burst_record.mb",
                                          lambda a, k, r: len(r) / 1e6)),
        "signals.read_bursts_jsonl": _Hook(read_bursts),
        "signals.windowize": _Hook(add("signals.windowize.windows",
                                       lambda a, k, r: len(r))),
        "context.read_context_jsonl": _Hook(add("context.read_context_jsonl.snapshots",
                                                lambda a, k, r: len(r))),
        "hrv.detect_peaks": _Hook(add("hrv.detect_peaks.ok", lambda a, k, r: 1)),
        "hrv.clean_nn": _Hook(on_error=lambda tracer, a, k, err: tracer.count(
            "hrv.clean_nn.failed")),
        "hrv.estimate_br": _Hook(br_returned, br_failed),
        "dataset.label_windows": _Hook(unlabeled),
        "dataset.knn_impute": KnnImpute(),
        "dataset.KnnImputer.transform": _Hook(transform),
        "dataset.read_matrix_csv": _Hook(columns_of_result),
        "dataset.FeatureMatrix.select_columns": _Hook(columns_of_result),
        "learn.trees.train_random_forest": _Hook(add(
            "learn.trees.train_random_forest.nodes", lambda a, k, r: _tree_nodes(r))),
        "learn.trees.train_boosted": _Hook(add(
            "learn.trees.train_boosted.nodes", lambda a, k, r: _tree_nodes(r))),
        "learn.trees.TreeEnsembleModel.predict_proba": _Hook(add(
            "learn.trees.TreeEnsembleModel.predict_proba.rows",
            lambda a, k, r: len(r))),
        "learn.knn.KnnModel.predict": _Hook(add("learn.knn.KnnModel.predict.rows",
                                                lambda a, k, r: len(r))),
        "explain.shap_values": _Hook(shap),
        "explain.coalition_value_table": _Hook(add(
            "explain.coalition_value_table.coalitions", lambda a, k, r: len(r))),
        "cli.save_model_json": _Hook(add("cli.save_model_json.mb",
                                         lambda a, k, r: os.path.getsize(a[0]) / 1e6)),
    }
    return hooks


# -- per-layer metrics ---------------------------------------------------------

#: (metric, unit) for every per-layer metric a traced run reports.
PER_LAYER = (
    ("sim.run_simulation.self_s", "s"),
    ("sim.synth_ppg.calls", "count"), ("sim.synth_ppg.self_s", "s"),
    ("signals.burst_record.calls", "count"), ("signals.burst_record.self_s", "s"),
    ("signals.burst_record.mb", "MB"),
    ("sema.should_trigger.calls", "count"), ("sema.should_trigger.self_s", "s"),
    ("signals.read_bursts_jsonl.self_s", "s"), ("signals.read_bursts_jsonl.bursts", "count"),
    ("signals.read_bursts_jsonl.mb_per_s", "MB/s"),
    ("signals.windowize.self_s", "s"), ("signals.windowize.windows", "count"),
    ("signals.bandpass_filter.calls", "count"), ("signals.bandpass_filter.self_s", "s"),
    ("context.read_context_jsonl.self_s", "s"),
    ("context.read_context_jsonl.snapshots", "count"),
    ("context.extract_context_features.calls", "count"),
    ("context.extract_context_features.self_s", "s"),
    ("hrv.detect_peaks.calls", "count"), ("hrv.detect_peaks.self_s", "s"),
    ("hrv.detect_peaks.p99_ms", "ms"), ("hrv.detect_peaks.ok_ratio", "ratio"),
    ("hrv.clean_nn.calls", "count"), ("hrv.clean_nn.self_s", "s"),
    ("hrv.clean_nn.failed", "count"), ("hrv.hrv_features.self_s", "s"),
    ("hrv.estimate_br.low_confidence", "count"),
    ("dataset.featurize_windows.self_s", "s"),
    ("dataset.label_windows.self_s", "s"), ("dataset.label_windows.unlabeled", "count"),
    ("dataset.assemble.self_s", "s"), ("dataset.write_matrix_csv.self_s", "s"),
    *((f"dataset.fate.{fate}", "count") for fate in FATES),
    ("dataset.KnnImputer.fit.calls", "count"), ("dataset.KnnImputer.fit.self_s", "s"),
    ("dataset.KnnImputer.transform.calls", "count"),
    ("dataset.KnnImputer.transform.self_s", "s"),
    ("dataset.KnnImputer.transform.cells", "count"),
    ("dataset.KnnImputer.transform.us_per_cell", "us"),
    ("dataset.knn_impute.self_s", "s"),
    ("dataset.read_matrix_csv.calls", "count"), ("dataset.read_matrix_csv.self_s", "s"),
    ("learn.trees.train_random_forest.calls", "count"),
    ("learn.trees.train_random_forest.self_s", "s"),
    ("learn.trees.train_random_forest.nodes", "count"),
    ("learn.trees.train_boosted.calls", "count"), ("learn.trees.train_boosted.self_s", "s"),
    ("learn.trees.train_boosted.nodes", "count"),
    ("learn.trees.TreeEnsembleModel.predict_proba.calls", "count"),
    ("learn.trees.TreeEnsembleModel.predict_proba.rows", "count"),
    ("learn.trees.TreeEnsembleModel.predict_proba.self_s", "s"),
    ("learn.knn.train_knn.self_s", "s"),
    ("learn.knn.KnnModel.predict.calls", "count"), ("learn.knn.KnnModel.predict.rows", "count"),
    ("learn.knn.KnnModel.predict.self_s", "s"),
    ("learn.evaluate.grouped_cv.self_s", "s"),
    ("learn.evaluate.personalization_eval.self_s", "s"),
    ("explain.shap_values.calls", "count"), ("explain.shap_values.self_s", "s"),
    ("explain.shap_values.p50_ms", "ms"), ("explain.shap_values.useful_ratio", "ratio"),
    ("explain.coalition_value_table.calls", "count"),
    ("explain.coalition_value_table.self_s", "s"),
    ("explain.coalition_value_table.coalitions", "count"),
    ("cli.save_model_json.self_s", "s"), ("cli.save_model_json.mb", "MB"),
    ("cli.load_model_json.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def _by_name(tracer):
    index = {}
    for i, name in enumerate(tracer.names):
        index.setdefault(name, []).append(i)
    return index


def layer_metrics(tracer, overhead_s) -> dict:
    """Every `PER_LAYER` metric from a finished trace, as {name: value}.

    ``calls`` count spans and ``self_s`` sum their self times; ``p50_ms``
    and ``p99_ms`` are percentiles of whole-call durations; the other
    counts come from the hooks.  A ratio or rate with nothing to divide
    by reads 0.
    """
    index = _by_name(tracer)
    own = tracer.self_times()
    dur = tracer.durations()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    def percentile_ms(fn, q):
        spans = index.get(fn, [])
        return float(np.percentile(dur[spans], q)) * 1000.0 if spans else 0.0

    values = {}
    for metric, _ in PER_LAYER:
        fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = len(index.get(fn, ()))
        elif stat == "self_s":
            values[metric] = float(own[index.get(fn, [])].sum())
        elif metric in counts:
            values[metric] = counts[metric]
    for fate in FATES:
        values[f"dataset.fate.{fate}"] = tracer.fates.counts[fate]
    for metric, _ in PER_LAYER:
        values.setdefault(metric, 0)
    values["signals.read_bursts_jsonl.mb_per_s"] = ratio(
        counts.get("signals.read_bursts_jsonl.mb", 0.0),
        values["signals.read_bursts_jsonl.self_s"])
    values["hrv.detect_peaks.p99_ms"] = percentile_ms("hrv.detect_peaks", 99)
    values["hrv.detect_peaks.ok_ratio"] = ratio(counts.get("hrv.detect_peaks.ok", 0),
                                                values["hrv.detect_peaks.calls"])
    values["dataset.KnnImputer.transform.us_per_cell"] = 1e6 * ratio(
        values["dataset.KnnImputer.transform.self_s"],
        values["dataset.KnnImputer.transform.cells"])
    values["explain.shap_values.p50_ms"] = percentile_ms("explain.shap_values", 50)
    values["explain.shap_values.useful_ratio"] = ratio(len(tracer.explained_rows),
                                                       values["explain.shap_values.calls"])
    values["bench.trace_overhead_s"] = overhead_s
    return values


def layer_self_times(tracer) -> dict:
    """Self time summed per layer; the root span's own time is ``bench``."""
    totals = {}
    for name, own in zip(tracer.names, tracer.self_times()):
        layer = "bench" if name == ROOT_SPAN else next(
            (lay for lay in sorted(LAYERS, key=len, reverse=True)
             if name.startswith(lay + ".")), name)
        totals[layer] = totals.get(layer, 0.0) + float(own)
    return dict(sorted(totals.items()))


def trace_checks(tracer) -> dict:
    """Consistency of a finished trace; each entry must read True."""
    dur = tracer.durations()
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    windows = tracer.counts.get("signals.windowize.windows", 0)
    root_s = float(dur[roots].sum())
    return {
        "single_root": len(roots) == 1 and tracer.names[roots[0]] == ROOT_SPAN,
        "root_equals_self_sum": abs(root_s - float(tracer.self_times().sum())) <= 1e-6,
        "fates_sum_to_windows": sum(tracer.fates.counts.values()) == windows
        and set(tracer.fates.counts) == set(FATES),
        "attributes_restored": tracer.restored(),
    }
