"""Exact Shapley attributions for tree-ensemble predictions.

Coalition values use the interventional expectation: features in the
coalition take the explained row's values, the rest come from each
background row, and the model's positive-class probability is averaged
over the background.  With at most 16 features the full 2^d enumeration
is tractable and serves as its own ground truth.

Coalitions are scored in chunks: the synthetic rows of a run of coalitions
(each coalition's row laid over every background row) go through one
``predict_proba`` call of at most ``_CHUNK_ROWS`` rows, so the model walks
its trees once per chunk rather than once per coalition, and memory stays
bounded at any width and background size.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBackground, NotATreeModel, TooManyFeatures, write_csv
from .learn.trees import TREE_KINDS

MAX_EXACT_FEATURES = 16
# Synthetic rows per predict_proba call: enough that an 8-feature row over 64
# background rows takes one call, few enough that a 16-feature block is 2 MB.
_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class Explanation:
    """Additive attribution: base_value + sum(shap_values) = model output."""

    base_value: float
    shap_values: np.ndarray
    feature_values: np.ndarray
    feature_names: tuple

    @property
    def prediction(self) -> float:
        return self.base_value + float(self.shap_values.sum())


def coalition_value_table(model, row: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Mean model output for every coalition bitmask (length 2^d)."""
    d = row.size
    n_masks = 1 << d
    n_bg = background.shape[0]
    values = np.empty(n_masks)
    bits = ((np.arange(n_masks)[:, None] >> np.arange(d)) & 1).astype(bool)
    per_chunk = max(1, _CHUNK_ROWS // n_bg)
    for start in range(0, n_masks, per_chunk):
        stop = min(start + per_chunk, n_masks)
        synth = np.where(bits[start:stop, None, :], row, background[None])
        synth = synth.reshape(-1, d)
        # A background larger than the cap is scored in slices of it; each
        # row's probability does not depend on the rows scored beside it.
        p = np.concatenate([model.predict_proba(synth[i:i + _CHUNK_ROWS])
                            for i in range(0, len(synth), _CHUNK_ROWS)])
        values[start:stop] = p.reshape(stop - start, n_bg).mean(axis=1)
    return values


def shap_values(model, row, background_rows) -> Explanation:
    """Exact interventional Shapley values by coalition enumeration.

    Raises NotATreeModel for a model whose kind is not one of TREE_KINDS,
    TooManyFeatures beyond 16 features and EmptyBackground when no
    reference rows are given.
    """
    if getattr(model, "kind", None) not in TREE_KINDS:
        raise NotATreeModel("exact Shapley explanation needs a tree-based model")
    row = np.asarray(row, dtype=float).ravel()
    background = np.asarray(background_rows, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise EmptyBackground("need at least one background row")
    d = row.size
    if d > MAX_EXACT_FEATURES:
        raise TooManyFeatures(f"{d} features > {MAX_EXACT_FEATURES}")
    if background.shape[1] != d:
        raise ValueError("background width does not match the explained row")

    v = coalition_value_table(model, row, background)
    # w[s] = s! (d-1-s)! / d!, the Shapley kernel over coalition sizes.
    w = np.array([math.factorial(s) * math.factorial(d - 1 - s) / math.factorial(d)
                  for s in range(d)])
    sizes = np.bitwise_count(np.arange(1 << d))
    phi = np.zeros(d)
    for i in range(d):
        bit = 1 << i
        without = np.flatnonzero((np.arange(1 << d) & bit) == 0)
        phi[i] = float(np.sum(w[sizes[without]] * (v[without | bit] - v[without])))
    names = tuple(getattr(model, "feature_names", [f"f{i}" for i in range(d)]))
    return Explanation(base_value=float(v[0]), shap_values=phi,
                       feature_values=row, feature_names=names)


def mean_abs_ranking(explanations):
    """Mean |shap| per feature over the explanations, ranked descending.

    Returns (feature_name, mean_abs_value) pairs; ties keep feature order.
    """
    if not explanations:
        raise ValueError("need at least one row to explain")
    totals = np.zeros(explanations[0].shap_values.size)
    for exp in explanations:
        totals += np.abs(exp.shap_values)
    means = totals / len(explanations)
    names = explanations[0].feature_names
    order = np.lexsort((np.arange(len(means)), -means))
    return [(names[i], float(means[i])) for i in order]


def beeswarm_records(explanations):
    """Long-format (row, feature, shap, feature_value) records.

    Features are ordered by total |shap| over all rows, descending, which
    is the usual beeswarm panel order.
    """
    if not explanations:
        return []
    names = explanations[0].feature_names
    totals = np.abs(np.stack([e.shap_values for e in explanations])).sum(axis=0)
    order = np.lexsort((np.arange(len(totals)), -totals))
    records = []
    for j in order:
        for i, exp in enumerate(explanations):
            records.append({"row": i, "feature": names[j],
                            "shap": float(exp.shap_values[j]),
                            "feature_value": float(exp.feature_values[j])})
    return records


def write_beeswarm_csv(path, records):
    rows = ((rec["row"], rec["feature"], repr(rec["shap"]), repr(rec["feature_value"]))
            for rec in records)
    write_csv(path, itertools.chain([("row", "feature", "shap", "feature_value")], rows))
