"""Exact Shapley attributions for tree-ensemble predictions.

Coalition values use the interventional expectation: features in the
coalition take the explained row's values, the rest come from each
background row, and the model's positive-class probability is averaged
over the background.  With at most 16 features the full 2^d enumeration
is tractable and serves as its own ground truth.

A tree reads only the features it splits on, so its output at a coalition
depends only on the coalition's bits among them (the observation behind
interventional Tree SHAP).  Coalitions are taken in aligned blocks of 2^c
bitmasks, together with a block of explained rows.  Within a block each
tree is walked once, over only the coalitions it can tell apart: 2^k of
them when it splits on k of the block's c low features.  The walk routes
every (row, coalition, background row) triple on the tree's split
decisions: at a split on feature f it takes the row's comparison with the
threshold when the coalition holds f and the background row's when it does
not, which is the comparison the row mixed from the two would meet.  The
router is ``trees._route``, the one ``predict_proba`` routes rows with, and
each leaf's value is set where the triples reaching it lie.  The outputs are
indexed back to every coalition of the block and summed in tree order as
``predict_proba`` sums them, so every value is the one scoring each mixed
row with the model gives, bit for bit.

A block holds every background row, and each tree walks it in one
``_route`` call.  Up to ``_CHUNK_ROWS`` background rows, a block holds at
most ``_CHUNK_ROWS`` (row, coalition, background row) triples, so the sum,
each tree's output table and its reach masks stay bounded at any row count
and width.  A larger background goes one row and one coalition per block,
and all three grow with the background.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBackground, NotATreeModel, TooManyFeatures, write_csv
from .learn.trees import TREE_KINDS, _ensemble_proba, _nodes, _route

MAX_EXACT_FEATURES = 16
# (row, coalition, background row) triples per block, up to this many
# background rows; a larger background goes one row and one coalition per
# block, since a block holds every background row.  One block covers the
# whole call of 6 rows x 2^8 coalitions x 24 background rows (36,864).  At
# the cap a walk's output takes 512 KB and each reach mask on its stack 64 KB.
_CHUNK_ROWS = 1 << 16


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


def _split_features(root) -> int:
    """Bitmask of the features a tree splits on."""
    return sum({1 << node.feature_index for node in _nodes(root) if not node.is_leaf})


def _slice_table(tree, rows, coalitions, bg) -> np.ndarray:
    """The tree's output at every (row, coalition, background row) of one
    block; ``coalitions`` holds one boolean row of features per coalition.
    A triple meets each split as the row mixed from its row and background
    row would (see the module docstring)."""
    return _route(tree, (len(rows), len(coalitions), len(bg)),
                  lambda f, t: np.where(coalitions[:, f, None], (rows[:, f] <= t)[:, None, None],
                                        bg[:, f] <= t))


def _block_tables(model, used, rows, start, width, background):
    """Each tree's output at every (row, coalition, background row) of the
    block of ``rows`` and coalitions ``start .. start + width - 1``, in tree
    order; ``used`` holds each tree's split-feature bitmask."""
    masks = np.arange(width)
    features = np.arange(rows.shape[1])
    for tree, split in zip(model.trees, used):
        # the coalitions the tree tells apart, and the one each mask falls on
        low = split & (width - 1)
        subsets = masks[(masks & ~low) == 0]
        coalitions = (((start & split) | subsets)[:, None] >> features) & 1
        table = _slice_table(tree, rows, coalitions.astype(bool), background)
        yield table[:, np.searchsorted(subsets, masks & low)]


def _value_tables(model, rows, background) -> np.ndarray:
    """Mean model output for every coalition bitmask of every row, (rows, 2^d)."""
    n_rows, d = rows.shape
    n_masks = 1 << d
    n_bg = background.shape[0]
    pairs = max(1, _CHUNK_ROWS // n_bg)  # (row, coalition) pairs per block
    width = min(n_masks, 1 << (pairs.bit_length() - 1))
    row_step = max(1, pairs // width)
    used = [_split_features(tree) for tree in model.trees]
    values = np.empty((n_rows, n_masks))
    for r0 in range(0, n_rows, row_step):
        block = rows[r0:r0 + row_step]
        for start in range(0, n_masks, width):
            proba = _ensemble_proba(
                model, _block_tables(model, used, block, start, width, background),
                (len(block), width, n_bg))
            values[r0:r0 + row_step, start:start + width] = proba.mean(axis=2)
    return values


def coalition_value_table(model, row: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Mean model output for every coalition bitmask (length 2^d)."""
    return _value_tables(model, np.asarray(row, dtype=float).reshape(1, -1),
                         np.asarray(background, dtype=float))[0]


def explain_rows(model, rows, background_rows) -> list:
    """Exact interventional Shapley values of each row, by coalition enumeration.

    Raises NotATreeModel for a model whose kind is not one of TREE_KINDS,
    TooManyFeatures beyond 16 features and EmptyBackground when no
    reference rows are given.
    """
    if getattr(model, "kind", None) not in TREE_KINDS:
        raise NotATreeModel("exact Shapley explanation needs a tree-based model")
    rows = np.asarray(rows, dtype=float)
    background = np.asarray(background_rows, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise EmptyBackground("need at least one background row")
    if rows.ndim != 2:
        raise ValueError("the explained rows must form a 2-D array")
    d = rows.shape[1]
    if d > MAX_EXACT_FEATURES:
        raise TooManyFeatures(f"{d} features > {MAX_EXACT_FEATURES}")
    if background.shape[1] != d:
        raise ValueError("background width does not match the explained rows")

    v = _value_tables(model, rows, background)
    # w[s] = s! (d-1-s)! / d!, the Shapley kernel over coalition sizes.
    w = np.array([math.factorial(s) * math.factorial(d - 1 - s) / math.factorial(d)
                  for s in range(d)])
    sizes = np.bitwise_count(np.arange(1 << d))
    phi = np.zeros((len(rows), d))
    for i in range(d):
        bit = 1 << i
        without = np.flatnonzero((np.arange(1 << d) & bit) == 0)
        # C order, so each row's terms are summed as one row's alone would be
        terms = np.multiply(w[sizes[without]], v[:, without | bit] - v[:, without], order="C")
        phi[:, i] = terms.sum(axis=1)
    names = tuple(getattr(model, "feature_names", [f"f{i}" for i in range(d)]))
    return [Explanation(base_value=float(v[r, 0]), shap_values=phi[r],
                        feature_values=rows[r], feature_names=names)
            for r in range(len(rows))]


def shap_values(model, row, background_rows) -> Explanation:
    """Exact interventional Shapley values of one row; see :func:`explain_rows`."""
    return explain_rows(model, np.asarray(row, dtype=float).reshape(1, -1),
                        background_rows)[0]


def _mean_abs(explanations):
    """Mean |shap| per feature over the explanations, and the feature indices
    ranked by it, descending; ties keep feature order."""
    means = sum(np.abs(exp.shap_values) for exp in explanations) / len(explanations)
    return means, np.lexsort((np.arange(len(means)), -means))


def mean_abs_ranking(explanations):
    """Mean |shap| per feature over the explanations, ranked descending.

    Returns (feature_name, mean_abs_value) pairs; ties keep feature order.
    """
    if not explanations:
        raise ValueError("need at least one row to explain")
    means, order = _mean_abs(explanations)
    names = explanations[0].feature_names
    return [(names[i], float(means[i])) for i in order]


def beeswarm_records(explanations):
    """Long-format (row, feature, shap, feature_value) records.

    Features are taken in :func:`mean_abs_ranking` order, the usual beeswarm
    panel order.
    """
    if not explanations:
        return []
    names = explanations[0].feature_names
    records = []
    for j in _mean_abs(explanations)[1]:
        for i, exp in enumerate(explanations):
            records.append({"row": i, "feature": names[j],
                            "shap": float(exp.shap_values[j]),
                            "feature_value": float(exp.feature_values[j])})
    return records


def write_beeswarm_csv(path, records):
    rows = ((rec["row"], rec["feature"], repr(rec["shap"]), repr(rec["feature_value"]))
            for rec in records)
    write_csv(path, itertools.chain([("row", "feature", "shap", "feature_value")], rows))
