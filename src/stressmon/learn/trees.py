"""Decision-tree ensembles: random forest and gradient-boosted trees.

Both ensembles share one node type that records the weighted impurity
decrease and sample fraction at every split, so Gini importances and JSON
serialization fall out of the same structure.  Forest trees use the Gini
criterion with ceil(sqrt(d)) feature candidates per node; boosted trees
fit squared-error regression trees to logistic-loss residuals with Newton
leaf values.  All randomness flows from per-tree generator streams keyed
by (seed, tree_index), so results are independent of evaluation order.

Both ensembles find splits with one scanner, :func:`_scan`.  It takes a
flat run of segments, each one candidate column of one node with the
node's values sorted ascending, and scores every cut between two distinct
neighbours of a segment in one pass; each node keeps its first maximum in
(candidate, threshold) order, the tie-breaks of a per-feature scan.  Only
the impurity statistic differs (class counts for Gini, residual sums for
squared error).  The columns are ranked once per ensemble, stably (equal
values in row order), and a scan cuts its segments out of the ranks with
one integer sort of ``segment * n + rank``.

The forest grows all of its trees in lockstep.  Each tree keeps a
depth-first stack of the nodes it may still split; at every step each
live tree pops one node and draws its ceil(sqrt(d)) candidate columns,
and all the popped nodes are scanned together.  A split pushes its right
child before its left, so every tree pops, and draws from its own
(seed, tree) stream, in the preorder of a depth-first recursion: batching
moves no draw.  A child that is a leaf by rule (no depth left, or one
class only) is never pushed; its class counts come from the winning
cut's prefix count.  Cuts fall only between distinct values, so a node's
result depends on its rows as a multiset: neither the order of equal
values nor the order in which a child inherits its rows (that of its
parent's split column) changes it.  The label prefix counts are
integers, so one running sum over all segments, less its value before
each segment, is exact.  One scanner call takes at most ``_SCAN_CELLS``
cells (values of a node's candidate columns), so memory stays bounded at
any forest size; a step's nodes are scanned in chunks under that cap,
and a node's result does not depend on its chunk.

Boosting scans all d columns of one node per call.  Its float prefix
sums run along each segment, as a running sum over all segments would
not subtract back to them bit for bit, and they add ties in row order,
as a stable per-feature sort of the node's ascending rows does.  Each
child gets its half of the winning segment sorted ascending, so every
leaf sums its rows in row order.

The models match a per-feature, per-node search to the last bit.  Every
child impurity is an elementwise array expression, as it was there; each
node's parent impurity is computed on Python floats, like the numpy
scalar it was, because an array's ``p ** 2`` can differ from a scalar's in
the last bit (53 positives of 223 rows do).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import (DegenerateLabels, EmptySelection, SelectionTooLarge, is_number,
                      json_type, strict_float, strict_int, strict_str, strict_unique)

MIN_IMPURITY_DECREASE = 1e-12
DEFAULT_N_TREES = 100
#: Depth of the forest whose Gini importances rank features for selection.
SELECTION_DEPTH = 10
DEFAULT_BOOST_RATE = 0.3
BOOST_L2 = 1.0
#: The model kinds of TreeEnsembleModel, the only ones a model file may
#: hold, each with the key its leaves' ``value`` is filed under.
_LEAF_OUTPUT = {"random_forest": "probability", "boosted": "value"}
TREE_KINDS = tuple(_LEAF_OUTPUT)
#: Most cells (values of a node's candidate columns) one scanner call takes;
#: the forest scans each step's nodes in chunks that stay under it.
_SCAN_CELLS = 1 << 16


@dataclass
class TreeNode:
    """Either a split (feature/threshold/children) or a leaf.

    A leaf's output is ``value``: the positive-class probability in a
    forest tree, which also keeps the leaf's class counts, or the log-odds
    step in a boosted regression tree.  Split nodes record the impurity
    decrease already weighted by the fraction of the tree's samples that
    reached them.
    """

    feature_index: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    impurity_decrease: float = 0.0
    sample_fraction: float = 0.0
    class_counts: tuple | None = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature_index is None


@dataclass
class TreeEnsembleModel:
    """A trained forest or boosted-tree model over named features."""

    kind: str                      # one of TREE_KINDS
    trees: list
    tree_weights: list
    feature_names: list
    hyperparameters: dict
    seed: int
    base_score: float = 0.0        # boosted log-odds offset
    degenerate: bool = False

    def predict_proba(self, X) -> np.ndarray:
        """Positive-class probability per row."""
        X = np.asarray(X, dtype=float)
        # each split reads one contiguous column; [f, :] rejects a 1-D X
        XT = np.ascontiguousarray(X.T)
        return _ensemble_proba(self, (_route(tree, X.shape[:1], lambda f, t: XT[f, :] <= t)
                                      for tree in self.trees), X.shape[0])

    def predict(self, X) -> np.ndarray:
        """0/1 labels at the fixed 0.5 probability threshold (ties -> 0)."""
        return (self.predict_proba(X) > 0.5).astype(int)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _ensemble_proba(model: TreeEnsembleModel, tree_outputs, shape) -> np.ndarray:
    """Positive-class probability from each tree's leaf outputs, given in tree
    order: ``base_score`` plus each output times its tree's weight, summed in
    tree order, then the logistic link for a boosted model."""
    agg = np.full(shape, model.base_score)
    for w, out in zip(model.tree_weights, tree_outputs):
        agg += w * out
    if model.kind == "boosted":
        return 1.0 / (1.0 + np.exp(-agg))
    return agg


def _route(root: TreeNode, shape, goes_left) -> np.ndarray:
    """The value of the leaf each cell of an array of ``shape`` reaches.

    ``goes_left(feature, threshold)`` gives, broadcast to ``shape``, the
    cells a split sends left.  Each node's reach mask is carried down the
    tree and each leaf's value is set where its mask holds.
    """
    out = np.empty(shape)
    stack = [(root, np.ones(shape, dtype=bool))]
    while stack:
        node, reach = stack.pop()
        if node.is_leaf:
            out[reach] = node.value
            continue
        left = reach & goes_left(node.feature_index, node.threshold)
        stack.append((node.left, left))
        stack.append((node.right, reach ^ left))
    return out


def _gini(pos, n):
    p = pos / n
    return 1.0 - p ** 2 - (1.0 - p) ** 2


def _scan(xs, starts, seg_node, decrease_at):
    """Best cut of each node in a flat run of sorted segments.

    ``xs`` holds the segments back to back, each sorted ascending, and
    ``starts`` where each one begins.  ``seg_node`` names the node of each
    segment; it is nondecreasing, so a node's segments (its candidate
    columns) lie together.  ``decrease_at(cut, seg)`` gives the weighted
    impurity decrease of cutting segment ``seg`` after flat position
    ``cut``.  Only cuts whose midpoint separates two neighbours of one
    segment are scored.  Each node keeps the first maximum of its cuts in
    flat order, so the earliest segment, then the lowest threshold, wins.

    Returns ``(node, seg, cut, decrease, threshold)`` arrays with one entry
    per node whose best decrease exceeds MIN_IMPURITY_DECREASE.
    """
    hi = xs[1:]
    thrs = 0.5 * (xs[:-1] + hi)
    # equal neighbours give thrs == hi; midpoints of near-adjacent floats
    # can round up to hi too and would leave a child empty
    separates = thrs < hi
    separates[starts[1:] - 1] = False
    cut = np.flatnonzero(separates)
    if cut.size == 0:
        return cut, cut, cut, thrs[:0], thrs[:0]
    seg = np.searchsorted(starts, cut, side="right") - 1
    decrease = decrease_at(cut, seg)
    node = seg_node[seg]
    if node[0] == node[-1]:         # one node (boosting): argmax is its first maximum
        win = decrease.argmax(keepdims=True)
    else:
        first = np.flatnonzero(np.diff(node, prepend=-1))
        best = np.maximum.reduceat(decrease, first)
        hits = np.flatnonzero(decrease == np.repeat(best, np.diff(first, append=node.size)))
        win = hits[np.searchsorted(hits, first)]
    win = win[decrease[win] > MIN_IMPURITY_DECREASE]
    return node[win], seg[win], cut[win], decrease[win], thrs[cut[win]]


class _Presorted(NamedTuple):
    """Each column of an ensemble's training matrix stably sorted once,
    flattened column-major: entry ``f * n + r`` of ``row``, ``x`` and ``y``
    is the row at rank ``r`` of column ``f``, its value and its label, and
    entry ``f * n + i`` of ``rank`` is the rank of row ``i`` in column
    ``f``.  Equal values rank in row order.  ``y`` is None for boosting,
    which scans residuals, not labels."""

    n: int
    rank: np.ndarray
    row: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _presort(XT, y) -> _Presorted:
    """The presort of the (d, n) matrix ``XT``, with the labels ``y`` unless None."""
    d, n = XT.shape
    order = np.argsort(XT, axis=1, kind="stable").astype(np.int32)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32), axis=1)
    return _Presorted(n, rank.ravel(), order.ravel(),
                      np.take_along_axis(XT, order, axis=1).ravel(),
                      None if y is None else y[order].astype(np.int8).ravel())


def _split_forest_nodes(cols, rows, candidates, positives, n_root):
    """Best Gini split of each forest node, or None.

    Node ``i`` holds the bootstrap rows ``rows[i]`` (``positives[i]`` of
    them labeled 1) and draws the candidate columns ``candidates[i]``; all
    nodes draw the same number.  The nodes are scanned in chunks of at most
    _SCAN_CELLS cells (a node larger than that goes alone), and no node's
    result depends on the chunk it falls in.  A split is ``(decrease,
    feature, threshold, left_rows, right_rows, left_positives)``.
    """
    k = candidates[0].size
    results, first, cells = [], 0, 0
    for i, r in enumerate(rows):
        if cells and cells + k * r.size > _SCAN_CELLS:
            results += _split_forest_chunk(cols, rows[first:i], candidates[first:i],
                                           positives[first:i], n_root)
            first, cells = i, 0
        cells += k * r.size
    return results + _split_forest_chunk(cols, rows[first:], candidates[first:],
                                         positives[first:], n_root)


def _split_forest_chunk(cols, rows, candidates, positives, n_root):
    n = cols.n
    k = candidates[0].size
    sizes = [r.size for r in rows]
    m = np.array(sizes)
    seg_len = np.repeat(m, k)
    starts = np.cumsum(seg_len) - seg_len
    seg_node = np.repeat(np.arange(len(rows)), k)
    features = np.concatenate(candidates)
    # one segment per (node, candidate): its rows ordered by the
    # candidate's rank, so the values come out sorted
    feature_base = np.repeat(features * n, seg_len)
    seg_base = np.repeat(np.arange(features.size) * n, seg_len)
    keys = seg_base + cols.rank[feature_base + np.concatenate([r for r in rows for _ in range(k)])]
    keys.sort()
    flat = keys - seg_base + feature_base
    xs = cols.x[flat]
    ys = cols.y[flat]
    # integer prefix counts: a segment's own prefix is exact after subtracting
    # everything before it
    cum = np.cumsum(ys)
    before = cum[starts] - ys[starts]
    # the parent's impurity on Python floats, as the per-node search took it
    # on numpy scalars: an array's ``** 2`` may differ in the last bit
    parent = np.array([_gini(p, s) for p, s in zip(positives, sizes)])
    scale = np.array([s / n_root for s in sizes])
    pos = np.array(positives)

    def decrease_at(cut, seg):
        node = seg_node[seg]
        size = m[node]
        left_n = (cut - starts[seg] + 1).astype(float)
        left_pos = (cum[cut] - before[seg]).astype(float)
        right_n = size - left_n
        right_pos = pos[node] - left_pos
        weighted = (left_n * _gini(left_pos, left_n)
                    + right_n * _gini(right_pos, right_n)) / size
        return (parent[node] - weighted) * scale[node]

    node, seg, cut, decrease, thrs = _scan(xs, starts, seg_node, decrease_at)
    left_n = cut - starts[seg] + 1
    left_pos = cum[cut] - before[seg]
    # the winning segments' rows, in the order of their split column
    won = m[node]
    offset = np.cumsum(won) - won
    split_rows = cols.row[flat[np.arange(won.sum()) + np.repeat(starts[seg] - offset, won)]]
    results = [None] * len(rows)
    for i, f, thr, dec, o, s, ln, lp in zip(node.tolist(), features[seg].tolist(), thrs.tolist(),
                                             decrease.tolist(), offset.tolist(), won.tolist(),
                                             left_n.tolist(), left_pos.tolist()):
        results[i] = (dec, f, thr, split_rows[o:o + ln], split_rows[o + ln:o + s], lp)
    return results


def _class_leaf(positives, size, n_root):
    return TreeNode(class_counts=(size - positives, positives), value=positives / size,
                    sample_fraction=size / n_root)


def _push_splittable(stack, node, rows, depth_left):
    """Put a node on its tree's stack unless it is a leaf by rule: no depth
    left, or one class only (which covers fewer than two rows)."""
    n0, n1 = node.class_counts
    if depth_left > 0 and n0 > 0 and n1 > 0:
        stack.append((node, rows, depth_left))


def _grow_forest(XT, y, depth, n_trees, seed):
    """The roots of a forest's trees, grown in lockstep (see the module docstring)."""
    d, n = XT.shape
    k = math.ceil(math.sqrt(d))
    cols = _presort(XT, y)
    roots, growing = [], []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n).astype(np.int32)
        root = _class_leaf(int(y[rows].sum()), n, n)
        roots.append(root)
        stack = []
        _push_splittable(stack, root, rows, depth)
        growing.append((rng, stack))
    while growing := [(rng, stack) for rng, stack in growing if stack]:
        nodes = [stack.pop() for _, stack in growing]
        candidates = [rng.choice(d, size=k, replace=False) for rng, _ in growing]
        splits = _split_forest_nodes(cols, [rows for _, rows, _ in nodes], candidates,
                                     [node.class_counts[1] for node, _, _ in nodes], n)
        for (_, stack), (node, _, depth_left), split in zip(growing, nodes, splits):
            if split is None:
                continue
            decrease, f, thr, left_rows, right_rows, left_pos = split
            n1 = node.class_counts[1]
            node.feature_index, node.threshold, node.impurity_decrease = f, thr, decrease
            node.class_counts = node.value = None
            node.left = _class_leaf(left_pos, left_rows.size, n)
            node.right = _class_leaf(n1 - left_pos, right_rows.size, n)
            # right first, so the left subtree draws first: each tree's draws
            # keep the preorder of a depth-first recursion
            _push_splittable(stack, node.right, right_rows, depth_left - 1)
            _push_splittable(stack, node.left, left_rows, depth_left - 1)
    return roots


def _sse_decrease(rs, rr, n_root):
    """``decrease_at`` for squared error over a (d, m) residual block whose
    rows are the segments, each in its column's sorted order.

    ``rr`` holds the node's residuals in row order; the parent sums are
    taken over it so they do not depend on any column's sort order.  The
    prefix sums run along each block row, as a global running sum would
    not subtract back to them bit for bit.
    """
    m = rr.size
    sum_all = rr.sum()
    sse_parent = float((rr ** 2).sum() - sum_all ** 2 / m)
    csum = np.cumsum(rs, axis=1)
    csq = np.cumsum(rs ** 2, axis=1)

    def decrease_at(cut, seg):
        left_n = (cut - seg * m + 1).astype(float)
        left_sum = csum.ravel()[cut]
        left_sq = csq.ravel()[cut]
        right_n = m - left_n
        right_sum = sum_all - left_sum
        right_sq = csq[seg, -1] - left_sq
        sse_children = (left_sq - left_sum ** 2 / left_n
                        + right_sq - right_sum ** 2 / right_n)
        return (sse_parent - sse_children) / n_root
    return decrease_at


def _sse_split(cols, r, rows, n_root):
    """Best split of a boosting node, or None.

    ``rows`` are distinct and ascending; every column is one segment.  A
    split is ``(decrease, feature, threshold, left_rows, right_rows)``, each
    child's rows ascending.
    """
    m = rows.size
    base = np.arange(0, cols.rank.size, cols.n)[:, None]
    flat = (base + cols.rank[base + rows]).ravel()
    flat.sort()                 # segment f: the rows in their order of column f
    decrease_at = _sse_decrease(r[cols.row[flat]].reshape(-1, m), r[rows], n_root)
    _, seg, cut, decrease, thrs = _scan(cols.x[flat], np.arange(0, flat.size, m),
                                        np.zeros(base.size, int), decrease_at)
    if seg.size == 0:
        return None
    f = int(seg[0])
    won = cols.row[flat[f * m:(f + 1) * m]]
    left_n = int(cut[0]) - f * m + 1
    return float(decrease[0]), f, float(thrs[0]), np.sort(won[:left_n]), np.sort(won[left_n:])


def _validate_training_inputs(X, y, feature_names):
    """``(X, y, names)``, names ``f0, f1, ...`` by default; raises ValueError
    unless X is (n, d) without missing values, y holds n 0/1 labels and the
    names are d distinct ones (``model_from_dict`` loads no other model)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if np.isnan(X).any():
        raise ValueError("training matrix contains missing values; impute first")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    names = (strict_unique(feature_names, "feature names") if feature_names is not None
             else [f"f{i}" for i in range(X.shape[1])])
    if len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} feature names for {X.shape[1]} columns")
    return X, y.astype(int), names


def _degenerate_model(kind, y, feature_names, hyperparameters, seed):
    """A one-leaf model of ``y``'s one label: the forest's leaf holds it as a
    probability, the boosted base score as a log-odds of 0.99 or 0.01."""
    warnings.warn(DegenerateLabels(
        f"all labels are {int(y[0])}; returning a constant predictor"))
    boosted = kind == "boosted"
    leaf = TreeNode(class_counts=(len(y) - y.sum(), y.sum()), sample_fraction=1.0,
                    value=0.0 if boosted else float(y[0]))
    base = math.log(0.99 / 0.01) * (1 if y[0] == 1 else -1) if boosted else 0.0
    return TreeEnsembleModel(kind=kind, trees=[leaf], tree_weights=[1.0],
                             feature_names=feature_names,
                             hyperparameters=hyperparameters, seed=seed,
                             base_score=base, degenerate=True)


def train_random_forest(X, y, depth, n_trees: int = DEFAULT_N_TREES,
                        seed: int = 0, feature_names=None) -> TreeEnsembleModel:
    """Bootstrap-sampled, Gini-split, depth-capped forest.

    Every tree draws its bootstrap and per-node ceil(sqrt(d)) feature
    candidates from an independent stream keyed by (seed, tree index).
    """
    X, y, names = _validate_training_inputs(X, y, feature_names)
    if depth < 1 or n_trees < 1:
        raise ValueError("depth and n_trees must be >= 1")
    hp = {"depth": int(depth), "n_trees": int(n_trees)}
    if len(np.unique(y)) < 2:
        return _degenerate_model("random_forest", y, names, hp, seed)
    trees = _grow_forest(np.ascontiguousarray(X.T), y, depth, n_trees, seed)
    return TreeEnsembleModel(kind="random_forest", trees=trees,
                             tree_weights=[1.0 / n_trees] * n_trees,
                             feature_names=names, hyperparameters=hp, seed=seed)


def _grow_regression_tree(cols, r, h, rows, depth_left, n_root, out):
    """``rows`` ascending; each leaf writes its value into ``out`` at its rows."""
    best = None if depth_left == 0 or rows.size < 2 else _sse_split(cols, r, rows, n_root)
    if best is None:
        return _newton_leaf(r, h, rows, n_root, out)
    decrease, f, thr, left_rows, right_rows = best
    node = TreeNode(feature_index=f, threshold=thr, impurity_decrease=decrease,
                    sample_fraction=rows.size / n_root)
    node.left = _grow_regression_tree(cols, r, h, left_rows, depth_left - 1, n_root, out)
    node.right = _grow_regression_tree(cols, r, h, right_rows, depth_left - 1, n_root, out)
    return node


def _newton_leaf(r, h, rows, n_root, out):
    value = r[rows].sum() / (h[rows].sum() + BOOST_L2)
    out[rows] = value
    return TreeNode(value=float(value), sample_fraction=rows.size / n_root)


def train_boosted(X, y, rounds: int, depth: int, learning_rate: float = DEFAULT_BOOST_RATE,
                  seed: int = 0, feature_names=None) -> TreeEnsembleModel:
    """Stagewise log-odds model with logistic loss.

    Each round fits a depth-capped regression tree to the residuals y - p
    and replaces leaf values with the Newton step
    sum(residuals) / (sum p(1-p) + 1.0).
    """
    X, y, names = _validate_training_inputs(X, y, feature_names)
    if rounds < 1 or depth < 1 or learning_rate <= 0:
        raise ValueError("rounds, depth and learning_rate must be positive")
    n = X.shape[0]
    hp = {"rounds": int(rounds), "depth": int(depth),
          "learning_rate": float(learning_rate)}
    if len(np.unique(y)) < 2:
        return _degenerate_model("boosted", y, names, hp, seed)
    cols = _presort(np.ascontiguousarray(X.T), None)
    score = np.zeros(n)
    rows = np.arange(n)
    out = np.empty(n)
    trees = []
    for _ in range(rounds):
        p = 1.0 / (1.0 + np.exp(-score))
        residual = y - p
        hessian = p * (1.0 - p)
        # every row reaches one leaf, so the leaves fill all of ``out``
        trees.append(_grow_regression_tree(cols, residual, hessian, rows, depth, n, out))
        score += learning_rate * out
    return TreeEnsembleModel(kind="boosted", trees=trees,
                             tree_weights=[learning_rate] * rounds,
                             feature_names=names, hyperparameters=hp,
                             seed=seed, base_score=0.0)


def _nodes(root: TreeNode):
    """Every node of one tree, depth first with the right branch ahead of the left."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += (node.left, node.right)


def tree_nodes(model: TreeEnsembleModel):
    """Every split and leaf node of the model, tree by tree (see :func:`_nodes`)."""
    for root in model.trees:
        yield from _nodes(root)


def gini_importance(model: TreeEnsembleModel):
    """Mean decrease impurity per feature, normalized to sum to one.

    Returns (feature_index, importance) pairs sorted by descending
    importance, ties broken by lower feature index.
    """
    d = model.n_features
    totals = np.zeros(d)
    for node in tree_nodes(model):
        if not node.is_leaf:
            totals[node.feature_index] += node.impurity_decrease
    totals /= len(model.trees)
    if totals.sum() > 0:
        totals = totals / totals.sum()
    order = np.lexsort((np.arange(d), -totals))
    return [(int(i), float(totals[i])) for i in order]


def feature_ranking(X, y, seed: int) -> list:
    """Every feature index, most important first, by the Gini importance of a
    forest of DEFAULT_N_TREES trees of depth SELECTION_DEPTH fit on (X, y)."""
    forest = train_random_forest(X, y, depth=SELECTION_DEPTH, n_trees=DEFAULT_N_TREES,
                                 seed=seed)
    return [idx for idx, _ in gini_importance(forest)]


def select_top_features(X, y, m: int, seed: int = 0):
    """Indices, ascending, of the m most important features; see :func:`feature_ranking`."""
    if m < 1:
        raise EmptySelection("cannot select zero features")
    d = np.asarray(X).shape[1]
    if m > d:
        raise SelectionTooLarge(f"cannot select {m} features from {d} columns")
    return sorted(feature_ranking(X, y, seed)[:m])


# -- JSON serialization --------------------------------------------------------

def _node_to_dict(node: TreeNode, key):
    """One node of a model file; a leaf's value goes under ``key``, its
    model kind's entry in _LEAF_OUTPUT."""
    if node.is_leaf:
        rec = {"leaf": True, "sample_fraction": node.sample_fraction, key: node.value}
        if node.class_counts is not None:
            rec["class_counts"] = [int(c) for c in node.class_counts]
        return rec
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "impurity_decrease": node.impurity_decrease,
        "sample_fraction": node.sample_fraction,
        "left": _node_to_dict(node.left, key),
        "right": _node_to_dict(node.right, key),
    }


def _entry(rec, key, kind):
    """``rec[key]`` of a model file; raises ValueError naming ``key`` when it
    is missing or not a ``kind``: ``list`` or ``dict`` (a JSON array or
    object), or ``object`` for a value of any type."""
    if key not in rec:
        raise ValueError(f"{key} is missing")
    value = rec[key]
    if not isinstance(value, kind):
        raise ValueError(f"{key} must be {'a list' if kind is list else 'an object'}, "
                         f"got {json_type(value)}")
    return value


def _class_counts(counts) -> tuple:
    """A leaf's ``class_counts``: a list of two non-negative integers."""
    if not isinstance(counts, list):
        raise ValueError(f"class_counts must be a list, got {json_type(counts)}")
    if len(counts) != 2:
        raise ValueError(f"class_counts must list two counts, got {len(counts)}")
    for count in counts:
        if not (is_number(count) and float(count).is_integer() and count >= 0):
            got = repr(count) if is_number(count) else json_type(count)
            raise ValueError(f"class_counts must list non-negative integers, got {got}")
    return tuple(int(count) for count in counts)


def _node_from_dict(rec, n_features, key) -> TreeNode:
    """One node of a model file; raises ValueError for a node prediction cannot use.

    A node must be an object, whose ``leaf``, if given, is a boolean.  A
    split must name one of the ``n_features`` features and a finite
    threshold; a leaf must hold a finite number under ``key``, its model
    kind's entry in _LEAF_OUTPUT (``probability`` for a forest, ``value`` for
    boosted trees), which becomes the node's ``value``, and any
    ``class_counts`` it holds must be two non-negative integers.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"a tree node must be an object, got {json_type(rec)}")
    leaf = rec.get("leaf", False)
    if not isinstance(leaf, bool):
        raise ValueError(f"leaf must be a boolean, got {json_type(leaf)}")
    if leaf:
        return TreeNode(class_counts=(_class_counts(rec["class_counts"])
                                      if "class_counts" in rec else None),
                        value=strict_float(rec.get(key), key),
                        sample_fraction=rec.get("sample_fraction", 0.0))
    feature = strict_int(_entry(rec, "feature_index", object), "feature_index")
    if not 0 <= feature < n_features:
        raise ValueError(f"feature_index {feature} is not one of the {n_features} features")
    return TreeNode(feature_index=feature,
                    threshold=strict_float(_entry(rec, "threshold", object), "threshold"),
                    impurity_decrease=_entry(rec, "impurity_decrease", object),
                    sample_fraction=_entry(rec, "sample_fraction", object),
                    left=_node_from_dict(_entry(rec, "left", object), n_features, key),
                    right=_node_from_dict(_entry(rec, "right", object), n_features, key))


def model_to_dict(model: TreeEnsembleModel):
    return {
        "kind": model.kind,
        "hyperparameters": model.hyperparameters,
        "feature_names": model.feature_names,
        "trees": [_node_to_dict(t, _LEAF_OUTPUT[model.kind]) for t in model.trees],
        "tree_weights": list(model.tree_weights),
        "base_score": model.base_score,
        "seed": model.seed,
        "degenerate": model.degenerate,
    }


def model_from_dict(rec) -> TreeEnsembleModel:
    """The model of :func:`model_to_dict`'s record; raises ValueError naming
    the field of a record that is not an object, that lacks a field or holds
    one of the wrong JSON type (see :func:`_entry`), whose kind is not one of
    TREE_KINDS, that holds no tree, whose trees could not predict (see
    :func:`_node_from_dict`), or whose feature names are empty or repeated
    (each name picks the matrix column its feature is read from)."""
    if not isinstance(rec, dict):
        raise ValueError(f"a model must be an object, got {json_type(rec)}")
    kind = _entry(rec, "kind", object)
    if kind not in TREE_KINDS:
        raise ValueError(f"kind {kind!r} is not a tree model ({' or '.join(TREE_KINDS)})")
    names = strict_unique([strict_str(name, "feature name")
                           for name in _entry(rec, "feature_names", list)], "feature names")
    if not names:
        raise ValueError("feature_names is empty")
    trees = [_node_from_dict(t, len(names), _LEAF_OUTPUT[kind])
             for t in _entry(rec, "trees", list)]
    if not trees:
        raise ValueError("trees is empty")
    weights = [strict_float(w, "tree weight") for w in _entry(rec, "tree_weights", list)]
    if len(weights) != len(trees):
        raise ValueError(f"{len(weights)} tree weights for {len(trees)} trees")
    return TreeEnsembleModel(
        kind=kind,
        trees=trees,
        tree_weights=weights,
        feature_names=names,
        hyperparameters=dict(_entry(rec, "hyperparameters", dict)),
        seed=_entry(rec, "seed", object),
        base_score=strict_float(rec.get("base_score", 0.0), "base_score"),
        degenerate=rec.get("degenerate", False),
    )
