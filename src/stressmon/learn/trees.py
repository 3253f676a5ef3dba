"""Decision-tree ensembles: random forest and gradient-boosted trees.

Both ensembles share one node type that records the weighted impurity
decrease and sample fraction at every split, so Gini importances and JSON
serialization fall out of the same structure.  Forest trees use the Gini
criterion with ceil(sqrt(d)) feature candidates per node; boosted trees
fit squared-error regression trees to logistic-loss residuals with Newton
leaf values.  All randomness flows from per-tree generator streams keyed
by (seed, tree_index), so results are independent of evaluation order.

Both ensembles find splits with one scanner, :func:`_best_split`.  It
takes a node's candidate columns as a feature-major (k, m) block, each
row already sorted, and scores the separating cuts of every row in one
pass of 2-D array operations; only the impurity statistic differs (class
counts for Gini, residual sums for squared error).  The sorted order
comes from:

* forest: each node stably sorts just its k = ceil(sqrt(d)) candidate
  columns over its bootstrap rows.  Pre-sorting all d columns per tree
  costs more, because every node would then partition d lists to scan k;
* boosting: every round fits the same rows, so the columns are stably
  sorted once per ensemble and the (d, m) order block is stably
  partitioned down each tree, so no node sorts anything.

Taking the first maximum over the cuts listed row by row keeps the
tie-breaks of a per-feature scan: the earliest candidate, then the lowest
threshold.  Stable sorts and partitions keep its order of summation too,
so boosting's residual sums, and the models, match it to the last bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (DegenerateLabels, EmptySelection, SelectionTooLarge, strict_float,
                      strict_int, strict_str, strict_unique)

MIN_IMPURITY_DECREASE = 1e-12
DEFAULT_N_TREES = 100
#: Depth of the forest whose Gini importances rank features for selection.
SELECTION_DEPTH = 10
DEFAULT_BOOST_ROUNDS = 100
DEFAULT_BOOST_DEPTH = 6
DEFAULT_BOOST_RATE = 0.3
BOOST_L2 = 1.0
#: The model kinds of TreeEnsembleModel, the only ones a model file may hold.
TREE_KINDS = ("random_forest", "boosted")


@dataclass
class TreeNode:
    """Either a split (feature/threshold/children) or a leaf.

    Leaves carry class counts and a probability for classification trees,
    or a log-odds step in ``value`` for boosted regression trees.  Split
    nodes record the impurity decrease already weighted by the fraction of
    the tree's samples that reached them.
    """

    feature_index: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    impurity_decrease: float = 0.0
    sample_fraction: float = 0.0
    class_counts: tuple | None = None
    probability: float | None = None
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
        agg = np.full(X.shape[0], self.base_score)
        for tree, w in zip(self.trees, self.tree_weights):
            agg += w * _tree_leaf_outputs(tree, X)
        if self.kind == "boosted":
            return 1.0 / (1.0 + np.exp(-agg))
        return agg

    def predict(self, X) -> np.ndarray:
        """0/1 labels at the fixed 0.5 probability threshold (ties -> 0)."""
        return (self.predict_proba(X) > 0.5).astype(int)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _tree_leaf_outputs(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.probability if node.value is None else node.value
        else:
            go_left = X[rows, node.feature_index] <= node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
    return out


def _gini(pos: np.ndarray, n: np.ndarray):
    p = pos / n
    return 1.0 - p ** 2 - (1.0 - p) ** 2


def _best_split(xs, decrease_at):
    """Best (decrease, block row, threshold) of a sorted block, or None.

    ``xs`` is a feature-major (k, m) block whose rows are the node's
    candidate columns, each sorted ascending.  ``decrease_at(row, at)``
    gives the weighted impurity decrease of cutting block row ``row``
    after its ``at``-th value.  Only cuts whose midpoint separates the two
    neighbours are scored.  They are listed row by row, so the first
    maximum keeps the earliest row, then the lowest threshold.
    """
    hi = xs[:, 1:]
    thrs = 0.5 * (xs[:, :-1] + hi)
    # equal neighbours give thrs == hi; midpoints of near-adjacent floats
    # can round up to hi too and would leave a child empty
    row, at = np.nonzero(thrs < hi)
    if row.size == 0:
        return None
    decrease = decrease_at(row, at)
    i = int(decrease.argmax())
    if not decrease[i] > MIN_IMPURITY_DECREASE:
        return None
    return float(decrease[i]), int(row[i]), float(thrs[row[i], at[i]])


def _gini_decrease(ys, n_root):
    """``decrease_at`` for the Gini criterion over a sorted (k, m) label block."""
    m = ys.shape[1]
    total_pos = ys[0].sum()
    parent = float(_gini(np.array(total_pos, dtype=float), np.array(float(m))))
    cum_pos = np.cumsum(ys, axis=1)

    def decrease_at(row, at):
        left_n = (at + 1).astype(float)
        left_pos = cum_pos[row, at].astype(float)
        right_n = m - left_n
        right_pos = total_pos - left_pos
        weighted = (left_n * _gini(left_pos, left_n)
                    + right_n * _gini(right_pos, right_n)) / m
        return (parent - weighted) * (m / n_root)
    return decrease_at


def _sse_decrease(rs, rr, n_root):
    """``decrease_at`` for squared error over a sorted (k, m) residual block.

    ``rr`` holds the node's residuals in row order; the parent sums are
    taken over it so they do not depend on any column's sort order.
    """
    m = rr.size
    sum_all = rr.sum()
    sse_parent = float((rr ** 2).sum() - sum_all ** 2 / m)
    csum = np.cumsum(rs, axis=1)
    csq = np.cumsum(rs ** 2, axis=1)

    def decrease_at(row, at):
        left_n = (at + 1).astype(float)
        left_sum = csum[row, at]
        left_sq = csq[row, at]
        right_n = m - left_n
        right_sum = sum_all - left_sum
        right_sq = csq[row, -1] - left_sq
        sse_children = (left_sq - left_sum ** 2 / left_n
                        + right_sq - right_sum ** 2 / right_n)
        return (sse_parent - sse_children) / n_root
    return decrease_at


def _grow_classification_tree(XT, y, rows, depth_left, rng, max_features, n_root):
    n1 = int(y[rows].sum())
    n0 = rows.size - n1
    leaf = TreeNode(class_counts=(n0, n1), probability=n1 / rows.size,
                    sample_fraction=rows.size / n_root)
    if depth_left == 0 or n0 == 0 or n1 == 0 or rows.size < 2:
        return leaf
    d = XT.shape[0]
    candidates = rng.choice(d, size=min(d, max_features), replace=False)
    block = XT[candidates[:, None], rows]
    order = np.argsort(block, axis=1, kind="stable")
    xs = np.take_along_axis(block, order, axis=1)
    best = _best_split(xs, _gini_decrease(y[rows][order], n_root))
    if best is None:
        return leaf
    decrease, j, thr = best
    f = int(candidates[j])
    go_left = XT[f, rows] <= thr
    node = TreeNode(feature_index=f, threshold=thr, impurity_decrease=decrease,
                    sample_fraction=rows.size / n_root)
    node.left = _grow_classification_tree(XT, y, rows[go_left], depth_left - 1,
                                          rng, max_features, n_root)
    node.right = _grow_classification_tree(XT, y, rows[~go_left], depth_left - 1,
                                           rng, max_features, n_root)
    return node


def _validate_training_inputs(X, y, feature_names):
    """``(X, y, names)``, names ``f0, f1, ...`` by default; raises ValueError
    unless X is (n, d) without missing values and y holds n 0/1 labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if np.isnan(X).any():
        raise ValueError("training matrix contains missing values; impute first")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    names = (list(feature_names) if feature_names is not None
             else [f"f{i}" for i in range(X.shape[1])])
    return X, y.astype(int), names


def _degenerate_model(kind, y, feature_names, hyperparameters, seed):
    """A one-leaf model of ``y``'s one label: the forest's leaf holds it as a
    probability, the boosted base score as a log-odds of 0.99 or 0.01."""
    warnings.warn(DegenerateLabels(
        f"all labels are {int(y[0])}; returning a constant predictor"))
    boosted = kind == "boosted"
    leaf = TreeNode(class_counts=(len(y) - y.sum(), y.sum()), sample_fraction=1.0,
                    probability=None if boosted else float(y[0]),
                    value=0.0 if boosted else None)
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
    n, d = X.shape
    hp = {"depth": int(depth), "n_trees": int(n_trees)}
    if len(np.unique(y)) < 2:
        return _degenerate_model("random_forest", y, names, hp, seed)
    max_features = math.ceil(math.sqrt(d))
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_classification_tree(XT, y, rows, depth, rng,
                                               max_features, n_root=n))
    return TreeEnsembleModel(kind="random_forest", trees=trees,
                             tree_weights=[1.0 / n_trees] * n_trees,
                             feature_names=names, hyperparameters=hp, seed=seed)


def _grow_regression_tree(XT, r, h, rows, order, depth_left, n_root):
    """``rows`` ascending; ``order`` is the (d, rows.size) block of those
    rows sorted by each feature, partitioned down from the ensemble's sort."""
    if depth_left == 0 or rows.size < 2:
        return _newton_leaf(r, h, rows, n_root)
    xs = np.take_along_axis(XT, order, axis=1)
    best = _best_split(xs, _sse_decrease(r[order], r[rows], n_root))
    if best is None:
        return _newton_leaf(r, h, rows, n_root)
    decrease, f, thr = best
    go_left = XT[f, rows] <= thr
    is_left = np.zeros(XT.shape[1], dtype=bool)
    is_left[rows[go_left]] = True
    to_left = is_left[order]
    d = order.shape[0]
    node = TreeNode(feature_index=f, threshold=thr, impurity_decrease=decrease,
                    sample_fraction=rows.size / n_root)
    node.left = _grow_regression_tree(XT, r, h, rows[go_left],
                                      order[to_left].reshape(d, -1),
                                      depth_left - 1, n_root)
    node.right = _grow_regression_tree(XT, r, h, rows[~go_left],
                                       order[~to_left].reshape(d, -1),
                                       depth_left - 1, n_root)
    return node


def _newton_leaf(r, h, rows, n_root):
    value = r[rows].sum() / (h[rows].sum() + BOOST_L2)
    return TreeNode(value=float(value), sample_fraction=rows.size / n_root)


def train_boosted(X, y, rounds: int = DEFAULT_BOOST_ROUNDS,
                  depth: int = DEFAULT_BOOST_DEPTH,
                  learning_rate: float = DEFAULT_BOOST_RATE,
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
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    score = np.zeros(n)
    rows = np.arange(n)
    trees = []
    for _ in range(rounds):
        p = 1.0 / (1.0 + np.exp(-score))
        residual = y - p
        hessian = p * (1.0 - p)
        tree = _grow_regression_tree(XT, residual, hessian, rows, order, depth,
                                     n_root=n)
        trees.append(tree)
        score += learning_rate * _tree_leaf_outputs(tree, X)
    return TreeEnsembleModel(kind="boosted", trees=trees,
                             tree_weights=[learning_rate] * rounds,
                             feature_names=names, hyperparameters=hp,
                             seed=seed, base_score=0.0)


def gini_importance(model: TreeEnsembleModel):
    """Mean decrease impurity per feature, normalized to sum to one.

    Returns (feature_index, importance) pairs sorted by descending
    importance, ties broken by lower feature index.
    """
    d = model.n_features
    totals = np.zeros(d)
    for root in model.trees:
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            totals[node.feature_index] += node.impurity_decrease
            stack.extend((node.left, node.right))
    totals /= len(model.trees)
    if totals.sum() > 0:
        totals = totals / totals.sum()
    order = np.lexsort((np.arange(d), -totals))
    return [(int(i), float(totals[i])) for i in order]


def select_top_features(X, y, m: int, seed: int = 0):
    """Indices of the m most important features per a forest fit on (X, y).

    The forest has DEFAULT_N_TREES trees of depth SELECTION_DEPTH.
    """
    if m < 1:
        raise EmptySelection("cannot select zero features")
    d = np.asarray(X).shape[1]
    if m > d:
        raise SelectionTooLarge(f"cannot select {m} features from {d} columns")
    forest = train_random_forest(X, y, depth=SELECTION_DEPTH, n_trees=DEFAULT_N_TREES,
                                 seed=seed)
    ranked = gini_importance(forest)
    return sorted(idx for idx, _ in ranked[:m])


# -- JSON serialization --------------------------------------------------------

def _node_to_dict(node: TreeNode):
    if node.is_leaf:
        rec = {"leaf": True, "sample_fraction": node.sample_fraction}
        if node.class_counts is not None:
            rec["class_counts"] = [int(c) for c in node.class_counts]
        if node.probability is not None:
            rec["probability"] = node.probability
        if node.value is not None:
            rec["value"] = node.value
        return rec
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "impurity_decrease": node.impurity_decrease,
        "sample_fraction": node.sample_fraction,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(rec, n_features) -> TreeNode:
    """One node of a model file; raises ValueError for a node prediction cannot use.

    A split must name one of the ``n_features`` features and a finite
    threshold; a leaf must hold a finite probability or value.
    """
    if rec.get("leaf"):
        counts = rec.get("class_counts")
        probability, value = (None if rec.get(name) is None else strict_float(rec[name], name)
                              for name in ("probability", "value"))
        if probability is None and value is None:
            raise ValueError("a leaf has neither probability nor value")
        return TreeNode(class_counts=tuple(counts) if counts else None,
                        probability=probability, value=value,
                        sample_fraction=rec.get("sample_fraction", 0.0))
    feature = strict_int(rec["feature_index"], "feature_index")
    if not 0 <= feature < n_features:
        raise ValueError(f"feature_index {feature} is not one of the {n_features} features")
    return TreeNode(feature_index=feature, threshold=strict_float(rec["threshold"], "threshold"),
                    impurity_decrease=rec["impurity_decrease"],
                    sample_fraction=rec["sample_fraction"],
                    left=_node_from_dict(rec["left"], n_features),
                    right=_node_from_dict(rec["right"], n_features))


def model_to_dict(model: TreeEnsembleModel):
    return {
        "kind": model.kind,
        "hyperparameters": model.hyperparameters,
        "feature_names": model.feature_names,
        "trees": [_node_to_dict(t) for t in model.trees],
        "tree_weights": list(model.tree_weights),
        "base_score": model.base_score,
        "seed": model.seed,
        "degenerate": model.degenerate,
    }


def model_from_dict(rec) -> TreeEnsembleModel:
    """The model of :func:`model_to_dict`'s record; raises ValueError for a
    record whose kind is not one of TREE_KINDS, that holds no tree, whose
    trees could not predict (see :func:`_node_from_dict`), or whose feature
    names are empty or repeated (each name picks the matrix column its
    feature is read from)."""
    kind = rec["kind"]
    if kind not in TREE_KINDS:
        raise ValueError(f"kind {kind!r} is not a tree model ({' or '.join(TREE_KINDS)})")
    names = strict_unique([strict_str(name, "feature name") for name in rec["feature_names"]],
                          "feature names")
    if not names:
        raise ValueError("feature_names is empty")
    trees = [_node_from_dict(t, len(names)) for t in rec["trees"]]
    if not trees:
        raise ValueError("trees is empty")
    weights = [strict_float(w, "tree weight") for w in rec["tree_weights"]]
    if len(weights) != len(trees):
        raise ValueError(f"{len(weights)} tree weights for {len(trees)} trees")
    return TreeEnsembleModel(
        kind=kind,
        trees=trees,
        tree_weights=weights,
        feature_names=names,
        hyperparameters=dict(rec["hyperparameters"]),
        seed=rec["seed"],
        base_score=strict_float(rec.get("base_score", 0.0), "base_score"),
        degenerate=rec.get("degenerate", False),
    )
