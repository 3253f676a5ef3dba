"""The segmented split scanner against the per-feature scanners it replaced.

``gini_oracle`` and ``sse_oracle`` are the forest's and boosting's former
split searches: one stable argsort, cut, mask and argmax per feature.  The
scanner must return the very same (decrease, feature, threshold) tuple,
compared with ``==``, on inputs full of ties, constant columns, duplicated
bootstrap rows and near-adjacent floats, for one node or many at once.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from stressmon.learn import model_to_dict, train_boosted, train_random_forest, trees
from stressmon.learn.trees import (MIN_IMPURITY_DECREASE, _gini, _presort,
                                   _split_forest_nodes, _sse_split)


def gini_oracle(X, y, rows, candidates, n_root):
    m = rows.size
    total_pos = y[rows].sum()
    parent = float(_gini(np.array(total_pos, dtype=float), np.array(float(m))))
    best = None
    for f in candidates:
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[rows][order]
        cut = np.flatnonzero(xs_sorted[:-1] != xs_sorted[1:])
        if cut.size == 0:
            continue
        thrs = 0.5 * (xs_sorted[cut] + xs_sorted[cut + 1])
        separating = thrs < xs_sorted[cut + 1]
        cut, thrs = cut[separating], thrs[separating]
        if cut.size == 0:
            continue
        left_n = (cut + 1).astype(float)
        left_pos = np.cumsum(ys_sorted)[cut].astype(float)
        right_n = m - left_n
        right_pos = total_pos - left_pos
        weighted = (left_n * _gini(left_pos, left_n)
                    + right_n * _gini(right_pos, right_n)) / m
        decreases = (parent - weighted) * (m / n_root)
        i = int(np.argmax(decreases))
        if decreases[i] <= MIN_IMPURITY_DECREASE:
            continue
        if best is None or decreases[i] > best[0]:
            best = (float(decreases[i]), int(f), float(thrs[i]))
    return best


def sse_oracle(X, r, rows, n_root):
    m = rows.size
    rr = r[rows]
    sum_all = rr.sum()
    sse_parent = float((rr ** 2).sum() - sum_all ** 2 / m)
    best = None
    for f in range(X.shape[1]):
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        rs = rr[order]
        cut = np.flatnonzero(xs_sorted[:-1] != xs_sorted[1:])
        if cut.size == 0:
            continue
        thrs = 0.5 * (xs_sorted[cut] + xs_sorted[cut + 1])
        separating = thrs < xs_sorted[cut + 1]
        cut, thrs = cut[separating], thrs[separating]
        if cut.size == 0:
            continue
        csum = np.cumsum(rs)
        csq = np.cumsum(rs ** 2)
        left_n = (cut + 1).astype(float)
        left_sum = csum[cut]
        left_sq = csq[cut]
        right_n = m - left_n
        right_sum = sum_all - left_sum
        right_sq = csq[-1] - left_sq
        sse_children = (left_sq - left_sum ** 2 / left_n
                        + right_sq - right_sum ** 2 / right_n)
        decreases = (sse_parent - sse_children) / n_root
        i = int(np.argmax(decreases))
        if decreases[i] <= MIN_IMPURITY_DECREASE:
            continue
        if best is None or decreases[i] > best[0]:
            best = (float(decreases[i]), int(f), float(thrs[i]))
    return best


def gini_scan(X, y, rows, candidates, n_root):
    """What a forest node does: one node through the forest's chunked scan."""
    split, = _split_forest_nodes(_presort(np.ascontiguousarray(X.T), y), [rows],
                                 [candidates], [int(y[rows].sum())], n_root)
    return None if split is None else split[:3]


def sse_scan(X, r, rows, n_root):
    """What a boosting node does: every column of the node cut out of the
    ensemble's stable ranks.  ``rows`` are ascending, as boosting's are, and
    the children's rows must come back as ``rows`` split at the threshold,
    so ascending too."""
    cols = _presort(np.ascontiguousarray(X.T), np.zeros(X.shape[0], dtype=int))
    split = _sse_split(cols, r, rows, n_root)
    if split is None:
        return None
    _, f, thr, left, right = split
    go_left = X[rows, f] <= thr
    assert np.array_equal(left, rows[go_left])
    assert np.array_equal(right, rows[~go_left])
    return split[:3]


ONE = 1.0
NEAR = [ONE, np.nextafter(ONE, 2.0), np.nextafter(np.nextafter(ONE, 2.0), 2.0)]


@st.composite
def matrices(draw, max_rows=24, max_cols=6):
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_cols))
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["ties", "constant", "near", "free", "copy"]))
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
            continue
        if kind == "ties":
            pool = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
        elif kind == "constant":
            pool = st.just(draw(st.sampled_from([0.0, -3.25, 7.0])))
        elif kind == "near":
            pool = st.sampled_from(NEAR)
        else:
            pool = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        cols.append(draw(st.lists(pool, min_size=n, max_size=n)))
    return np.array(cols, dtype=float).T


@st.composite
def forest_nodes(draw):
    X = draw(matrices())
    n, d = X.shape
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    m = draw(st.integers(2, 2 * n))
    # bootstrap draws: duplicated rows, not sorted
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    k = draw(st.integers(1, d))
    candidates = np.array(draw(st.permutations(range(d)))[:k])
    n_root = draw(st.integers(m, 3 * m))
    return X, y, rows, candidates, n_root


@st.composite
def boosting_nodes(draw):
    X = draw(matrices())
    n = X.shape[0]
    r = np.array(draw(st.lists(
        st.one_of(st.sampled_from([-0.5, 0.25, 0.5]),
                  st.floats(-1.0, 1.0, allow_nan=False)),
        min_size=n, max_size=n)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = np.flatnonzero(keep)
    if rows.size < 2:
        rows = np.arange(n)
    n_root = draw(st.integers(rows.size, 3 * rows.size))
    return X, r, rows, n_root


@st.composite
def forest_steps(draw):
    """Several nodes of one forest step, and a scan cap that may cut them
    into chunks anywhere."""
    X = draw(matrices())
    n, d = X.shape
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    k = draw(st.integers(1, d))
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(2, 2 * n))
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        nodes.append((rows, np.array(draw(st.permutations(range(d)))[:k])))
    largest = max(rows.size for rows, _ in nodes)
    n_root = draw(st.integers(largest, 3 * largest))
    cells = draw(st.integers(1, k * sum(rows.size for rows, _ in nodes)))
    return X, y, nodes, n_root, cells


def scan_step(X, y, nodes, n_root, cells):
    with mock.patch.object(trees, "_SCAN_CELLS", cells):
        return _split_forest_nodes(_presort(np.ascontiguousarray(X.T), y),
                                   [rows for rows, _ in nodes], [c for _, c in nodes],
                                   [int(y[rows].sum()) for rows, _ in nodes], n_root)


def check_step(X, y, nodes, n_root, cells):
    splits = scan_step(X, y, nodes, n_root, cells)
    assert len(splits) == len(nodes)
    for (rows, candidates), split in zip(nodes, splits):
        expected = gini_oracle(X, y, rows, candidates, n_root)
        assert (None if split is None else split[:3]) == expected
        if split is not None:
            _, f, thr, left, right, left_pos = split
            go_left = X[rows, f] <= thr
            assert np.array_equal(np.sort(left), np.sort(rows[go_left]))
            assert np.array_equal(np.sort(right), np.sort(rows[~go_left]))
            assert left_pos == y[left].sum()


@settings(max_examples=200, deadline=None)
@given(forest_steps())
def test_many_nodes_in_one_scan_match_oracle(step):
    check_step(*step)


def test_parent_impurity_of_53_in_223_is_the_scalar_one():
    # the array path rounds this parent Gini one bit lower than the scalar
    # path the oracle (and the former scanner) took
    assert _gini(np.array([53.0]), np.array([223.0]))[0] != \
        _gini(np.array(53.0), np.array(223.0))
    rng = np.random.default_rng(7066)
    X = rng.normal(size=(223, 5))
    X[:, 1] = np.round(X[:, 1])
    y = np.zeros(223, dtype=int)
    y[rng.choice(223, size=53, replace=False)] = 1
    nodes = [(np.arange(223), np.array([0, 1, 2])),
             (rng.integers(0, 223, size=223), np.array([4, 3, 0])),
             (np.arange(223)[::-1], np.array([1, 2, 3]))]
    for cells in (3 * 223, 3 * 223 + 1, 10 ** 6):   # one node a chunk, ..., one chunk
        check_step(X, y, nodes, 223, cells)


def test_no_scan_exceeds_the_cap_unless_one_node_does(monkeypatch):
    rng = np.random.default_rng(41)
    X = rng.normal(size=(300, 10))
    X[:, ::2] = np.round(X[:, ::2] * 2) / 2
    y = ((X[:, 0] + rng.normal(size=300)) > 0).astype(int)
    forest = model_to_dict(train_random_forest(X, y, depth=4, n_trees=8, seed=3))
    boosted = model_to_dict(train_boosted(X, y, rounds=3, depth=3, seed=3))
    calls = []
    scan = trees._scan

    def spy(xs, starts, seg_node, decrease_at):
        calls.append((xs.size, int(seg_node[-1]) + 1))
        return scan(xs, starts, seg_node, decrease_at)

    cap = 2000          # a forest root is 4 x 300 cells, a boosting root 10 x 300
    monkeypatch.setattr(trees, "_scan", spy)
    monkeypatch.setattr(trees, "_SCAN_CELLS", cap)
    assert model_to_dict(train_random_forest(X, y, depth=4, n_trees=8, seed=3)) == forest
    assert model_to_dict(train_boosted(X, y, rounds=3, depth=3, seed=3)) == boosted
    assert all(size <= cap or nodes == 1 for size, nodes in calls)
    assert any(size > cap for size, _ in calls)
    assert any(nodes > 1 for _, nodes in calls)


@settings(max_examples=300, deadline=None)
@given(forest_nodes())
def test_gini_scan_matches_oracle(node):
    X, y, rows, candidates, n_root = node
    assert gini_scan(X, y, rows, candidates, n_root) == \
        gini_oracle(X, y, rows, candidates, n_root)


@settings(max_examples=300, deadline=None)
@given(boosting_nodes())
def test_sse_scan_matches_oracle(node):
    X, r, rows, n_root = node
    assert sse_scan(X, r, rows, n_root) == sse_oracle(X, r, rows, n_root)


class TestEdgeCases:
    def test_midpoint_rounding_up_is_not_a_cut(self):
        # 0.5 * (a + b) rounds to b for these neighbours: no separating cut
        a, b = NEAR[1], NEAR[2]
        assert 0.5 * (a + b) == b
        X = np.array([[a], [b], [a], [b]])
        y = np.array([0, 1, 0, 1])
        rows, cand = np.arange(4), np.array([0])
        assert gini_oracle(X, y, rows, cand, 4) is None
        assert gini_scan(X, y, rows, cand, 4) is None
        r = np.array([-0.5, 0.5, -0.5, 0.5])
        assert sse_oracle(X, r, rows, 4) is None
        assert sse_scan(X, r, rows, 4) is None

    def test_midpoint_rounding_down_is_a_cut(self):
        a, b = NEAR[0], NEAR[1]
        X = np.array([[a], [b]])
        y = np.array([0, 1])
        rows, cand = np.arange(2), np.array([0])
        expected = gini_oracle(X, y, rows, cand, 2)
        assert expected is not None and expected[2] == a
        assert gini_scan(X, y, rows, cand, 2) == expected

    def test_two_row_nodes(self):
        X = np.array([[0.0, 5.0], [1.0, 5.0]])
        y = np.array([0, 1])
        rows, cand = np.arange(2), np.array([1, 0])
        assert gini_scan(X, y, rows, cand, 2) == gini_oracle(X, y, rows, cand, 2) \
            == (0.5, 0, 0.5)
        r = np.array([-1.0, 1.0])
        assert sse_scan(X, r, rows, 2) == sse_oracle(X, r, rows, 2) == (1.0, 0, 0.5)

    def test_constant_columns_give_none(self):
        X = np.full((6, 3), 2.0)
        y = np.array([0, 1, 0, 1, 1, 0])
        rows, cand = np.array([0, 0, 3, 5, 2, 2]), np.array([2, 0, 1])
        assert gini_scan(X, y, rows, cand, 6) is None
        assert sse_scan(X, y - 0.5, np.arange(6), 6) is None

    def test_pure_node_gives_none(self):
        X = np.arange(5.0)[:, None]
        r = np.zeros(5)
        assert sse_scan(X, r, np.arange(5), 5) is None

    def test_tied_columns_keep_earliest_candidate(self):
        col = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col, col])
        y = np.array([0, 0, 0, 1, 1])
        rows, cand = np.arange(5), np.array([2, 0, 1])
        assert gini_scan(X, y, rows, cand, 5)[1] == 2
        assert sse_scan(X, y - 0.5, rows, 5)[1] == 0
