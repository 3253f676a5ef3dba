"""The 2-D split scanner against the per-feature scanners it replaced.

``gini_oracle`` and ``sse_oracle`` are the forest's and boosting's former
split searches: one stable argsort, cut, mask and argmax per feature.  The
scanner must return the very same (decrease, feature, threshold) tuple,
compared with ``==``, on inputs full of ties, constant columns, duplicated
bootstrap rows and near-adjacent floats.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from stressmon.learn.trees import (MIN_IMPURITY_DECREASE, _best_split, _gini,
                                   _gini_decrease, _sse_decrease)


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
    """What a forest node does: sort only the candidate columns."""
    block = np.ascontiguousarray(X.T)[candidates[:, None], rows]
    order = np.argsort(block, axis=1, kind="stable")
    xs = np.take_along_axis(block, order, axis=1)
    best = _best_split(xs, _gini_decrease(y[rows][order], n_root))
    if best is None:
        return None
    decrease, j, thr = best
    return decrease, int(candidates[j]), thr


def sse_scan(X, r, rows, n_root):
    """What a boosting node does: partition the ensemble-wide sort to rows."""
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    order = order[np.isin(order, rows)].reshape(X.shape[1], -1)
    xs = np.take_along_axis(XT, order, axis=1)
    return _best_split(xs, _sse_decrease(r[order], r[rows], n_root))


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
