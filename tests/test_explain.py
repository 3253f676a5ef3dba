"""Exact Shapley values: axioms, hand enumeration, independent oracle."""
import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressmon import explain
from stressmon.errors import EmptyBackground, StressmonError, TooManyFeatures
from stressmon.explain import (Explanation, beeswarm_records, coalition_value_table,
                               mean_abs_ranking, shap_values, write_beeswarm_csv)
from stressmon.learn import (TreeEnsembleModel, TreeNode, train_boosted,
                             train_random_forest)
from stressmon.learn.trees import _ensemble_proba, tree_nodes


def leaf(p):
    return TreeNode(class_counts=(0, 0), value=p, sample_fraction=0.0)


def stump(feature, threshold, p_left, p_right):
    return TreeNode(feature_index=feature, threshold=threshold,
                    impurity_decrease=0.1, sample_fraction=1.0,
                    left=leaf(p_left), right=leaf(p_right))


def forest(trees, d):
    return TreeEnsembleModel(kind="random_forest", trees=trees,
                             tree_weights=[1.0 / len(trees)] * len(trees),
                             feature_names=[f"f{i}" for i in range(d)],
                             hyperparameters={}, seed=0)


def tree_output(node, x):
    while not node.is_leaf:
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.value


def oracle_shap(model, row, background):
    """Independent coalition-enumeration oracle with exact Fraction weights."""
    d = len(row)
    def v(subset):
        total = 0.0
        for b in background:
            x = [row[i] if i in subset else b[i] for i in range(d)]
            total += sum(w * tree_output(t, x)
                         for t, w in zip(model.trees, model.tree_weights))
        return total / len(background)
    phi = []
    for i in range(d):
        others = [j for j in range(d) if j != i]
        acc = 0.0
        for r in range(d):
            for subset in itertools.combinations(others, r):
                weight = Fraction(math.factorial(len(subset))
                                  * math.factorial(d - len(subset) - 1),
                                  math.factorial(d))
                acc += float(weight) * (v(set(subset) | {i}) - v(set(subset)))
        phi.append(acc)
    return np.array(phi), v(set())


def random_forest_model(rng, d=4, n_rows=60):
    X = rng.normal(size=(n_rows, d))
    y = (X[:, rng.integers(0, d)] + 0.5 * rng.normal(size=n_rows) > 0).astype(int)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    return train_random_forest(X, y, depth=int(rng.integers(1, 4)),
                               n_trees=int(rng.integers(1, 6)),
                               seed=int(rng.integers(0, 100)))


class TestAxioms:
    def test_dummy_feature_exactly_zero(self):
        model = forest([stump(0, 0.0, 0.2, 0.9)], d=3)
        bg = np.random.default_rng(0).normal(size=(8, 3))
        exp = shap_values(model, np.array([1.0, 5.0, -2.0]), bg)
        assert exp.shap_values[1] == 0.0
        assert exp.shap_values[2] == 0.0

    def test_local_accuracy(self):
        rng = np.random.default_rng(1)
        model = random_forest_model(rng)
        bg = rng.normal(size=(16, 4))
        for _ in range(5):
            row = rng.normal(size=4)
            exp = shap_values(model, row, bg)
            assert abs(exp.prediction - model.predict_proba(row[None])[0]) < 1e-9

    def test_base_is_mean_background_output(self):
        rng = np.random.default_rng(2)
        model = random_forest_model(rng)
        bg = rng.normal(size=(10, 4))
        exp = shap_values(model, rng.normal(size=4), bg)
        assert exp.base_value == pytest.approx(model.predict_proba(bg).mean(), abs=1e-12)

    def test_symmetry(self):
        # two stumps, one per feature, identical structure
        model = forest([stump(0, 0.0, 0.1, 0.7), stump(1, 0.0, 0.1, 0.7)], d=2)
        bg = np.array([[-1.0, -1.0], [1.0, 1.0]])
        exp = shap_values(model, np.array([1.0, 1.0]), bg)
        assert exp.shap_values[0] == pytest.approx(exp.shap_values[1], abs=1e-12)


class TestHandEnumeration:
    def test_depth1_two_features(self):
        # stump on feature 0: x0 <= 0 -> 0.2, else 0.8; background fixed rows
        model = forest([stump(0, 0.0, 0.2, 0.8)], d=2)
        row = np.array([1.0, 0.0])
        bg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        # v({}) = mean(0.2, 0.8) = 0.5 ; v({0}) = 0.8 ; v({1}) = 0.5 ; v({0,1}) = 0.8
        # phi0 = 1/2(v01-v1) + 1/2(v0-v{}) = 0.3 ; phi1 = 0
        exp = shap_values(model, row, bg)
        assert exp.base_value == pytest.approx(0.5)
        assert exp.shap_values[0] == pytest.approx(0.3, abs=1e-12)
        assert exp.shap_values[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            model = random_forest_model(rng, d=d, n_rows=40)
            bg = rng.normal(size=(int(rng.integers(1, 8)), d))
            row = rng.normal(size=d)
            exp = shap_values(model, row, bg)
            phi, base = oracle_shap(model, row, bg)
            assert np.max(np.abs(exp.shap_values - phi)) < 1e-9
            assert abs(exp.base_value - base) < 1e-9


class TestValidation:
    def test_too_many_features(self):
        model = forest([stump(0, 0.0, 0.2, 0.8)], d=17)
        with pytest.raises(TooManyFeatures):
            shap_values(model, np.zeros(17), np.zeros((2, 17)))

    def test_empty_background(self):
        model = forest([stump(0, 0.0, 0.2, 0.8)], d=2)
        with pytest.raises(EmptyBackground):
            shap_values(model, np.zeros(2), np.zeros((0, 2)))

    def test_non_tree_model_rejected(self):
        class NotATree:
            kind = "knn"
        with pytest.raises(ValueError):
            shap_values(NotATree(), np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(StressmonError):
            shap_values(NotATree(), np.zeros(2), np.zeros((1, 2)))


def explain_rows(model, rows, background):
    """One explanation per row, as `cli explain` builds them."""
    return [shap_values(model, row, background) for row in rows]


class TestAggregates:
    def _setup(self, seed=4):
        rng = np.random.default_rng(seed)
        model = random_forest_model(rng, d=3)
        rows = rng.normal(size=(6, 3))
        bg = rng.normal(size=(8, 3))
        return model, rows, bg

    def test_single_row_ranking(self):
        model, rows, bg = self._setup()
        exp = shap_values(model, rows[0], bg)
        ranked = mean_abs_ranking([exp])
        expected = sorted(zip(exp.feature_names, np.abs(exp.shap_values)),
                          key=lambda t: -t[1])
        assert [name for name, _ in ranked] == [name for name, _ in expected]

    def test_duplicated_rows_same_result(self):
        model, rows, bg = self._setup(5)
        one = mean_abs_ranking(explain_rows(model, rows[:1], bg))
        dup = mean_abs_ranking(explain_rows(model, np.repeat(rows[:1], 4, axis=0), bg))
        for (n1, v1), (n2, v2) in zip(one, dup):
            assert n1 == n2 and v1 == pytest.approx(v2, abs=1e-12)

    def test_beeswarm_record_count(self):
        model, rows, bg = self._setup(6)
        records = beeswarm_records(explain_rows(model, rows, bg))
        assert len(records) == rows.shape[0] * rows.shape[1]

    def test_beeswarm_empty(self, tmp_path):
        records = beeswarm_records(explain_rows(forest([stump(0, 0, 0.1, 0.9)], 2),
                                                np.zeros((0, 2)), np.zeros((2, 2))))
        assert records == []
        path = tmp_path / "b.csv"
        write_beeswarm_csv(path, records)
        assert path.read_text().strip() == "row,feature,shap,feature_value"

    def test_beeswarm_order_matches_mean_abs(self):
        model, rows, bg = self._setup(7)
        explanations = explain_rows(model, rows, bg)
        ranked = [name for name, _ in mean_abs_ranking(explanations)]
        records = beeswarm_records(explanations)
        seen = list(dict.fromkeys(r["feature"] for r in records))
        assert seen == ranked


def loop_value_table(model, row, background):
    """The per-coalition reference: one predict_proba call per bitmask."""
    d = row.size
    values = np.empty(1 << d)
    bits = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
    synth = np.empty_like(background)
    for mask in range(1 << d):
        np.copyto(synth, background)
        synth[:, bits[mask]] = row[bits[mask]]
        values[mask] = float(model.predict_proba(synth).mean())
    return values


def fitted_model(kind, d, seed):
    rng = np.random.default_rng(seed)
    # one decimal, so thresholds fall on values the rows repeat
    X = np.round(rng.normal(size=(40, d)), 1)
    y = (X[:, 0] + rng.normal(0, 0.5, 40) > 0).astype(int)
    y[:2] = (0, 1)
    if kind == "boosted":
        return train_boosted(X, y, rounds=4, depth=3, seed=seed)
    return train_random_forest(X, y, depth=3, n_trees=4, seed=seed)


class TestBatchedTable:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["random_forest", "boosted"]),
           d=st.integers(1, 8), n_bg=st.integers(1, 40),
           cap=st.sampled_from([1, 5, 24, 300, None]),
           seed=st.integers(0, 2 ** 16))
    def test_equals_per_coalition_loop(self, kind, d, n_bg, cap, seed):
        model = fitted_model(kind, d, seed)
        rng = np.random.default_rng(seed + 1)
        background = np.round(rng.normal(size=(n_bg, d)), 1)
        row = np.round(rng.normal(size=d), 1)
        expected = loop_value_table(model, row, background)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(explain, "_CHUNK_ROWS", cap)
            table = coalition_value_table(model, row, background)
        assert np.array_equal(table, expected)

    @pytest.mark.parametrize("d,n_bg,cap", [(8, 24, None), (8, 128, None),
                                            (4, 3, 10), (4, 10, 10), (3, 25, 10),
                                            (2, 7, 1)])
    def test_no_call_exceeds_cap(self, monkeypatch, d, n_bg, cap):
        # no tree walk, over 3 rows, takes more triples than the cap, or than
        # one row and coalition over the whole background when that is larger
        if cap is not None:
            monkeypatch.setattr(explain, "_CHUNK_ROWS", cap)
        cap = explain._CHUNK_ROWS
        walks = record_walks(monkeypatch)
        model = fitted_model("random_forest", d, seed=d)
        rng = np.random.default_rng(n_bg)
        explain.explain_rows(model, rng.normal(size=(3, d)), rng.normal(size=(n_bg, d)))
        assert max(n for _, n in walks) <= max(cap, n_bg)
        # per block of `width` masks a tree walks the 2^k coalitions of its k
        # split features below the width, for every row and background row
        width = min(1 << d, 1 << (max(1, cap // n_bg).bit_length() - 1))
        for tree in model.trees:
            k = sum(1 for f in split_features(tree) if 1 << f < width)
            walked = sum(n for walked_tree, n in walks if walked_tree is tree)
            assert walked == 3 * ((1 << d) // width) * (1 << k) * n_bg

    def test_each_tree_walked_once_over_its_coalitions(self, monkeypatch):
        # 6 rows x 2^8 coalitions x 24 background rows fit one block
        walks = record_walks(monkeypatch)
        model = train_random_forest(np.round(np.random.default_rng(0).normal(size=(200, 8)), 1),
                                    np.arange(200) % 2, depth=3, n_trees=20, seed=0)
        rng = np.random.default_rng(1)
        explain.explain_rows(model, rng.normal(size=(6, 8)), rng.normal(size=(24, 8)))
        assert [id(tree) for tree, _ in walks] == [id(tree) for tree in model.trees]
        for tree, n in walks:
            assert n == 6 * (1 << len(split_features(tree))) * 24


@pytest.mark.parametrize("hand", [False, True])
@pytest.mark.parametrize("d,n_bg,cap", [(8, 24, None), (6, 3, 10), (10, 5, 80), (4, 10, 10)])
def test_each_walk_spans_only_its_trees_block_bits(monkeypatch, hand, d, n_bg, cap):
    # a tree's table has length 2 on each block bit whose feature it splits
    # on and 1 on every other, so it never spans a bit it does not read
    if cap is not None:
        monkeypatch.setattr(explain, "_CHUNK_ROWS", cap)
    pairs = max(1, explain._CHUNK_ROWS // n_bg)
    c = min(d, pairs.bit_length() - 1)
    shapes = record_walks(monkeypatch, np.shape)
    model = hand_model("random_forest", d, seed=d) if hand else fitted_model("boosted", d, seed=d)
    rng = np.random.default_rng(n_bg)
    explain.explain_rows(model, rng.normal(size=(3, d)), rng.normal(size=(n_bg, d)))
    assert {id(tree) for tree, _ in shapes} == {id(tree) for tree in model.trees}
    for tree, shape in shapes:
        used = split_features(tree)
        assert shape[1:] == (*(2 if f in used else 1 for f in reversed(range(c))), n_bg)
        assert 1 <= shape[0] <= max(1, pairs >> c)


def test_model_of_no_features_gives_its_leaf():
    # no feature, so one coalition and zero-width rows the kernel still reshapes
    model = forest([leaf(0.3)], 0)
    table = explain._value_tables(model, np.empty((2, 0)), np.empty((3, 0)))
    assert np.array_equal(table, [[0.3], [0.3]])


def blocked_model(kind, hand, d, seed):
    """``fitted_model`` or ``hand_model``, with a tree that splits on features
    both below 4 and at 4 or above."""
    model = hand_model(kind, d, seed) if hand else fitted_model(kind, d, seed)
    assert any(split_features(tree) & set(range(4)) and split_features(tree) - set(range(4))
               for tree in model.trees)
    return model


@pytest.mark.parametrize("kind,hand,d,seed", [("random_forest", False, 10, 3),
                                              ("boosted", False, 11, 5),
                                              ("random_forest", True, 10, 7),
                                              ("boosted", True, 11, 9)])
def test_wide_model_in_blocks_of_four_bits(monkeypatch, kind, hand, d, seed):
    # 80 triples over 5 background rows: blocks of 2^4 coalitions and one
    # row, so most blocks start above 0 and trees split on features both
    # inside the block bits and above them
    model = blocked_model(kind, hand, d, seed)
    monkeypatch.setattr(explain, "_CHUNK_ROWS", 80)
    rng = np.random.default_rng(seed + 1)
    rows = np.round(rng.normal(size=(2, d)), 1)
    background = np.round(rng.normal(size=(5, d)), 1)
    walks = record_walks(monkeypatch)
    tables = explain._value_tables(model, rows, background)
    assert len(walks) == 2 * (1 << (d - 4)) * len(model.trees)
    assert max(n for _, n in walks) <= 80
    for table, row in zip(tables, rows, strict=True):
        assert np.array_equal(table, loop_value_table(model, row, background))


def record_walks(monkeypatch, measure=np.size):
    """(tree, measure(table)) of every tree walk the explain kernel makes from
    now on; by default the cells of the table the walk returns, one per (row,
    coalition, background row) triple it tells apart."""
    walks = []
    walk = explain._slice_table

    def recording(root, *args):
        table = walk(root, *args)
        walks.append((root, measure(table)))
        return table

    monkeypatch.setattr(explain, "_slice_table", recording)
    return walks


def split_features(node):
    """The set of features a tree splits on."""
    if node.is_leaf:
        return set()
    return {node.feature_index} | split_features(node.left) | split_features(node.right)


def hand_model(kind, d, seed):
    """A model of the tree shapes the kernel must map right: a single leaf, a
    stump, a feature split twice on one path, and a path through every feature."""
    rng = np.random.default_rng(seed)

    def split(feature, left, right):
        return TreeNode(feature_index=feature, threshold=float(np.round(rng.normal(), 1)),
                        impurity_decrease=0.1, sample_fraction=1.0, left=left, right=right)

    def out():
        return leaf(float(rng.uniform(-1, 1) if kind == "boosted" else rng.uniform()))

    f = int(rng.integers(d))
    repeated = split(f, split(f, out(), out()), out())
    chain = out()
    for feature in rng.permutation(d):
        chain = split(int(feature), out(), chain)
    trees = [out(), split(int(rng.integers(d)), out(), out()), repeated, chain]
    if kind == "boosted":
        return TreeEnsembleModel(kind=kind, trees=trees, tree_weights=[0.3] * 4,
                                 feature_names=[f"f{i}" for i in range(d)],
                                 hyperparameters={}, seed=0, base_score=float(rng.normal()))
    return forest(trees, d)


#: Caps with the widest d each is tried at, so a cap of one row stays quick.
CAP_WIDTHS = {1: 6, 5: 8, 24: 10, 300: 10, 1 << 16: 10}


@st.composite
def kernel_cases(draw):
    cap = draw(st.sampled_from(sorted(CAP_WIDTHS)))
    d = draw(st.integers(1, CAP_WIDTHS[cap]))
    return (cap, d, draw(st.sampled_from(["random_forest", "boosted"])),
            draw(st.booleans()), draw(st.integers(1, 4)), draw(st.integers(1, 40)),
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases())
def test_kernel_equals_per_coalition_loop(case):
    cap, d, kind, hand, n_rows, n_bg, seed = case
    model = hand_model(kind, d, seed) if hand else fitted_model(kind, d, seed)
    rng = np.random.default_rng(seed + 1)
    rows = np.round(rng.normal(size=(n_rows, d)), 1)
    background = np.round(rng.normal(size=(n_bg, d)), 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explain, "_CHUNK_ROWS", cap)
        tables = explain._value_tables(model, rows, background)
        batched = explain.explain_rows(model, rows, background)
        single = [shap_values(model, row, background) for row in rows]
    for table, row in zip(tables, rows, strict=True):
        assert np.array_equal(table, loop_value_table(model, row, background))
    for one, alone in zip(batched, single, strict=True):
        assert one.base_value == alone.base_value
        assert np.array_equal(one.shap_values, alone.shap_values)
        assert np.array_equal(one.feature_values, alone.feature_values)


def boundary_cells(model, rng, shape):
    """Cells drawn from the model's thresholds, the floats either side of
    each, signed zeros, NaN and both infinities."""
    thresholds = np.array([node.threshold for node in tree_nodes(model) if not node.is_leaf])
    pool = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf),
                           np.nextafter(thresholds, np.inf),
                           [0.0, -0.0, np.nan, np.inf, -np.inf]])
    return rng.choice(pool, size=shape)


def signed_zero_leaves(model, rng):
    """A copy of ``model`` with about half its leaves, and a boosted model's
    base score, set to -0.0."""
    model = copy.deepcopy(model)
    for node in tree_nodes(model):
        if node.is_leaf and rng.random() < 0.5:
            node.value = -0.0
    if model.kind == "boosted":
        model.base_score = -0.0
    return model


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases(), signed_zeros=st.booleans())
def test_kernel_equals_per_coalition_loop_at_boundaries(case, signed_zeros):
    # cells on a threshold or one ulp from it, NaN and infinities, given
    # straight to explain_rows, go the way predict_proba sends them
    cap, d, kind, hand, n_rows, n_bg, seed = case
    model = hand_model(kind, d, seed) if hand else fitted_model(kind, d, seed)
    rng = np.random.default_rng(seed + 1)
    if signed_zeros:
        model = signed_zero_leaves(model, rng)
    rows = boundary_cells(model, rng, (n_rows, d))
    background = boundary_cells(model, rng, (n_bg, d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explain, "_CHUNK_ROWS", cap)
        tables = explain._value_tables(model, rows, background)
        explanations = explain.explain_rows(model, rows, background)
    for table, exp, row in zip(tables, explanations, rows, strict=True):
        expected = loop_value_table(model, row, background)
        assert np.array_equal(table, expected)
        assert exp.base_value == expected[0]
        assert np.isfinite(exp.shap_values).all()


def walked_proba(model, X):
    """predict_proba's reference: each row walked down each tree alone by
    tree_output, the outputs summed by _ensemble_proba."""
    outputs = (np.array([tree_output(tree, x) for x in X], dtype=float)
               for tree in model.trees)
    return _ensemble_proba(model, outputs, len(X))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["random_forest", "boosted"]), hand=st.booleans(),
       d=st.integers(1, 8), n_rows=st.integers(0, 30), fortran=st.booleans(),
       signed_zeros=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_predict_proba_equals_per_row_walk(kind, hand, d, n_rows, fortran, signed_zeros, seed):
    # an oracle for predict_proba that shares no code with its router, which
    # the explain kernel and its per-coalition reference both go through
    model = hand_model(kind, d, seed) if hand else fitted_model(kind, d, seed)
    rng = np.random.default_rng(seed + 1)
    if signed_zeros:
        model = signed_zero_leaves(model, rng)
    X = boundary_cells(model, rng, (n_rows, d))
    if fortran:
        X = np.asfortranarray(X)
    got = model.predict_proba(X)
    assert got.shape == (n_rows,)
    assert np.array_equal(got, walked_proba(model, X))


@pytest.mark.parametrize("kind", ["random_forest", "boosted"])
def test_cells_on_a_threshold_go_left(kind):
    # x <= 0.5 goes left in predict_proba; so must a row or background cell
    # of exactly 0.5, and NaN (no comparison holds) goes right
    def split(feature, left, right):
        return TreeNode(feature_index=feature, threshold=0.5, impurity_decrease=0.1,
                        sample_fraction=1.0, left=left, right=right)

    tree = split(0, leaf(0.25), split(1, leaf(-0.0), leaf(0.75)))
    if kind == "boosted":
        model = TreeEnsembleModel(kind=kind, trees=[tree], tree_weights=[1.0],
                                  feature_names=["f0", "f1"], hyperparameters={}, seed=0,
                                  base_score=-0.0)
    else:
        model = forest([tree], 2)
    background = np.array([[0.5, 0.0], [np.nextafter(0.5, 1.0), np.nan],
                           [np.nan, np.inf], [np.inf, -np.inf], [-np.inf, 0.5]])
    for row in ([0.5, 0.5], [np.nan, 0.0], [-np.inf, np.inf], [np.nextafter(0.5, 0.0), -0.0]):
        row = np.array(row)
        table = explain._value_tables(model, row.reshape(1, -1), background)[0]
        assert np.array_equal(table, loop_value_table(model, row, background))
        assert explain.explain_rows(model, row.reshape(1, -1), background)[0].base_value \
            == table[0]
