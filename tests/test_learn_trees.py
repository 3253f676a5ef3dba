"""Forest, boosting, importances and feature selection."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressmon.errors import DegenerateLabels, EmptySelection
from stressmon.learn import (TreeEnsembleModel, TreeNode, gini_importance,
                             model_from_dict, model_to_dict,
                             select_top_features, train_boosted,
                             train_random_forest)
from stressmon.learn.evaluate import f1_score


def separable(n=200, d=4, seed=0, feature=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return X, (X[:, feature] > 0).astype(int)


class TestRandomForest:
    def test_separable_training_f1(self):
        X, y = separable()
        model = train_random_forest(X, y, depth=3, n_trees=30, seed=1)
        assert f1_score(y, model.predict(X)) == 1.0

    def test_determinism(self):
        X, y = separable(seed=2)
        q = np.random.default_rng(3).normal(size=(60, 4))
        a = train_random_forest(X, y, depth=4, n_trees=20, seed=9)
        b = train_random_forest(X, y, depth=4, n_trees=20, seed=9)
        assert np.array_equal(a.predict(q), b.predict(q))
        assert np.array_equal(a.predict_proba(q), b.predict_proba(q))

    def test_informative_feature_dominates(self):
        X, y = separable(n=400, d=6, seed=4, feature=2)
        model = train_random_forest(X, y, depth=4, n_trees=40, seed=0)
        ranked = gini_importance(model)
        assert ranked[0][0] == 2
        assert ranked[0][1] > ranked[1][1]

    def test_degenerate_labels_flagged(self):
        X = np.random.default_rng(5).normal(size=(30, 3))
        with pytest.warns(DegenerateLabels):
            model = train_random_forest(X, np.ones(30, dtype=int), depth=3)
        assert model.degenerate
        assert np.all(model.predict(X) == 1)

    def test_input_validation(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train_random_forest(np.where(X > 2, np.nan, X), y, depth=3)
        with pytest.raises(ValueError):
            train_random_forest(X, y + 1, depth=3)
        with pytest.raises(ValueError):
            train_random_forest(X, y, depth=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(1, 12),
           depth=st.integers(1, 6), data=st.data())
    def test_first_trees_equal_a_smaller_forest(self, seed, n_trees, depth, data):
        # trees grow together, each from its own (seed, tree) stream: a tree
        # is the same whatever the number of trees grown beside it
        t = data.draw(st.integers(1, n_trees))
        X, y = separable(n=90, d=7, seed=8)
        X[:, 1] = np.round(X[:, 1])
        y[::7] = 1 - y[::7]
        big = model_to_dict(train_random_forest(X, y, depth=depth, n_trees=n_trees, seed=seed))
        small = model_to_dict(train_random_forest(X, y, depth=depth, n_trees=t, seed=seed))
        assert big["trees"][:t] == small["trees"]

    def test_prediction_invariant_to_tree_order(self):
        X, y = separable(seed=6)
        model = train_random_forest(X, y, depth=3, n_trees=15, seed=2)
        p1 = model.predict_proba(X)
        model.trees = list(reversed(model.trees))
        p2 = model.predict_proba(X)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_one_row_given_as_a_vector_is_rejected(self):
        # a row's d values are not read as d rows of one value each
        X, y = separable(seed=6)
        model = train_random_forest(X, y, depth=3, n_trees=3, seed=2)
        with pytest.raises(IndexError):
            model.predict_proba(X[0])


class TestGiniImportance:
    def test_unused_feature_zero(self):
        X, y = separable(n=300, d=5, seed=7, feature=1)
        X[:, 4] = 0.0  # constant, can never split
        model = train_random_forest(X, y, depth=3, n_trees=25, seed=1)
        imp = dict(gini_importance(model))
        assert imp[4] == 0.0

    def test_sums_to_one(self):
        X, y = separable(seed=8)
        model = train_random_forest(X, y, depth=4, n_trees=10, seed=3)
        total = sum(v for _, v in gini_importance(model))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_stump_importance_one(self):
        stump = TreeNode(feature_index=3, threshold=0.5, impurity_decrease=0.25,
                         sample_fraction=1.0,
                         left=TreeNode(class_counts=(5, 0), value=0.0,
                                       sample_fraction=0.5),
                         right=TreeNode(class_counts=(0, 5), value=1.0,
                                        sample_fraction=0.5))
        model = TreeEnsembleModel(kind="random_forest", trees=[stump],
                                  tree_weights=[1.0],
                                  feature_names=[f"f{i}" for i in range(6)],
                                  hyperparameters={}, seed=0)
        ranked = gini_importance(model)
        assert ranked[0] == (3, 1.0)
        assert all(v == 0.0 for _, v in ranked[1:])


class TestSelectTop:
    def test_all_features(self):
        X, y = separable(d=5)
        assert select_top_features(X, y, 5, seed=0) == [0, 1, 2, 3, 4]

    def test_informative_pair_found(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(500, 10))
        y = ((X[:, 2] + X[:, 7]) > 0).astype(int)
        picked = select_top_features(X, y, 2, seed=1)
        assert picked == [2, 7]

    def test_zero_selection(self):
        X, y = separable()
        with pytest.raises(EmptySelection):
            select_top_features(X, y, 0)

    def test_too_many(self):
        X, y = separable(d=4)
        with pytest.raises(ValueError):
            select_top_features(X, y, 5)


class TestBoosted:
    def test_single_stump_monotone(self):
        X, y = separable(n=100, seed=10)
        model = train_boosted(X, y, rounds=1, depth=1, learning_rate=0.5, seed=0)
        scores = model.predict_proba(X)
        assert scores[y == 1].min() > scores[y == 0].max()

    def test_log_loss_non_increasing(self):
        X, y = separable(n=150, seed=11)
        losses = []
        for rounds in (1, 5, 20, 60):
            model = train_boosted(X, y, rounds=rounds, depth=2,
                                  learning_rate=0.1, seed=0)
            p = np.clip(model.predict_proba(X), 1e-12, 1 - 1e-12)
            losses.append(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_xor(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = train_boosted(X, y, rounds=50, depth=3, learning_rate=0.3, seed=0)
        assert f1_score(y, model.predict(X)) >= 0.95

    def test_summation_order_stability(self):
        X, y = separable(seed=13)
        model = train_boosted(X, y, rounds=20, depth=2, learning_rate=0.3, seed=0)
        p1 = model.predict_proba(X)
        model.trees = list(reversed(model.trees))
        model.tree_weights = list(reversed(model.tree_weights))
        p2 = model.predict_proba(X)
        assert np.max(np.abs(p1 - p2)) < 1e-9

    def test_degenerate(self):
        X = np.random.default_rng(14).normal(size=(20, 2))
        with pytest.warns(DegenerateLabels):
            model = train_boosted(X, np.zeros(20, dtype=int), rounds=5, depth=2)
        assert np.all(model.predict(X) == 0)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["random_forest", "boosted"])
    def test_roundtrip(self, kind):
        X, y = separable(seed=15)
        if kind == "random_forest":
            model = train_random_forest(X, y, depth=4, n_trees=10, seed=5)
        else:
            model = train_boosted(X, y, rounds=15, depth=3, seed=5)
        clone = model_from_dict(model_to_dict(model))
        q = np.random.default_rng(16).normal(size=(40, 4))
        assert np.array_equal(model.predict(q), clone.predict(q))
        assert np.allclose(model.predict_proba(q), clone.predict_proba(q), atol=0)
        assert gini_importance(model) == gini_importance(clone)

    def test_json_safe(self):
        import json
        X, y = separable(seed=17)
        model = train_random_forest(X, y, depth=2, n_trees=3, seed=1)
        text = json.dumps(model_to_dict(model))
        clone = model_from_dict(json.loads(text))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_boosted_leaf_output_is_read_from_value_only(self):
        X, y = separable(seed=18)
        rec = model_to_dict(train_boosted(X, y, rounds=2, depth=1, seed=1))
        leaf = rec["trees"][0]["left"]
        leaf["probability"] = leaf.pop("value")
        with pytest.raises(ValueError, match="value must be a finite number"):
            model_from_dict(rec)


class TestGoldenModels:
    """Fits whose JSON must not change while the split search is reworked.

    The digests were recorded with the per-feature scanners; a slip in the
    tie order of a sort or partition changes a threshold or a leaf and so
    the digest.
    """

    RF_SHA256 = "1f3baefa25102d56943bec0e4fc5553602caea4e479a6605f07c917393d06973"
    BOOSTED_SHA256 = "76df137c3f80447f10cfb5b55fb9417fcb382e208cbb5a75bddc51bdc305292c"

    @staticmethod
    def golden_matrix():
        rng = np.random.default_rng(20240110)
        n, d = 300, 24
        X = rng.normal(size=(n, d))
        X[:, 0::3] = np.round(X[:, 0::3] * 2) / 2      # coarse grid: many ties
        X[:, 1::4] = rng.integers(0, 4, size=(n, 6))     # small integer codes
        X[:, 23] = 1.0                                   # constant column
        y = ((X[:, 0] + X[:, 5] + 0.5 * rng.normal(size=n)) > 0).astype(int)
        return X, y

    @staticmethod
    def digest(model):
        import hashlib
        import json
        text = json.dumps(model_to_dict(model), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_random_forest(self):
        X, y = self.golden_matrix()
        model = train_random_forest(X, y, depth=6, n_trees=20, seed=3)
        assert self.digest(model) == self.RF_SHA256

    def test_boosted(self):
        X, y = self.golden_matrix()
        model = train_boosted(X, y, rounds=20, depth=4, seed=3)
        assert self.digest(model) == self.BOOSTED_SHA256

    #: model_to_dict JSON (sort_keys) of one-label fits on a 4 x 2 matrix, as
    #: written when the forest and boosted constant models were built apart.
    DEGENERATE_JSON = {
        ("random_forest", 1):
            '{"base_score": 0.0, "degenerate": true, "feature_names": ["f0", "f1"],'
            ' "hyperparameters": {"depth": 3, "n_trees": 7}, "kind": "random_forest",'
            ' "seed": 5, "tree_weights": [1.0], "trees": [{"class_counts": [0, 4],'
            ' "leaf": true, "probability": 1.0, "sample_fraction": 1.0}]}',
        ("boosted", 1):
            '{"base_score": 4.59511985013459, "degenerate": true,'
            ' "feature_names": ["f0", "f1"], "hyperparameters": {"depth": 2,'
            ' "learning_rate": 0.3, "rounds": 4}, "kind": "boosted", "seed": 5,'
            ' "tree_weights": [1.0], "trees": [{"class_counts": [0, 4], "leaf": true,'
            ' "sample_fraction": 1.0, "value": 0.0}]}',
        ("random_forest", 0):
            '{"base_score": 0.0, "degenerate": true, "feature_names": ["f0", "f1"],'
            ' "hyperparameters": {"depth": 3, "n_trees": 7}, "kind": "random_forest",'
            ' "seed": 5, "tree_weights": [1.0], "trees": [{"class_counts": [4, 0],'
            ' "leaf": true, "probability": 0.0, "sample_fraction": 1.0}]}',
        ("boosted", 0):
            '{"base_score": -4.59511985013459, "degenerate": true,'
            ' "feature_names": ["f0", "f1"], "hyperparameters": {"depth": 2,'
            ' "learning_rate": 0.3, "rounds": 4}, "kind": "boosted", "seed": 5,'
            ' "tree_weights": [1.0], "trees": [{"class_counts": [4, 0], "leaf": true,'
            ' "sample_fraction": 1.0, "value": 0.0}]}',
    }

    @pytest.mark.parametrize("kind,label", sorted(DEGENERATE_JSON))
    def test_degenerate(self, kind, label):
        import json
        X, y = np.arange(8.0).reshape(4, 2), np.full(4, label)
        with pytest.warns(DegenerateLabels):
            model = (train_random_forest(X, y, depth=3, n_trees=7, seed=5)
                     if kind == "random_forest"
                     else train_boosted(X, y, rounds=4, depth=2, seed=5))
        text = json.dumps(model_to_dict(model), sort_keys=True)
        assert text == self.DEGENERATE_JSON[kind, label]
