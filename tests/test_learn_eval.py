"""F1, k-NN classifier, grouped cross-validation, personalization."""
import numpy as np
import pytest

from stressmon.dataset import FeatureMatrix
from stressmon.errors import (InsufficientTargetData, KTooLarge,
                              LengthMismatch, TooFewGroups)
from stressmon.learn import (ModelSpec, f1_score, grouped_cv,
                             personalization_eval, split_users_into_folds,
                             train_knn)
from stressmon.learn.evaluate import _auto_select


def make_grouped_classification(n_users=10, rows_per_user=40, d=6, seed=0,
                                informative=(0, 1), noise=0.3):
    """Separable per-user data with shared informative features.

    Returns (X, y, groups) where y depends on the sum of the informative
    columns, identically for every user.
    """
    rng = np.random.default_rng(seed)
    X, y, groups = [], [], []
    for u in range(n_users):
        Xu = rng.normal(size=(rows_per_user, d))
        score = Xu[:, list(informative)].sum(axis=1) + rng.normal(0, noise, rows_per_user)
        X.append(Xu)
        y.append((score > 0).astype(int))
        groups.extend([f"user{u:02d}"] * rows_per_user)
    return np.vstack(X), np.concatenate(y), groups


def as_matrix(X, y, groups):
    X = np.asarray(X, float)
    return FeatureMatrix(columns=tuple(f"c{j}" for j in range(X.shape[1])),
                         values=X,
                         labels=np.asarray(y, float), groups=list(groups),
                         window_starts=np.arange(len(y), dtype=np.int64))


class TestF1:
    def test_perfect(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert f1_score([1, 0, 1], [0, 1, 0]) == 0.0

    def test_formula(self):
        # TP=2 FP=1 FN=1 -> P=2/3 R=2/3 -> F1=2/3
        assert f1_score([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            f1_score([1, 0], [1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        perm = rng.permutation(50)
        assert f1_score(y_true, y_pred) == f1_score(y_true[perm], y_pred[perm])


class TestKnnModel:
    def test_k1_memorizes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        model = train_knn(X, y, k=1)
        assert np.array_equal(model.predict(X), y)

    def test_k_equals_n_majority(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        model = train_knn(X, y, k=10)
        assert np.all(model.predict(rng.normal(size=(5, 2))) == 1)

    def test_two_clusters(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-3, 0.5, size=(60, 2)),
                       rng.normal(3, 0.5, size=(60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        model = train_knn(X, y, k=5)
        assert f1_score(y, model.predict(X)) >= 0.95

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            train_knn(np.zeros((4, 2)), [0, 1, 0, 1], k=5)

    def test_vote_tie_goes_to_zero(self):
        X = np.array([[0.0], [2.0]])
        model = train_knn(X, [0, 1], k=2)
        assert model.predict([[1.0]])[0] == 0

    def test_matches_per_row_loop_on_ties(self):
        # integer rows repeat, so many distances tie; the lower row index wins
        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(40, 2)).astype(float)
        y = rng.integers(0, 2, 40)
        Q = rng.integers(0, 3, size=(15, 2)).astype(float)
        for k in (1, 4, 7):
            model = train_knn(X, y, k=k)
            votes = []
            for row in (Q - model.mean) / model.std:
                d = np.sqrt(((model.z_train - row) ** 2).sum(axis=1))
                nbrs = np.lexsort((np.arange(len(d)), d))[:k]
                votes.append(1 if 2 * int(y[nbrs].sum()) > k else 0)
            assert np.array_equal(model.predict(Q), votes)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50)
        Q = rng.normal(size=(20, 4))
        scale = np.array([3.0, -0.5, 10.0, 0.01])
        shift = np.array([5.0, -2.0, 0.0, 100.0])
        a = train_knn(X, y, k=5).predict(Q)
        b = train_knn(X * scale + shift, y, k=5).predict(Q * scale + shift)
        assert np.array_equal(a, b)


class TestFoldSplitting:
    def test_partition(self):
        users = [f"u{i}" for i in range(13)]
        folds = split_users_into_folds(users, 5, seed=3)
        flat = [u for part in folds for u in part]
        assert sorted(flat) == sorted(users)
        assert all(len(part) >= 1 for part in folds)

    def test_deterministic(self):
        users = [f"u{i}" for i in range(9)]
        assert split_users_into_folds(users, 4, 7) == split_users_into_folds(users, 4, 7)

    def test_too_few(self):
        with pytest.raises(TooFewGroups):
            split_users_into_folds(["a", "b"], 5, 0)


class TestGroupedCv:
    def test_no_user_overlap_and_report(self):
        X, y, groups = make_grouped_classification(n_users=8, seed=5)
        report = grouped_cv(as_matrix(X, y, groups), ModelSpec(kind="rf", depth=3),
                            folds=5, seed=1)
        assert len(report.folds) == 5
        seen = [u for f in report.folds for u in f.test_users]
        assert sorted(seen) == sorted(set(groups))
        assert report.mean_f1 == pytest.approx(np.mean(report.fold_f1s))

    def test_strong_signal_f1(self):
        X, y, groups = make_grouped_classification(n_users=10, rows_per_user=60,
                                                   seed=6, noise=0.1)
        report = grouped_cv(as_matrix(X, y, groups), ModelSpec(kind="rf", depth=3),
                            folds=5, seed=2)
        assert report.mean_f1 >= 0.9

    def test_determinism(self):
        X, y, groups = make_grouped_classification(n_users=7, seed=7)
        spec = ModelSpec(kind="rf", depth=3, select_top=3)
        r1 = grouped_cv(as_matrix(X, y, groups), spec, folds=5, seed=4)
        r2 = grouped_cv(as_matrix(X, y, groups), spec, folds=5, seed=4)
        assert r1.to_dict() == r2.to_dict()

    def test_too_few_groups(self):
        X, y, groups = make_grouped_classification(n_users=3, seed=8)
        with pytest.raises(TooFewGroups):
            grouped_cv(as_matrix(X, y, groups), ModelSpec(kind="rf"), folds=5)

    @pytest.mark.parametrize("kind", ["knn", "boosted"])
    def test_other_models_run(self, kind):
        X, y, groups = make_grouped_classification(n_users=6, rows_per_user=30,
                                                   seed=9, noise=0.1)
        spec = ModelSpec(kind=kind, k=3, rounds=20, depth=2)
        report = grouped_cv(as_matrix(X, y, groups), spec, folds=5, seed=0)
        assert report.mean_f1 >= 0.8

    def test_select_top_restricts_features(self):
        X, y, groups = make_grouped_classification(n_users=6, d=8, seed=10,
                                                   noise=0.1)
        spec = ModelSpec(kind="rf", depth=3, select_top=2)
        report = grouped_cv(as_matrix(X, y, groups), spec, folds=5, seed=1)
        for fold in report.folds:
            assert len(fold.selected_features) == 2

    def test_auto_select_runs(self):
        X, y, groups = make_grouped_classification(n_users=6, d=6, seed=11,
                                                   noise=0.1)
        spec = ModelSpec(kind="rf", depth=3, n_trees=20, select_top="auto")
        report = grouped_cv(as_matrix(X, y, groups), spec, folds=3, seed=1)
        for fold in report.folds:
            assert 4 <= len(fold.selected_features) <= 6

    def test_report_files(self, tmp_path):
        X, y, groups = make_grouped_classification(n_users=6, seed=12)
        report = grouped_cv(as_matrix(X, y, groups), ModelSpec(kind="rf", depth=2),
                            folds=3, seed=0)
        report.write(tmp_path / "r.json", tmp_path / "r.csv")
        import json
        rec = json.loads((tmp_path / "r.json").read_text())
        assert len(rec["folds"]) == 3 and "mean_f1" in rec
        assert (tmp_path / "r.csv").read_text().startswith("fold,")


def label_set_by_last_two(n_rows, d, n_users, seed):
    """(X, y, groups): y is 1 where the last two of d normal columns sum above 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, d))
    return X, (X[:, -2] + X[:, -1] > 0).astype(int), [f"u{i % n_users}" for i in range(n_rows)]


class TestAutoSelect:
    """``--select-top auto`` keeps the top of the selection forest's ranking."""

    SPEC = ModelSpec(kind="rf", depth=3, n_trees=20, select_top="auto")

    def test_few_users_keep_the_top_four_of_the_ranking(self):
        # fewer than 3 users: no tuning, the four best-ranked columns
        X, y, groups = label_set_by_last_two(240, 8, 2, seed=0)
        selected = _auto_select(X, y, groups, self.SPEC, 0)
        assert len(selected) == 4 and selected == sorted(selected)
        assert {6, 7} <= set(selected)

    @pytest.mark.parametrize("seed", range(5))
    def test_tuning_tries_prefixes_of_the_ranking(self, seed):
        X, y, groups = label_set_by_last_two(360, 12, 6, seed)
        selected = _auto_select(X, y, groups, self.SPEC, seed)
        assert selected == sorted(selected)
        assert {10, 11} <= set(selected) and len(selected) < 12


class TestPersonalization:
    def test_no_personal_signal_small_change(self):
        X, y, groups = make_grouped_classification(n_users=8, rows_per_user=60,
                                                   seed=13, noise=0.2)
        res = personalization_eval(as_matrix(X, y, groups), "user03",
                                   ModelSpec(kind="rf", depth=3), seed=1)
        assert abs(res.f1_after - res.f1_before) <= 0.15

    def test_shifted_user_benefits(self):
        # all users share y = x0 > 0, the target uses y = x0 > 0 XOR x1-flag
        rng = np.random.default_rng(14)
        X, y, groups = [], [], []
        for u in range(7):
            Xu = rng.normal(size=(80, 4))
            yu = (Xu[:, 0] > 0).astype(int)
            if u == 6:
                Xu[:, 3] = 5.0 + rng.normal(0, 0.3, 80)   # exclusive region marker
                yu = 1 - yu                               # inverted personal rule
            X.append(Xu)
            y.append(yu)
            groups.extend([f"user{u:02d}"] * 80)
        matrix = as_matrix(np.vstack(X), np.concatenate(y), groups)
        res = personalization_eval(matrix, "user06",
                                   ModelSpec(kind="boosted", rounds=60, depth=3),
                                   seed=2)
        assert res.f1_after > res.f1_before

    def test_insufficient_target(self):
        X, y, groups = make_grouped_classification(n_users=4, rows_per_user=10,
                                                   seed=15)
        matrix = as_matrix(X, y, groups)
        with pytest.raises(InsufficientTargetData):
            personalization_eval(matrix, "ghost", ModelSpec(kind="rf"), seed=0)

    def test_report_schema(self):
        X, y, groups = make_grouped_classification(n_users=5, seed=16)
        res = personalization_eval(as_matrix(X, y, groups), "user01",
                                   ModelSpec(kind="rf", depth=2), seed=0)
        assert set(res.to_dict()) == {"user", "f1_before", "f1_after"}
