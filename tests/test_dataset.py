"""Labeling, binarization, matrix rows, the k-NN search and k-NN imputation."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressmon import dataset, signals
from stressmon.context import CONTEXT_FEATURE_NAMES, ContextSchema
from stressmon.dataset import (EmaResponse, FeatureMatrix, KnnImputer, binarize,
                               ema_labeler, featurize_windows, knn_impute, nearest_rows,
                               read_ema_csv, read_matrix_csv, write_ema_csv, write_matrix_csv)
from stressmon.errors import DataFormatError, EmptyColumn, OutOfRange
from stressmon.hrv import HRV_FEATURE_NAMES
from stressmon.sim import synth_ppg


def brute_force_impute(values, missing, k=5, weighting="inverse_distance"):
    """Independent exhaustive-distance reimplementation of the imputer."""
    values = np.asarray(values, float)
    n, d = values.shape
    observed = ~missing
    means = np.array([values[observed[:, j], j].mean() for j in range(d)])
    stds = np.array([values[observed[:, j], j].std() for j in range(d)])
    stds = np.where(stds > 0, stds, 1.0)
    working = np.where(missing, means, values)
    z = (working - means) / stds
    out = values.copy()
    for i in range(n):
        if not missing[i].any():
            continue
        dists = np.sqrt(((z - z[i]) ** 2).sum(axis=1))
        order = sorted((dists[r], r) for r in range(n) if r != i)
        nbrs = [r for _, r in order[:min(k, n - 1)]]
        nd = np.array([dists[r] for r in nbrs])
        for j in np.flatnonzero(missing[i]):
            donors = [t for t, r in enumerate(nbrs) if observed[r, j]]
            use = donors if donors else list(range(len(nbrs)))
            w = 1.0 / (nd[use] + 1e-9) if weighting == "inverse_distance" \
                else np.ones(len(use))
            vals = np.array([working[nbrs[t], j] for t in use])
            out[i, j] = float(np.dot(w, vals) / w.sum())
    return out


def _matrix(values, labels=None, groups=None):
    values = np.asarray(values, float)
    n = values.shape[0]
    return FeatureMatrix(
        columns=tuple(f"c{j}" for j in range(values.shape[1])),
        values=values,
        labels=np.asarray(labels, float) if labels is not None else np.full(n, np.nan),
        groups=list(groups) if groups is not None else ["u"] * n,
        window_starts=np.arange(n, dtype=np.int64))


class TestBinarize:
    def test_rule(self):
        assert binarize(1) == 0
        assert binarize(2) == 1
        assert binarize(4) == 1
        assert binarize(5) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binarize(0)
        with pytest.raises(OutOfRange):
            binarize(6)

    def test_reported_distribution(self):
        # label histogram (288, 142, 120, 20, 21) over levels 1..5
        counts = {1: 288, 2: 142, 3: 120, 4: 20, 5: 21}
        levels = [lvl for lvl, c in counts.items() for _ in range(c)]
        binary = [binarize(lvl) for lvl in levels]
        assert binary.count(0) == 288
        assert binary.count(1) == 303


class TestLabelWindows:
    """The labeling rule, :func:`ema_labeler`, that featurize keeps windows by."""

    def test_closest_subsequent(self):
        emas = [EmaResponse("u", 36_000_000 + 20 * 60_000, 3),
                EmaResponse("u", 36_000_000 + 60 * 60_000, 1)]
        label5 = ema_labeler(emas)("u", 36_000_000)
        assert label5 == 3 and binarize(label5) == 1

    def test_after_last_ema_unlabeled(self):
        assert ema_labeler([EmaResponse("u", 50_000_000, 2)])("u", 100_000_000) is None

    def test_exact_boundary_inclusive(self):
        assert ema_labeler([EmaResponse("u", 36_000_000, 5)])("u", 36_000_000) == 5

    def test_horizon(self):
        assert ema_labeler([EmaResponse("u", 9 * 3600 * 1000, 2)])("u", 0) is None

    def test_never_other_user_or_earlier(self):
        rng = np.random.default_rng(3)
        starts = [int(rng.integers(0, 10 ** 7)) for _ in range(30)]
        emas = ([EmaResponse("a", int(rng.integers(0, 10 ** 7)), 2) for _ in range(10)]
                + [EmaResponse("b", int(rng.integers(0, 10 ** 7)), 5) for _ in range(10)])
        a_times = sorted(e.timestamp_ms for e in emas if e.user_id == "a")
        label5 = ema_labeler(emas)
        for start in starts:
            if label5("a", start) is not None:
                assert label5("a", start) == 2  # only user-a EMAs, all level 2
                assert any(t >= start for t in a_times)

    def test_inputs_not_mutated(self):
        emas = [EmaResponse("u", 10, 4), EmaResponse("u", 5, 1)]
        assert ema_labeler(emas)("u", 0) == 1
        assert emas == [EmaResponse("u", 10, 4), EmaResponse("u", 5, 1)]


def _raw(user, start, ppg=None, context=None):
    return signals.RawWindow(user, start, start + signals.WINDOW_MS, ppg=ppg,
                             context=context or {})


class TestAssemble:
    """The matrix rows :func:`featurize_windows` writes, one per window."""

    def test_groups_and_order(self):
        raw = [_raw(u, s) for u in ("u2", "u1") for s in (900_000, 0, 1_800_000)]
        m = featurize_windows(raw, ContextSchema(zones=[]))
        assert m.groups == ["u2"] * 3 + ["u1"] * 3
        assert list(m.window_starts) == [900_000, 0, 1_800_000] * 2
        assert m.columns == tuple(HRV_FEATURE_NAMES) + tuple(CONTEXT_FEATURE_NAMES)
        assert np.isnan(m.labels).all() and m.labeled().n_rows == 0

    def test_missing_hrv_masked(self):
        m = featurize_windows([_raw("u", 0, context={"screen_status": 1.0})],
                              ContextSchema(zones=[]))
        assert np.isnan(m.values[0, :12]).all()
        col = m.columns.index("screen_status")
        assert m.values[0, col] == 1.0 and np.isnan(m.values[0]).sum() == 23

    def test_empty(self):
        m = featurize_windows([], ContextSchema(zones=[]))
        assert m.n_rows == 0 and m.values.shape == (0, 24) and len(m.columns) == 24

    def test_burst_too_short_to_detect_keeps_its_window(self):
        # 100 samples: enough to band-pass, under detect_peaks' 10 s
        burst, _ = synth_ppg(72.0, 5.0, signals.PPG_RATE_HZ, 0.0, seed=0)
        assert len(burst.samples) >= signals.default_design().min_samples
        m = featurize_windows([_raw("u", 0, ppg=burst, context={"screen_status": 1.0}),
                               _raw("u", signals.WINDOW_MS)], ContextSchema(zones=[]))
        assert m.n_rows == 2 and np.isnan(m.values[:, :12]).all()
        assert m.values[0, m.columns.index("screen_status")] == 1.0


class TestLabeledRows:
    def test_keeps_labeled_rows_in_order(self):
        m = _matrix([[1.0], [2.0], [3.0], [4.0]], labels=[np.nan, 1, 0, np.nan],
                    groups=["a", "b", "c", "d"])
        labeled = m.labeled()
        assert labeled.groups == ["b", "c"] and labeled.values[:, 0].tolist() == [2.0, 3.0]
        assert labeled.labels.tolist() == [1.0, 0.0]
        assert labeled.window_starts.tolist() == [1, 2]


def nearest_oracle(z_train, z_query, k, exclude=None):
    """Per-row search: full distance vector, stable order by (distance, row)."""
    idx, dist = [], []
    for i, row in enumerate(z_query):
        d = np.sqrt(((z_train - row) ** 2).sum(axis=1))
        if exclude is not None:
            d[exclude[i]] = np.inf
        order = np.lexsort((np.arange(len(d)), d))[:k]
        idx.append(order)
        dist.append(d[order])
    return np.array(idx).reshape(-1, k), np.array(dist).reshape(-1, k)


@st.composite
def neighbour_cases(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["integer", "duplicate", "float"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "integer":      # few distinct values: many distances tie
        z_train = rng.integers(-1, 2, size=(n, d)).astype(float)
    elif kind == "duplicate":  # repeated rows: exact zero-distance ties
        z_train = rng.normal(size=(max(1, n // 3), d))[rng.integers(0, max(1, n // 3), n)]
    else:
        z_train = rng.normal(size=(n, d))
    self_query = draw(st.booleans())
    if self_query:             # the queries are the training rows themselves
        z_query, exclude = z_train.copy(), np.arange(n)
    else:
        m = draw(st.integers(1, 15))
        z_query = z_train[rng.integers(0, n, m)] if kind != "float" else rng.normal(size=(m, d))
        exclude = rng.integers(0, n, m)
    if not draw(st.booleans()):
        exclude = None
    k = draw(st.sampled_from([1, max(1, n - 1), n]))
    # Block sizes: one query row per block, a size that is no multiple of
    # n * d (so the last block is partial), and the default.
    cells = draw(st.sampled_from([1, n * d * draw(st.integers(1, 4)) + draw(
        st.integers(1, max(1, n * d - 1))), dataset._BLOCK_CELLS]))
    return z_train, z_query, k, exclude, cells


class TestNearestRows:
    @settings(max_examples=300, deadline=None)
    @given(neighbour_cases())
    def test_matches_per_row_oracle(self, case):
        z_train, z_query, k, exclude, cells = case
        with mock.patch.object(dataset, "_BLOCK_CELLS", cells):
            idx, dist = nearest_rows(z_train, z_query, k, exclude=exclude)
        want_idx, want_dist = nearest_oracle(z_train, z_query, k, exclude)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_ties_to_lower_row(self):
        z_train = np.array([[1.0], [-1.0], [1.0], [0.0]])
        idx, dist = nearest_rows(z_train, np.array([[0.0], [0.0]]), 3,
                                 exclude=np.array([3, 0]))
        assert idx.tolist() == [[0, 1, 2], [3, 1, 2]]
        assert dist.tolist() == [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]


class TestKnnImpute:
    def test_complete_unchanged(self):
        m = _matrix([[1.0, 2.0], [3.0, 4.0]])
        out = knn_impute(m, k=1)
        assert np.array_equal(out.values, m.values)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(12, 4))
        vals[rng.random(vals.shape) < 0.25] = np.nan
        once = knn_impute(_matrix(vals), k=3)
        twice = knn_impute(once, k=3)
        assert np.array_equal(once.values, twice.values)

    def test_spec_mini_example(self):
        vals = np.array([[1.0, 2.0], [1.0, 4.0], [9.0, np.nan]])
        out = knn_impute(_matrix(vals), k=2)
        expect = brute_force_impute(vals, np.isnan(vals), k=2)
        assert out.values[2, 1] == pytest.approx(expect[2, 1], abs=1e-9)

    def test_empty_column(self):
        vals = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(EmptyColumn):
            knn_impute(_matrix(vals))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n, d = int(rng.integers(4, 30)), int(rng.integers(2, 8))
            vals = rng.normal(size=(n, d)) * rng.uniform(0.5, 20, size=d)
            miss = rng.random((n, d)) < 0.2
            miss[:, rng.integers(0, d)] = False  # keep one column complete
            for j in range(d):                   # every column needs data
                if miss[:, j].all():
                    miss[0, j] = False
            vals = np.where(miss, np.nan, vals)
            k = int(rng.integers(1, 6))
            weighting = ("uniform", "inverse_distance")[trial % 2]
            got = knn_impute(_matrix(vals), k=k, weighting=weighting)
            expect = brute_force_impute(vals, miss, k=k, weighting=weighting)
            assert np.nanmax(np.abs(got.values - expect)) <= 1e-9

    def test_convex_bounds(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(-5, 5, size=(30, 5))
        miss = rng.random(vals.shape) < 0.2
        vals_nan = np.where(miss, np.nan, vals)
        out = knn_impute(_matrix(vals_nan), k=4)
        for j in range(5):
            observed = vals_nan[~miss[:, j], j]
            filled = out.values[miss[:, j], j]
            if filled.size:
                assert filled.min() >= observed.min() - 1e-12
                assert filled.max() <= observed.max() + 1e-12

    def test_transform_new_rows(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(20, 3))
        imputer = KnnImputer(k=3).fit(train, np.zeros_like(train, dtype=bool))
        test = rng.normal(size=(4, 3))
        test_missing = np.zeros_like(test, dtype=bool)
        test_missing[0, 1] = True
        test = np.where(test_missing, np.nan, test)
        out = imputer.transform(test, test_missing)
        assert not np.isnan(out).any()
        assert np.array_equal(out[1:], test[1:])


class TestCsvFormats:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(6, 24))
        vals[0, 3] = np.nan
        m = FeatureMatrix(columns=tuple(HRV_FEATURE_NAMES) + tuple(CONTEXT_FEATURE_NAMES),
                          values=vals,
                          labels=np.array([0, 1, np.nan, 1, 0, 1], float),
                          groups=["a"] * 3 + ["b"] * 3,
                          window_starts=np.arange(6, dtype=np.int64) * 900_000)
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.columns == m.columns
        assert np.array_equal(np.isnan(back.values), np.isnan(m.values))
        assert np.allclose(back.values[~np.isnan(m.values)],
                           m.values[~np.isnan(m.values)])
        assert back.groups == m.groups
        assert (tmp_path / "m.csv.meta.json").exists()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
           st.integers(0, 2 ** 63 - 1))
    def test_every_written_number_reads_back_bit_for_bit(self, tmp_path_factory, cells, start):
        # repr(float) writes exponents, -0.0 and subnormals; the reader takes them all
        m = FeatureMatrix(columns=tuple(f"c{j}" for j in range(len(cells))),
                          values=np.array([cells]), labels=np.array([1.0]), groups=["u"],
                          window_starts=np.array([start], dtype=np.int64))
        path = tmp_path_factory.mktemp("m") / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.values.view(np.int64).tolist() == m.values.view(np.int64).tolist()
        assert back.window_starts.tolist() == [start]

    def test_empty_matrix_roundtrip(self, tmp_path):
        m = featurize_windows([], ContextSchema(zones=[]))
        path = tmp_path / "empty.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.n_rows == 0 and len(back.columns) == 24

    def test_ema_roundtrip(self, tmp_path):
        path = tmp_path / "ema.csv"
        emas = [EmaResponse("u1", 1000, 3), EmaResponse("u2", 2000, 1)]
        write_ema_csv(path, emas)
        back = read_ema_csv(path)
        assert back == emas

    def test_bad_ema_row(self, tmp_path):
        path = tmp_path / "ema.csv"
        path.write_text("timestamp_ms,user_id,stress_level\n100,u1,9\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            read_ema_csv(path)
