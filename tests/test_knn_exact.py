"""The k-NN kernels against their per-row and per-cell definitions, bit for bit.

``nearest_rows`` screens candidates with a rounding bound before it
recomputes their distances exactly, and ``KnnImputer.transform`` fills every
missing cell in one grouped pass.  Both must give what the exhaustive
per-row search and the per-cell loop below give, with ``np.array_equal``.
The cases here are the ones where the bound, the packing of donors and the
order of the weight sum decide the result.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from stressmon import dataset
from stressmon.dataset import KnnImputer, nearest_rows
from stressmon.learn import train_knn
from test_dataset import nearest_oracle


def fill_oracle(imputer, values, missing, exclude=None):
    """``imputer.transform`` as one loop over the missing cells.

    Reads only the fitted ``z_``, ``working_`` and ``train_missing_`` (and
    the column scaling); neighbours come from the exhaustive per-row search.
    Returns the completed copy and, per filled cell, how many donors it used.
    """
    out = np.array(values, dtype=float)
    used = []
    if not missing.any():
        return out, used
    n = imputer.z_.shape[0]
    k_eff = max(1, min(imputer.k, n - (1 if exclude is not None else 0)))
    z = (np.where(missing, imputer.col_means_, values) - imputer.col_means_) / imputer.col_stds_
    todo = np.flatnonzero(missing.any(axis=1))
    neighbours, distances = nearest_oracle(
        imputer.z_, z[todo], k_eff, None if exclude is None else np.asarray(exclude)[todo])
    for i, nbrs, dists in zip(todo, neighbours, distances):
        for j in np.flatnonzero(missing[i]):
            donors = ~imputer.train_missing_[nbrs, j]
            use = np.flatnonzero(donors) if donors.any() else np.arange(len(nbrs))
            if imputer.weighting == "inverse_distance":
                w = 1.0 / (dists[use] + 1e-9)
            else:
                w = np.ones(len(use))
            vals = imputer.working_[nbrs[use], j]
            out[i, j] = float(np.dot(w, vals) / w.sum())
            used.append(len(use) if donors.any() else -len(use))  # < 0: fallback
    return out, used


@st.composite
def imputer_cases(draw):
    """A fit matrix with holes, a k of 1..24 and rows to complete.

    Column missing rates run from none to almost all, so cells use anything
    from one donor to all k (16 and more run the dot kernel's SIMD lanes),
    some fall back to every neighbour, and rows miss several cells.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 48))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 24))
    if draw(st.booleans()):  # few distinct values: tied distances
        values = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        values = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 3, size=d)
    rates = rng.choice([0.0, 0.05, 0.3, 0.9], size=d)
    missing = rng.random((n, d)) < rates
    missing[rng.integers(0, n, d), np.arange(d)] = False  # one observed value a column
    weighting = draw(st.sampled_from(["uniform", "inverse_distance"]))
    if draw(st.booleans()):  # the fit rows themselves, each excluding its own
        query, query_missing, exclude = values, missing, np.arange(n)
    else:
        m = draw(st.integers(1, 12))
        query = rng.normal(size=(m, d)) * values.std(axis=0) + values.mean(axis=0)
        query_missing = rng.random((m, d)) < 0.5
        exclude = None
    return values, missing, k, weighting, query, query_missing, exclude


def check_fill(values, missing, k, weighting, query, query_missing, exclude):
    imputer = KnnImputer(k=k, weighting=weighting).fit(np.where(missing, np.nan, values),
                                                       missing)
    query = np.where(query_missing, np.nan, query)
    got = imputer.transform(query, query_missing, exclude=exclude)
    want, used = fill_oracle(imputer, query, query_missing, exclude)
    assert np.array_equal(got, want)
    return used


class TestBatchedFill:
    @settings(max_examples=300, deadline=None)
    @given(imputer_cases())
    def test_transform_equals_per_cell_loop(self, case):
        check_fill(*case)

    def test_cases_reach_wide_fallback_and_short_neighbour_lists(self):
        """The regimes the property is meant to cover, each met on purpose."""
        rng = np.random.default_rng(11)
        n, d = 40, 5
        values = rng.normal(size=(n, d)) * [1.0, 30.0, 0.01, 5.0, 1e3]
        missing = np.zeros((n, d), dtype=bool)
        missing[0, 3] = True                      # a cell whose every neighbour donates
        missing[1:, 4] = True                     # one donor in the whole column
        missing[rng.random(n) < 0.5, 2] = True    # rows with several holes
        for weighting in ("uniform", "inverse_distance"):
            used = check_fill(values, missing, 24, weighting, values, missing, np.arange(n))
            assert max(used) >= 16                # wide donor blocks
            assert min(used) < 0                  # all donors missing: fallback
            assert (missing.sum(axis=1) >= 2).any()
            # k above the other rows' count: every list is n - 1 = 8 long
            used = check_fill(values[:9], missing[:9], 24, weighting, values[:9],
                              missing[:9], np.arange(9))
            assert max(map(abs, used)) == 8
            used = check_fill(values, missing, 24, weighting,
                              values[:6] + 0.5, missing[:6], None)
            assert used


def screen_case(kind, rng, n, d):
    """Training rows whose k-NN order hinges on the last bits of a distance."""
    if kind == "ulp":
        # Rows one ulp apart in one coordinate: distances tie or differ in
        # their last bit, and the cancellation in |q|^2 + |z|^2 - 2 q.z
        # is of the same size.
        base = rng.normal(size=d) * 10.0 ** rng.integers(0, 4)
        z_train = np.tile(base, (n, 1))
        steps = rng.integers(-3, 4, size=n)
        col = rng.integers(0, d)
        z_train[:, col] = [base[col] + s * np.spacing(base[col]) for s in steps]
        z_query = np.tile(base, (int(rng.integers(1, 6)), 1))
        z_query[:, col] += rng.integers(-2, 3, size=len(z_query)) * np.spacing(base[col])
    elif kind == "large_norm":
        # |z| of 1e6..1e8 with separations of 1e-3..1: the estimate's
        # cancellation error dwarfs the gaps it has to order.
        offset = 10.0 ** rng.uniform(6, 8, size=d)
        z_train = offset + rng.integers(-3, 4, size=(n, d)) * 10.0 ** rng.uniform(-3, 0)
        z_query = offset + rng.normal(size=(int(rng.integers(1, 6)), d))
    else:  # duplicate: exact zero-distance and equal-distance ties
        # Repeated points of a shifted lattice: many rows at one distance,
        # each reached through a differently rounded estimate.
        lattice = rng.integers(-2, 3, size=(max(1, n // 3), d)) * rng.uniform(0.1, 3)
        distinct = lattice + rng.normal(size=d) * 10.0 ** rng.integers(0, 5)
        z_train = distinct[rng.integers(0, len(distinct), n)]
        z_query = z_train[rng.integers(0, n, int(rng.integers(1, 6)))]
    return z_train, z_query


@st.composite
def screen_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["ulp", "large_norm", "duplicate"]))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 26))
    z_train, z_query = screen_case(kind, rng, n, d)
    exclude = None
    if draw(st.booleans()):  # the training rows as queries, k = n
        z_query, exclude, k = z_train.copy(), np.arange(n), n
    else:
        k = draw(st.sampled_from([1, min(2, n), min(3, n), max(1, n // 2), n]))
    cells = draw(st.sampled_from([1, n * draw(st.integers(1, 3)) + 1, dataset._BLOCK_CELLS]))
    return z_train, z_query, k, exclude, cells


class TestScreenedSearch:
    @settings(max_examples=400, deadline=None)
    @given(screen_cases())
    def test_screen_keeps_every_true_neighbour(self, case):
        z_train, z_query, k, exclude, cells = case
        with mock.patch.object(dataset, "_BLOCK_CELLS", cells):
            idx, dist = nearest_rows(z_train, z_query, k, exclude=exclude)
        want_idx, want_dist = nearest_oracle(z_train, z_query, k, exclude)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_large_norms_are_ordered_by_the_exact_distance(self):
        """At |z| ~ 1e7 the estimate alone would misorder most rows."""
        rng = np.random.default_rng(3)
        z_train, z_query = screen_case("large_norm", rng, 200, 24)
        idx, dist = nearest_rows(z_train, z_query, 5)
        want_idx, want_dist = nearest_oracle(z_train, z_query, 5)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)

    def test_exclude_with_k_equal_to_n_ranks_the_own_row_last(self):
        z = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
        idx, dist = nearest_rows(z, z, 3, exclude=np.arange(3))
        assert idx.tolist() == [[1, 2, 0], [0, 2, 1], [0, 1, 2]]
        assert np.isinf(dist[:, 2]).all()


class TestKnnModelVote:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), d=st.integers(1, 5),
           k_pick=st.integers(0, 10 ** 6))
    def test_predict_is_the_majority_of_the_oracle_neighbours(self, seed, n, d, k_pick):
        """Integer rows of a few values: most distances tie, so the vote
        depends on ties going to the lower training row."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        k = 1 + k_pick % n
        model = train_knn(X, y, k=k)
        Q = rng.integers(-1, 4, size=(int(rng.integers(1, 20)), d)).astype(float)
        nbrs, _ = nearest_oracle(model.z_train, (Q - model.mean) / model.std, k)
        ones = model.y_train[nbrs].sum(axis=1)
        assert np.array_equal(model.predict(Q), (2 * ones > k).astype(int))


def test_a_non_finite_query_row_keeps_its_own_neighbour_list():
    """A NaN query row gets its own (unordered, NaN) list and leaves the
    other rows' neighbours alone."""
    z_train = np.array([[0.0], [1.0], [2.0]])
    for query in ([[np.nan], [0.5]], [[0.5], [np.nan]]):
        idx, dist = nearest_rows(z_train, np.array(query), 2)
        finite = 0 if np.isfinite(query[0][0]) else 1
        assert idx[finite].tolist() == [0, 1] and dist[finite].tolist() == [0.5, 0.5]
        assert np.isnan(dist[1 - finite]).all()
