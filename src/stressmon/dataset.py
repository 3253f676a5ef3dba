"""Feature-matrix assembly: featurize windows, label from EMAs, impute.

Each window becomes one matrix row.  Windows are labeled by the closest
subsequent self-report of the same user (within an 8-hour horizon), the
5-point Likert answer is binarized (1 -> 0, 2..5 -> 1), and missing
contextual cells are filled with a k-nearest-neighbor weighted average
over standardized rows.  One exact neighbour search, :func:`nearest_rows`,
serves the imputer and the k-NN classifier: a matrix product per block of
query rows screens the candidates under a derived rounding bound, and only
those are measured with the exact distance expression.  The imputer then
fills all missing cells in one pass, grouped by how many donors each uses.
"""
from __future__ import annotations

import bisect
import contextlib
import csv
import itertools
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import hrv as hrv_mod
from . import signals
from .context import CONTEXT_FEATURE_NAMES, ContextSchema, extract_context_features
from .errors import (EmptyColumn, NoPlausiblePeaks, OutOfRange, TooFewIntervals, TooShort,
                     read_input, strict_number_text, strict_str, strict_time_ms,
                     strict_unique, write_csv, write_json)

LABEL_HORIZON_MS = 8 * 3600 * 1000
DEFAULT_IMPUTE_K = 5
DEFAULT_IMPUTE_WEIGHTING = "inverse_distance"
# Cells (query rows x training rows) of one distance block: 2 MB of float64
# per array the screen holds, so memory stays bounded whatever the number of
# query rows.
_BLOCK_CELLS = 1 << 18
# PPG bursts band-passed per call of the filter kernel.  The call's one
# sample-major buffer, about 20 MB of float64 for two-minute bursts, is the
# only copy of the held samples featurize makes besides the one burst whose
# HRV is being computed.
_FILTER_BLOCK_ROWS = 1024

#: Fixed matrix column order: the 12 HRV features then the 12 context features.
FEATURE_COLUMNS = tuple(hrv_mod.HRV_FEATURE_NAMES) + tuple(CONTEXT_FEATURE_NAMES)


@dataclass(frozen=True)
class EmaResponse:
    """A timestamped stress self-report on the 1..5 Likert scale."""

    user_id: str
    timestamp_ms: int
    stress_level: int

    def __post_init__(self):
        if self.stress_level not in (1, 2, 3, 4, 5):
            raise OutOfRange(f"stress level must be 1..5, got {self.stress_level}")


@dataclass
class FeatureMatrix:
    """Rectangular feature table with labels and groups.

    NaN in ``values`` is the only mark of a missing cell; a reader takes
    ``np.isnan`` of the slice it reads.
    """

    columns: tuple
    values: np.ndarray          # (n, d) float64, NaN where missing
    labels: np.ndarray          # (n,) float64, NaN where unlabeled
    groups: list                # user id per row
    window_starts: np.ndarray   # (n,) int64

    def __post_init__(self):
        n, _ = self.values.shape
        assert self.labels.shape == (n,)
        assert len(self.groups) == n and self.window_starts.shape == (n,)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def labeled(self) -> "FeatureMatrix":
        """The rows that carry a label, in order."""
        return self.select_rows(np.flatnonzero(~np.isnan(self.labels)))

    def select_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(self.columns, self.values[idx], self.labels[idx],
                             [self.groups[i] for i in idx], self.window_starts[idx])

    def select_columns(self, names) -> "FeatureMatrix":
        pos = [self.columns.index(c) for c in names]
        return FeatureMatrix(tuple(names), self.values[:, pos], self.labels, list(self.groups),
                             self.window_starts)


def featurize_windows(raw_windows, schema: ContextSchema) -> FeatureMatrix:
    """Band-pass + HRV + context extraction: one matrix row per raw window.

    Rows keep the windows' order and are unlabeled (NaN labels); a feature
    the window does not yield is NaN.  PPG bursts are band-passed in blocks
    of at most _FILTER_BLOCK_ROWS bursts of one length.  A block's
    on-wrist samples are copied once, into the filter's buffer
    (:func:`signals.bandpass_bursts`), and each filtered burst is copied out
    of it only while its HRV is computed; an off-wrist burst is not
    filtered, as it is its own result.  So besides the windows given, at
    most one block's buffer and one burst are live, whatever the cohort: at
    most two copies of the held PPG samples.  Windows whose PPG burst is too
    short to filter or to detect, or yields no plausible beat train, keep
    their HRV cells missing rather than failing the batch.
    """
    n_hrv = len(hrv_mod.HRV_FEATURE_NAMES)
    values = np.full((len(raw_windows), len(FEATURE_COLUMNS)), np.nan)
    design = signals.default_design()
    by_length = {}
    for i, raw in enumerate(raw_windows):
        if raw.ppg is not None:
            by_length.setdefault(len(raw.ppg.samples), []).append(i)
    for length, rows in by_length.items():
        if length < design.min_samples:
            # Too short to filter: bandpass_filter raises TooShort for each
            # burst, and its window keeps no HRV.
            for i in rows:
                with contextlib.suppress(TooShort):
                    signals.bandpass_filter(raw_windows[i].ppg, design)
            continue
        for start in range(0, len(rows), _FILTER_BLOCK_ROWS):
            block = rows[start:start + _FILTER_BLOCK_ROWS]
            # Iterated in place, the filtered bursts and their buffer are
            # freed before the next block's buffer is made.
            for i, burst in zip(block, signals.bandpass_bursts(
                    [raw_windows[i].ppg for i in block], design)):
                with contextlib.suppress(TooShort, NoPlausiblePeaks, TooFewIntervals):
                    values[i, :n_hrv] = astuple(hrv_mod.burst_hrv(burst))
    for i, raw in enumerate(raw_windows):
        context = extract_context_features(raw.context, schema)
        for j, name in enumerate(CONTEXT_FEATURE_NAMES, start=n_hrv):
            if context[name] is not None:
                values[i, j] = context[name]
    return FeatureMatrix(columns=FEATURE_COLUMNS, values=values,
                         labels=np.full(len(raw_windows), np.nan),
                         groups=[raw.user_id for raw in raw_windows],
                         window_starts=np.array([raw.start_ms for raw in raw_windows],
                                                dtype=np.int64))


def binarize(label5: int) -> int:
    """Map the Likert answer to the binary target: 1 -> 0, 2..5 -> 1."""
    if label5 not in (1, 2, 3, 4, 5):
        raise OutOfRange(f"stress level must be 1..5, got {label5}")
    return 0 if label5 == 1 else 1


def ema_labeler(emas):
    """The labeling rule: ``label5(user_id, start_ms)`` -> Likert answer or None.

    A window starting at ``start_ms`` is labeled by its user's earliest EMA
    at or after the start (the first in ``emas`` of equal times), when that
    EMA comes within LABEL_HORIZON_MS; otherwise it is unlabeled (None).
    """
    by_user = {}
    for ema in emas:
        by_user.setdefault(ema.user_id, []).append(ema)
    for seq in by_user.values():
        seq.sort(key=lambda e: e.timestamp_ms)
    times = {u: [e.timestamp_ms for e in seq] for u, seq in by_user.items()}

    def label5(user_id, start_ms):
        seq = by_user.get(user_id)
        if seq:
            i = bisect.bisect_left(times[user_id], start_ms)
            if i < len(seq) and seq[i].timestamp_ms - start_ms <= LABEL_HORIZON_MS:
                return seq[i].stress_level
        return None

    return label5


def drop_rows_missing_block(matrix: FeatureMatrix, columns) -> FeatureMatrix:
    """Drop rows missing every one of the given columns (e.g. no PPG at all)."""
    pos = [matrix.columns.index(c) for c in columns]
    keep = ~np.isnan(matrix.values[:, pos]).all(axis=1)
    return matrix.select_rows(np.flatnonzero(keep))


def nearest_rows(z_train: np.ndarray, z_query: np.ndarray, k: int, exclude=None):
    """Exact k nearest training rows of each query row by Euclidean distance.

    Returns ``(idx, dist)``, both (m, k), nearest first; distance ties go to
    the lower training row.  ``exclude[i]``, when given, is a training row
    that query row ``i`` must not pick (its own row when the queries are the
    training rows); it is given an infinite distance.

    A distance is ``sqrt(sum((q - z)**2))``, computed as written.  Evaluating
    it for every pair costs d passes over a (query, train) block, so the
    search screens first: one matrix product per block of query rows gives
    each squared distance as |q|^2 + |z|^2 - 2 q.z, and a rounding bound
    (derived in the body) brackets the exact expression's result.  Only the
    cells whose lower bracket is at or below the row's k-th smallest upper
    bracket can be among its k nearest; those alone are recomputed exactly
    and ordered by (row, distance, column), so the result is the one the
    exhaustive search gives, bit for bit.
    """
    n, d = z_train.shape
    m = z_query.shape[0]
    idx = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    # The screen's margin.  For a query row q and a training row z, let
    # S = |q|^2 + |z|^2, D2 = sum((q - z)**2) exactly, u = 2**-53.  Higham's
    # gamma_n = n u / (1 - n u) (Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., 3.1) bounds an n-term sum of products in any
    # summation order, with or without FMA, so it holds for whatever order
    # the BLAS picks:
    # - the exact expression t rounds each difference and square once, then
    #   sums d terms: |t - D2| <= gamma_{d+2} D2 <= 2 gamma_{d+2} S, as
    #   D2 <= 2 S;
    # - the estimate e = fl(fl(qq + zz) - 2 qz) takes the computed norms qq
    #   and zz, each within gamma_d |.|^2, and the product qz, within
    #   gamma_d |q||z| <= gamma_d S / 2; its two roundings add u (qq + zz)
    #   and u |e| <= 2 u S: |e - D2| <= (2 gamma_d + 3u) S + O(d u^2) S;
    # - the norms' own error: the scale s = fl(qq + zz) the margin is taken
    #   of is at least S (1 - gamma_{d+1});
    # - forming e -/+ margin rounds by at most u (e + margin) <= 3 u S.
    # Together that is (4d + 10) u S + O(d^2 u^2) S, under gamma_{4d+16} s
    # for any d below 10**6.  Each of the 3d products and squares that
    # underflows may lose half a subnormal ulp, 2**-1075, beyond its relative
    # bound; (4d + 16) times the smallest normal covers them.  The bracket is
    # taken in sqrt space, through the same correctly rounded (so monotone)
    # sqrt the exact distance takes: two sums that round to one distance
    # stay tied, and the tie still goes to the lower row.
    u = np.finfo(float).epsneg  # 2**-53
    rel = (4 * d + 16) * u / (1 - (4 * d + 16) * u)  # gamma_{4d+16}
    absolute = (4 * d + 16) * np.finfo(float).tiny
    train_sq = (z_train ** 2).sum(axis=1)
    step = max(1, _BLOCK_CELLS // max(1, n))
    for start in range(0, m, step):
        block = z_query[start:start + step]
        b = block.shape[0]
        e = block @ z_train.T
        margin = (block ** 2).sum(axis=1)[:, None] + train_sq
        e *= -2.0
        e += margin
        margin *= rel
        margin += absolute
        hi = np.sqrt(e + margin)
        e -= margin
        del margin
        lo = np.sqrt(np.maximum(e, 0.0, out=e), out=e)
        if exclude is not None:
            ex = exclude[start:start + step]
            lo[np.arange(b), ex] = hi[np.arange(b), ex] = np.inf
        # A cell whose distance is at or below the row's k-th smallest is
        # at or below its k-th smallest upper bracket; a NaN bracket (a
        # non-finite or overflowing row) compares false and is kept.
        hi.partition(k - 1, axis=1)
        rows, cols = np.nonzero(~(lo > hi[:, k - 1:k]))
        cand = np.sqrt(((z_train[cols] - block[rows]) ** 2).sum(axis=1))
        if exclude is not None:
            cand[cols == ex[rows]] = np.inf
        # Sorting the candidates by (row, distance, column) puts each row's
        # k nearest first, ties to the lower training row.
        order = np.lexsort((cols, cand, rows))
        first = np.searchsorted(rows, np.arange(b))  # nonzero lists rows in order
        take = order[first[:, None] + np.arange(k)]
        idx[start:start + b] = cols[take]
        dist[start:start + b] = cand[take]
    return idx, dist


class KnnImputer:
    """Mean-impute, then refine missing cells from k nearest rows.

    Fitting builds a complete working copy (column means in the holes) and
    standardizes its rows by the observed per-column mean/std.  Each missing
    cell is then replaced by the weighted average of its k nearest rows'
    values in that column (found by :func:`nearest_rows`), preferring
    originally observed donor values and falling back to the donors'
    mean-imputed values when none were observed.

    :meth:`transform` fills every missing cell in one pass: each cell's
    used donors are packed to the front in nearest-first order, and the
    cells that use u donors are averaged together as a C-contiguous
    (cells, u) block by ``np.vecdot(w, v) / w.sum(axis=1)``.  Each row of
    such a block goes through the same dot kernel and the same pairwise sum
    as ``np.dot(w, v) / w.sum()`` over that cell's donors alone, so a cell's
    value does not depend on the other cells filled with it.
    """

    def __init__(self, k: int = DEFAULT_IMPUTE_K,
                 weighting: str = DEFAULT_IMPUTE_WEIGHTING):
        if k < 1:
            raise ValueError("k must be >= 1")
        if weighting not in ("uniform", "inverse_distance"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.k = k
        self.weighting = weighting

    def fit(self, values: np.ndarray, missing: np.ndarray) -> "KnnImputer":
        observed = ~missing
        if not observed.any(axis=0).all():
            bad = int(np.flatnonzero(~observed.any(axis=0))[0])
            raise EmptyColumn(bad)
        counts = observed.sum(axis=0)
        filled = np.where(missing, 0.0, values)
        self.col_means_ = filled.sum(axis=0) / counts
        sq = np.where(missing, 0.0, (values - self.col_means_) ** 2)
        std = np.sqrt(sq.sum(axis=0) / counts)
        self.col_stds_ = np.where(std > 0, std, 1.0)
        self.working_ = np.where(missing, self.col_means_, values)
        self.train_missing_ = missing.copy()
        self.z_ = (self.working_ - self.col_means_) / self.col_stds_
        return self

    def transform(self, values: np.ndarray, missing: np.ndarray,
                  exclude=None) -> np.ndarray:
        """Return a complete copy of ``values``.

        ``exclude``, when the rows are fit rows, holds each row's index among
        the fit rows, so that no row is its own neighbour.
        """
        out = np.array(values, dtype=float)
        if not missing.any():
            return out
        n = self.z_.shape[0]
        k_eff = max(1, min(self.k, n - (1 if exclude is not None else 0)))
        z = (np.where(missing, self.col_means_, values) - self.col_means_) / self.col_stds_
        todo = np.flatnonzero(missing.any(axis=1))
        neighbours, distances = nearest_rows(
            self.z_, z[todo], k_eff,
            exclude=None if exclude is None else np.asarray(exclude)[todo])
        # One entry per missing cell: its query row (into todo) and column.
        row, col = np.nonzero(missing[todo])
        donors = ~self.train_missing_[neighbours[row], col[:, None]]
        donors[~donors.any(axis=1)] = True  # none observed: every neighbour
        used = donors.sum(axis=1)
        # Stable: the used donors move to the front in nearest-first order.
        pack = np.argsort(~donors, axis=1, kind="stable")
        nbrs = np.take_along_axis(neighbours[row], pack, axis=1)
        if self.weighting == "inverse_distance":
            w = 1.0 / (np.take_along_axis(distances[row], pack, axis=1) + 1e-9)
        else:
            w = np.ones(nbrs.shape)
        v = self.working_[nbrs, col[:, None]]
        fill = np.empty(len(row))
        for u in np.unique(used):
            group = used == u
            wg = np.ascontiguousarray(w[group, :u])
            fill[group] = np.vecdot(wg, np.ascontiguousarray(v[group, :u])) / wg.sum(axis=1)
        out[todo[row], col] = fill
        return out


def fit_imputer(matrix: FeatureMatrix, rows) -> KnnImputer:
    """A default KnnImputer fit on ``rows`` of ``matrix``; the EmptyColumn
    of a column with no observed value there names the column."""
    try:
        values = matrix.values[rows]
        return KnnImputer().fit(values, np.isnan(values))
    except EmptyColumn as err:
        raise EmptyColumn(matrix.columns[err.column]) from None


def knn_impute(matrix: FeatureMatrix, k: int = DEFAULT_IMPUTE_K,
               weighting: str = DEFAULT_IMPUTE_WEIGHTING) -> FeatureMatrix:
    """Complete a matrix in place of its missing cells; see KnnImputer."""
    missing = np.isnan(matrix.values)
    if not missing.any():
        return replace(matrix, values=matrix.values.copy())
    imputer = KnnImputer(k=k, weighting=weighting).fit(matrix.values, missing)
    completed = imputer.transform(matrix.values, missing, exclude=np.arange(matrix.n_rows))
    return replace(matrix, values=completed)


# -- file formats -------------------------------------------------------------

def write_matrix_csv(matrix: FeatureMatrix, path):
    """Write the matrix as CSV (missing cells empty) plus a JSON sidecar."""
    header = ["user_id", "window_start_ms", "label", *matrix.columns]
    rows = ([user, int(start), "" if np.isnan(label) else str(int(label)),
             *("" if math.isnan(cell) else repr(cell) for cell in cells.tolist())]
            for user, start, label, cells in zip(matrix.groups, matrix.window_starts,
                                                 matrix.labels, matrix.values))
    write_csv(path, itertools.chain([header], rows))
    write_json(sidecar_path(path), {
        "label_column": "label",
        "group_column": "user_id",
        "imputation": {"k": DEFAULT_IMPUTE_K, "weighting": DEFAULT_IMPUTE_WEIGHTING},
    }, indent=2)


def sidecar_path(csv_path):
    return str(csv_path) + ".meta.json"


def _csv_rows(lines):
    """The header and an iterator of the rows after it.

    Iterating checks that the header and each row end with a line end, as
    the writers end every line: a file cut short inside its last line could
    otherwise read as a shorter number or an empty cell.  It also checks
    that each row has the header's cell count, naming the columns it misses
    or runs past.
    """
    last = ""

    def ended(line):
        nonlocal last
        last = line
        return line

    def check_ended():
        if not last.endswith("\n"):
            raise ValueError(f"the line has no line end, so the file may be cut short"
                             f" inside its last cell, {header[-1]}")

    def rows():
        check_ended()  # the header's, once the caller has read it
        for row in reader:
            if len(row) < len(header):
                raise ValueError(f"{len(row)} cells, the header has {len(header)}:"
                                 f" no cell under {', '.join(header[len(row):])}")
            if len(row) > len(header):
                raise ValueError(f"{len(row)} cells, the header has {len(header)}:"
                                 f" cells past the last column, {header[-1]}")
            check_ended()
            yield row

    reader = csv.reader(map(ended, lines))
    header = next(reader, [])
    return header, rows()


def _matrix(lines) -> FeatureMatrix:
    """The FeatureMatrix of a matrix CSV's lines.

    The header names each feature column once.  Every row has the
    header's cell count, a non-empty user id, a window start in 0..2**63-1
    and a label that is empty (unlabeled), ``0`` or ``1``.  Every line ends
    with a line end (see :func:`_csv_rows`).
    """
    header, rows_read = _csv_rows(lines)
    if header[:3] != ["user_id", "window_start_ms", "label"]:
        raise ValueError(f"unexpected header {header[:3]}")
    columns = tuple(strict_unique(header[3:], "column names"))
    groups, starts, labels, rows = [], [], [], []
    for row in rows_read:
        if row[2] not in ("", "0", "1"):
            raise ValueError(f"label must be empty, 0 or 1, got {row[2]!r}")
        # None: missing, NaN in values
        cells = [strict_number_text(c, "cell", float) if c else None for c in row[3:]]
        # filter(None) passes the observed cells, zeros aside, which are finite
        if not all(map(math.isfinite, filter(None, cells))):
            raise ValueError(f"cells must be finite numbers or empty, got {row[3:]}")
        groups.append(strict_str(row[0], "user_id"))
        starts.append(strict_time_ms(strict_number_text(row[1], "window_start_ms", int),
                                     "window_start_ms"))
        labels.append(float(row[2]) if row[2] else np.nan)
        rows.append(cells)
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return FeatureMatrix(columns=columns, values=values, labels=np.array(labels, dtype=float),
                         groups=groups, window_starts=np.array(starts, dtype=np.int64))


def read_matrix_csv(path) -> FeatureMatrix:
    """Read a matrix CSV; raises DataFormatError naming the bad line."""
    return read_input(path, "matrix CSV", _matrix)


#: The columns of an EMA CSV, in the order the writer puts them.
_EMA_COLUMNS = ("timestamp_ms", "user_id", "stress_level")


def _emas(lines) -> list:
    """The EmaResponses of an EMA CSV's lines.

    The header names each of _EMA_COLUMNS once, in any order.  Every row
    has the header's cell count, and every line ends with a line end (see
    :func:`_csv_rows`): with ``timestamp_ms`` last, a cut line would
    otherwise read a shorter time.
    """
    header, rows = _csv_rows(lines)
    for name in _EMA_COLUMNS:
        if header.count(name) != 1:
            raise ValueError(f"header must name {name} once, got {header}")
    at, user, level = map(header.index, _EMA_COLUMNS)
    emas = []
    for row in rows:
        emas.append(EmaResponse(
            strict_str(row[user], "user_id"),
            strict_time_ms(strict_number_text(row[at], "timestamp_ms", int), "timestamp_ms"),
            strict_number_text(row[level], "stress_level", int)))
    return emas


def read_ema_csv(path):
    """Read EMA answers; raises DataFormatError naming the bad line."""
    return read_input(path, "EMA record", _emas)


def write_ema_csv(path, emas):
    """Write EMA answers in the given order, one ``\\n``-ended line each."""
    rows = ((ema.timestamp_ms, ema.user_id, ema.stress_level) for ema in emas)
    write_csv(path, itertools.chain([_EMA_COLUMNS], rows), lineterminator="\n")
