"""Systolic peak detection and per-burst heart-rate-variability features.

All twelve features computed from one 2-minute burst: BPM, IBI, SDNN,
SDSD, RMSSD, PNN20, PNN50, HR_mad, Poincare SD1/SD2, ellipse area S and
breathing rate.  Standard deviations are population (ddof=0) throughout.

Peak detection searches 60 raised baselines (``detect_peaks``).  A burst
whose raised baselines provably never fall from one level to the next (the
certificate in ``_level_trains``) gets a height map: for each sample, the
number of levels it lies above, from a six-round bisection.  The walk over
that map builds the runs of only the levels where the peak train can
change: 1.4 of 60 a burst on average over the non-flat bursts of perfbench's
collect cohort.  Any other burst takes the general path, which builds every
level's runs (``_level_peaks``); both give each level the train of the plain
per-level region search.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InsufficientSpan, NoPlausiblePeaks, TooFewIntervals
from .signals import SensorBurst

NN_MIN_MS = 300.0
NN_MAX_MS = 2000.0
BPM_MIN = 40.0
BPM_MAX = 180.0
BASELINE_SECONDS = 0.75
RAISE_LEVELS_PERMILLE = range(5, 305, 5)
MIN_DETECT_SECONDS = 10.0
MIN_NN_COUNT = 5
BR_GRID_HZ = 4.0
BR_BAND_HZ = (0.1, 0.4)
BR_MIN_SPAN_S = 30.0


@dataclass(frozen=True)
class PeakTrain:
    """Detected systolic peak times (epoch ms, strictly increasing)."""

    peak_times_ms: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.peak_times_ms, dtype=float)
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("peak times must be strictly increasing")
        object.__setattr__(self, "peak_times_ms", times)


@dataclass(frozen=True)
class NnSeries:
    """Cleaned NN intervals with the epoch time of each interval's end."""

    intervals_ms: np.ndarray
    end_times_ms: np.ndarray


class BreathingRate(NamedTuple):
    value: float
    low_confidence: bool


@dataclass(frozen=True)
class HrvFeatures:
    bpm: float
    ibi: float
    sdnn: float
    sdsd: float
    rmssd: float
    pnn20: float
    pnn50: float
    hr_mad: float
    sd1: float
    sd2: float
    s: float
    br: float


#: Column order of the HRV block in the feature matrix: the fields of
#: ``HrvFeatures``, so ``astuple`` of one burst's features fills the block.
HRV_FEATURE_NAMES = tuple(f.name for f in fields(HrvFeatures))


def detect_peaks(ppg: SensorBurst) -> PeakTrain:
    """Find systolic peaks with an adaptive raised-baseline threshold.

    A 0.75-s moving-average baseline is raised by r permille of itself plus
    r permille of the signal amplitude, for r in 5..300.  Contiguous
    regions above the raised baseline each contribute their first maximum
    as a candidate peak.  The level whose implied heart rate lands in
    [40, 180] BPM with the lowest NN standard deviation wins; of equal
    deviations the lowest level wins.

    The levels' trains come from ``_level_trains`` in level order, each
    level it leaves out having the train of the level before: from a height
    map, walked over the few levels where a run splits, vanishes or loses
    its peak, when a certificate shows that no sample's raised baseline
    falls from one level to the next; from every level's runs otherwise.

    The trains are searched in level order with plain per-level arithmetic
    (``np.diff``, ``mean``, ``std``, strict ``<``).  A train with fewer than
    two peaks is skipped, and so is one equal to the previous level's: it
    would give the same rate and SD and lose the strict ``<``.

    Raises NoPlausiblePeaks when no level yields a plausible rate.
    """
    if ppg.duration_s < MIN_DETECT_SECONDS:
        raise ValueError(f"need >= {MIN_DETECT_SECONDS} s of signal")
    x = ppg.samples
    fs = ppg.rate_hz
    amp = float(x.max() - x.min())
    if amp <= 1e-9:
        raise NoPlausiblePeaks("signal is flat")
    baseline = _centered_mean(x, max(1, int(round(BASELINE_SECONDS * fs))))

    best_sd = np.inf
    best_idx = prev = None
    for _, idx in _level_trains(x, baseline, amp):
        key = idx.tobytes()
        if idx.size < 2 or key == prev:
            continue
        prev = key
        nn = np.diff(idx) * (1000.0 / fs)
        bpm_k = 60_000.0 / nn.mean()
        if not (BPM_MIN <= bpm_k <= BPM_MAX):
            continue
        sd_k = float(nn.std())
        if sd_k < best_sd:
            best_sd, best_idx = sd_k, idx
    if best_idx is None:
        raise NoPlausiblePeaks("no raise level gave a heart rate in 40..180 BPM")
    times = ppg.start_time_ms + best_idx * (1000.0 / fs)
    return PeakTrain(peak_times_ms=times)


#: Each level's scale s = r / 1000 and factor 1 + s, padded to 64 levels with
#: thresholds no sample exceeds (s = inf), so that a six-round bisection can
#: probe any level number.
_SCALES = np.full(64, np.inf)
_SCALES[:len(RAISE_LEVELS_PERMILLE)] = [r / 1000.0 for r in RAISE_LEVELS_PERMILLE]
_FACTORS = np.where(np.isfinite(_SCALES), 1.0 + _SCALES, 1.0)


def _rise_ratio() -> float:
    """The K of the height map's certificate; see ``_level_trains``."""
    u = Fraction(1, 2 ** 53)
    s = [Fraction(v) for v in _SCALES[:len(RAISE_LEVELS_PERMILLE)]]
    c = [Fraction(v) for v in _FACTORS[:len(RAISE_LEVELS_PERMILLE)]]
    k = max((c1 - c0 + u * (c1 + c0)) / (s1 - s0 - u * (s1 + s0))
            for s0, s1, c0, c1 in zip(s, s[1:], c, c[1:]))
    k *= (1 + u) / (1 - u)
    f = float(k)
    return f if Fraction(f) >= k else float(np.nextafter(f, np.inf))


_RISE_RATIO = _rise_ratio()


def _level_trains(x: np.ndarray, baseline: np.ndarray, amp: float):
    """Yield ``(level, peaks)`` in level order, skipping repeated trains.

    Level k's train is the first maximum of each run of ``x > t_k``, where
    ``t_k = baseline * (1 + s_k) + s_k * amp`` with the bits of
    ``_level_peaks``' rows.  A level that is not yielded has the train of
    the last level yielded before it; level 0 is always yielded, and an
    empty train ends the walk (no level above it has a run).

    The height map.  When a sample's thresholds never decrease with k, the
    levels it lies above are a prefix, of length h (its height), found by a
    six-round bisection; row k is then ``h > k``, and the rows nest.  The
    certificate, per sample, for amp > 1e-9 (``detect_peaks``' flat test):
    - baseline >= 0, or NaN: fl(b c_k) and fl(s_k amp) both grow with k
      and rounding is monotone, so their rounded sum does too; a NaN
      threshold compares False at every level, as h = 0 says.
    - baseline = -B < 0: t_k = fl(D_k - P_k) with D_k = fl(s_k amp) and
      P_k = fl(B c_k), and t_{k+1} >= t_k follows from D_{k+1} - D_k >=
      P_{k+1} - P_k.  With u = 2**-53 and e = 2**-1075 (half a subnormal
      ulp, lost when a product underflows), D_{k+1} - D_k >= amp a_k - 2e
      and P_{k+1} - P_k <= B g_k + 2e, where a_k = s_{k+1} - s_k - u
      (s_{k+1} + s_k) and g_k = c_{k+1} - c_k + u (c_{k+1} + c_k), with the
      stored s and c.  So amp a_k >= B g_k + 4e suffices.  The check
      ``amp >= fl(K B)`` gives K B (1 - u) <= amp + e, and with K = max
      g_k / a_k * (1 + u) / (1 - u) (about 1 + 9.3e-14, computed exactly in
      ``_rise_ratio`` and rounded up) that leaves B g_k <= a_k (amp + e) /
      (1 + u), which is below amp a_k - 4e because amp a_k u > 5e for any
      amp > 1e-9.
    A burst with any sample that fails the certificate builds every level
    with ``_level_peaks``.

    The walk.  A level-k run starts at each i with h[i-1] <= k < h[i], so
    one count of the rises of h gives every level's run count.  Level k's
    runs and their first maxima come from ``h > k`` and the sparse table,
    built at level 0, whose runs are the longest.  The next level built is
    the first one above k where the run count differs from level k's, or
    where a peak drops out (the smallest h over the peaks).  Every level j
    between takes the same train: each peak p has h[p] > j, so each level-k
    run R keeps a level-j run; row j lies inside row k, so every level-j run
    sits in some R, and with equal counts each R keeps exactly one, R',
    which holds p.  Every sample of R before p is below x[p] and x[p] is R's
    maximum, so p is also the first maximum of R'.
    """
    levels = len(RAISE_LEVELS_PERMILLE)
    neg = baseline < 0
    if np.any(neg) and not np.all(amp >= _RISE_RATIO * -baseline[neg]):
        peaks, level = _level_peaks(x, baseline, amp)
        bounds = np.searchsorted(level, np.arange(levels + 1))
        for k in range(levels):
            yield k, peaks[bounds[k]:bounds[k + 1]]
        return
    h = np.zeros(len(x), dtype=np.intp)
    lift = _SCALES * amp
    for step in (32, 16, 8, 4, 2, 1):
        probe = h + (step - 1)
        h += step * (x > baseline * _FACTORS[probe] + lift[probe])
    padded = np.zeros(len(x) + 2, dtype=np.intp)
    padded[1:-1] = h
    rise = np.flatnonzero(padded[1:] > padded[:-1])
    counts = np.cumsum(np.bincount(padded[rise], minlength=levels + 1)
                       - np.bincount(padded[rise + 1], minlength=levels + 1))
    changes = np.append(np.flatnonzero(counts[1:levels] != counts[:levels - 1]) + 1, levels)
    table = None
    k = 0
    while k < levels:
        if counts[k] == 0:
            yield k, np.empty(0, dtype=np.intp)
            return
        above = padded > k
        edges = np.flatnonzero(above[1:] != above[:-1])
        begin, length = edges[0::2], edges[1::2] - edges[0::2]
        if table is None:
            table = _max_table(x, int(length.max()))
        peaks = _first_maxima(x, table, begin, length)
        yield k, peaks
        k = min(int(h[peaks].min()), int(changes[np.searchsorted(changes, k, side="right")]))


def _level_peaks(x: np.ndarray, baseline: np.ndarray, amp: float):
    """First maximum of each region above each raised baseline.

    Returns the peaks' sample indices and the level number of each, ordered
    by level, then by time.  Row k of a boolean mask is ``x > baseline * (1
    + s) + s * amp`` for the k-th scale s, computed in that order so its
    bits are those of the plain expression; a False column on each side
    keeps a run from crossing rows, so one comparison of the flat mask with
    itself shifted gives every run's start and end.
    """
    n = len(x)
    width = n + 2
    mask = np.zeros((len(RAISE_LEVELS_PERMILLE), width), dtype=bool)
    buf = np.empty(n)
    for row, scale, factor in zip(mask, _SCALES, _FACTORS):
        np.multiply(baseline, factor, out=buf)
        np.add(buf, scale * amp, out=buf)
        np.greater(x, buf, out=row[1:-1])
    flat = mask.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    level = starts // width
    begin = starts - level * width - 1
    length = ends - starts
    table = _max_table(x, int(length.max(initial=1)))
    return _first_maxima(x, table, begin, length), level


def _max_table(x: np.ndarray, longest: int) -> np.ndarray:
    """Sparse table over x: row p holds the first maximum of each window of
    2**p samples, for every 2**p <= longest.  It costs log2(longest) passes
    over x, whatever the number of runs queried."""
    n = len(x)
    table = np.zeros((longest.bit_length(), n), dtype=np.intp)
    table[0] = np.arange(n)
    for p in range(1, len(table)):
        half = 1 << (p - 1)
        windows = n - 2 * half + 1
        left, right = table[p - 1, :windows], table[p - 1, half:half + windows]
        table[p, :windows] = np.where(x[right] > x[left], right, left)
    return table


def _first_maxima(x, table, begin, length):
    """First maximum of each run ``x[begin:begin + length]``.

    A run of length L is the union of two table windows with 2**p <= L, one
    at each end; the right one's maximum wins only when it is strictly
    greater, so the first of equal values is kept.
    """
    p = np.frexp(length)[1] - 1                   # floor(log2(length))
    left = table[p, begin]
    right = table[p, begin + length - (1 << p)]
    return np.where(x[right] > x[left], right, left)


def _centered_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Centered moving mean over w samples; edges use shrunken windows."""
    n = len(x)
    left, right = (w - 1) // 2, w // 2
    idx = np.arange(n)
    lo = np.maximum(0, idx - left)
    hi = np.minimum(n, idx + right + 1)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def clean_nn(peaks: PeakTrain) -> NnSeries:
    """Successive peak differences, restricted to the 300..2000 ms band.

    Raises TooFewIntervals when fewer than five plausible intervals remain.
    """
    times = peaks.peak_times_ms
    nn = np.diff(times)
    keep = (nn >= NN_MIN_MS) & (nn <= NN_MAX_MS)
    kept = nn[keep]
    if kept.size < MIN_NN_COUNT:
        raise TooFewIntervals(f"only {kept.size} plausible NN intervals")
    return NnSeries(intervals_ms=kept, end_times_ms=times[1:][keep])


def hrv_features(nn, nn_times) -> HrvFeatures:
    """Compute the twelve features from cleaned NN intervals.

    ``nn`` are interval lengths in ms, ``nn_times`` the epoch ms at which
    each interval ends (used only by the breathing-rate estimate).  When
    the series spans under 30 s the breathing rate is NaN and flagged
    low-confidence; the other eleven features are always computed, from at
    least ``MIN_NN_COUNT`` intervals and so at least four differences.
    """
    nn = np.asarray(nn, dtype=float)
    nn_times = np.asarray(nn_times, dtype=float)
    if nn.size < MIN_NN_COUNT:
        raise TooFewIntervals(f"need >= {MIN_NN_COUNT} intervals, got {nn.size}")
    ibi = float(nn.mean())
    d = np.diff(nn)
    var_nn = float(nn.var())
    var_d = float(d.var())
    sd1 = float(np.sqrt(var_d / 2.0))
    sd2 = float(np.sqrt(max(0.0, 2.0 * var_nn - var_d / 2.0)))
    try:
        br = estimate_br(nn, nn_times)
    except InsufficientSpan:
        br = BreathingRate(value=float("nan"), low_confidence=True)
    return HrvFeatures(
        bpm=60_000.0 / ibi,
        ibi=ibi,
        sdnn=float(nn.std()),
        sdsd=float(d.std()),
        rmssd=float(np.sqrt(np.mean(d ** 2))),
        pnn20=float(np.mean(np.abs(d) > 20.0)),
        pnn50=float(np.mean(np.abs(d) > 50.0)),
        hr_mad=float(np.median(np.abs(nn - np.median(nn)))),
        sd1=sd1,
        sd2=sd2,
        s=float(np.pi * sd1 * sd2),
        br=br.value,
    )


def estimate_br(nn, nn_times) -> BreathingRate:
    """Breathing rate from respiratory modulation of the NN series.

    The series is linearly resampled onto a 4 Hz grid, demeaned, Hann
    windowed, and the dominant DFT frequency in 0.1..0.4 Hz is returned in
    breaths/min.  The estimate is flagged low-confidence when the band
    peak does not clear three times the median spectrum magnitude.
    Raises InsufficientSpan below 30 s of coverage.
    """
    nn = np.asarray(nn, dtype=float)
    nn_times = np.asarray(nn_times, dtype=float)
    span_s = (nn_times[-1] - nn_times[0]) / 1000.0 if nn_times.size > 1 else 0.0
    if span_s < BR_MIN_SPAN_S:
        raise InsufficientSpan(f"NN series spans {span_s:.1f} s, need >= {BR_MIN_SPAN_S}")
    step_ms = 1000.0 / BR_GRID_HZ
    grid = np.arange(nn_times[0], nn_times[-1] + 1e-9, step_ms)
    series = np.interp(grid, nn_times, nn)
    series = (series - series.mean()) * np.hanning(len(series))
    mags = np.abs(np.fft.rfft(series))
    freqs = np.fft.rfftfreq(len(series), d=1.0 / BR_GRID_HZ)
    band = (freqs >= BR_BAND_HZ[0] - 1e-12) & (freqs <= BR_BAND_HZ[1] + 1e-12)
    band_mags = mags[band]
    band_freqs = freqs[band]
    peak_i = int(np.argmax(band_mags))
    noise_floor = float(np.median(mags[1:])) if mags.size > 1 else 0.0
    low_conf = band_mags[peak_i] <= 3.0 * noise_floor
    return BreathingRate(value=60.0 * float(band_freqs[peak_i]), low_confidence=bool(low_conf))


def burst_hrv(ppg_filtered: SensorBurst) -> HrvFeatures:
    """Convenience composition: peaks -> cleaned NN -> features."""
    peaks = detect_peaks(ppg_filtered)
    series = clean_nn(peaks)
    return hrv_features(series.intervals_ms, series.end_times_ms)
