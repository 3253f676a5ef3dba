"""Systolic peak detection and per-burst heart-rate-variability features.

All twelve features computed from one 2-minute burst: BPM, IBI, SDNN,
SDSD, RMSSD, PNN20, PNN50, HR_mad, Poincare SD1/SD2, ellipse area S and
breathing rate.  Standard deviations are population (ddof=0) throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
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

    Every level is searched in level order with plain per-level arithmetic
    (``np.diff``, ``mean``, ``std``, strict ``<``).  A level with fewer than
    two peaks is skipped, and so is one whose peaks equal the previous
    level's: it would give the same rate and SD and lose the strict ``<``.

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

    peaks, level = _level_peaks(x, baseline, amp)
    bounds = np.searchsorted(level, np.arange(len(RAISE_LEVELS_PERMILLE) + 1))
    best_sd = np.inf
    best_idx = prev = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = peaks[lo:hi]
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


def _level_peaks(x: np.ndarray, baseline: np.ndarray, amp: float):
    """First maximum of each region above each raised baseline.

    Returns the peaks' sample indices and the level number of each, ordered
    by level, then by time.  Row k of a boolean mask is ``x > baseline * (1
    + s) + s * amp`` for the k-th scale s, computed in that order so its
    bits are those of the plain expression; a False column on each side
    keeps a run from crossing rows, so one comparison of the flat mask with
    itself shifted gives every run's start and end.

    The first maximum of every run comes from a sparse table over x: row p
    holds the first maximum of each window of 2**p samples.  A run of
    length L is the union of two such windows with 2**p <= L, one at each
    end; the right one's maximum wins only when it is strictly greater, so
    the first of equal values is kept.  Building the table costs
    log2(longest run) passes over x, whatever the number of runs.
    """
    n = len(x)
    width = n + 2
    mask = np.zeros((len(RAISE_LEVELS_PERMILLE), width), dtype=bool)
    buf = np.empty(n)
    for row, r in zip(mask, RAISE_LEVELS_PERMILLE):
        scale = r / 1000.0
        np.multiply(baseline, 1.0 + scale, out=buf)
        np.add(buf, scale * amp, out=buf)
        np.greater(x, buf, out=row[1:-1])
    flat = mask.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    level = starts // width
    begin = starts - level * width - 1
    length = ends - starts

    table = np.zeros((int(length.max(initial=1)).bit_length(), n), dtype=np.intp)
    table[0] = np.arange(n)
    for p in range(1, len(table)):
        half = 1 << (p - 1)
        windows = n - 2 * half + 1
        left, right = table[p - 1, :windows], table[p - 1, half:half + windows]
        table[p, :windows] = np.where(x[right] > x[left], right, left)
    p = np.frexp(length)[1] - 1                   # floor(log2(length))
    left = table[p, begin]
    right = table[p, begin + length - (1 << p)]
    return np.where(x[right] > x[left], right, left), level


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
