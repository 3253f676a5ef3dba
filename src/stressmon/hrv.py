"""Systolic peak detection and per-burst heart-rate-variability features.

All twelve features computed from one 2-minute burst: BPM, IBI, SDNN,
SDSD, RMSSD, PNN20, PNN50, HR_mad, Poincare SD1/SD2, ellipse area S and
breathing rate.  Standard deviations are population (ddof=0) throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientSpan, NoPlausiblePeaks, TooFewIntervals
from .signals import SensorBurst

HRV_FEATURE_NAMES = ("bpm", "ibi", "sdnn", "sdsd", "rmssd", "pnn20", "pnn50",
                     "hr_mad", "sd1", "sd2", "s", "br")

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
    quality: float = 1.0

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
    quality: float


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
    br_low_confidence: bool = False

    def as_dict(self):
        return {name: getattr(self, name) for name in HRV_FEATURE_NAMES}


def detect_peaks(ppg: SensorBurst) -> PeakTrain:
    """Find systolic peaks with an adaptive raised-baseline threshold.

    A 0.75-s moving-average baseline is raised by r permille of itself plus
    r permille of the signal amplitude, for r in 5..300.  Contiguous
    regions above the raised baseline each contribute their maximum as a
    candidate peak.  The level whose implied heart rate lands in
    [40, 180] BPM with the lowest NN standard deviation wins.

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
    best_idx = None
    for r in RAISE_LEVELS_PERMILLE:
        scale = r / 1000.0
        idx = _region_maxima(x, baseline * (1.0 + scale) + scale * amp)
        if len(idx) < 2:
            continue
        nn = np.diff(idx) * (1000.0 / fs)
        bpm = 60_000.0 / nn.mean()
        if not (BPM_MIN <= bpm <= BPM_MAX):
            continue
        sd = float(nn.std())
        if sd < best_sd:
            best_sd, best_idx = sd, idx
    if best_idx is None:
        raise NoPlausiblePeaks("no raise level gave a heart rate in 40..180 BPM")
    times = ppg.start_time_ms + best_idx * (1000.0 / fs)
    return PeakTrain(peak_times_ms=times)


def _centered_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Centered moving mean over w samples; edges use shrunken windows."""
    n = len(x)
    left, right = (w - 1) // 2, w // 2
    idx = np.arange(n)
    lo = np.maximum(0, idx - left)
    hi = np.minimum(n, idx + right + 1)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def _region_maxima(x: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Index of the first maximum inside each contiguous region where x > threshold."""
    p = np.flatnonzero(x > threshold)
    if p.size == 0:
        return np.empty(0, dtype=int)
    offsets = np.concatenate(([0], np.flatnonzero(np.diff(p) > 1) + 1))
    vals = x[p]
    counts = np.diff(np.concatenate((offsets, [p.size])))
    rep_max = np.repeat(np.maximum.reduceat(vals, offsets), counts)
    seg_of = np.repeat(np.arange(offsets.size), counts)
    hits = np.flatnonzero(vals == rep_max)
    _, first = np.unique(seg_of[hits], return_index=True)
    return p[hits[first]]


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
    quality = kept.size / nn.size
    return NnSeries(intervals_ms=kept, end_times_ms=times[1:][keep], quality=quality)


def hrv_features(nn, nn_times) -> HrvFeatures:
    """Compute the twelve features from cleaned NN intervals.

    ``nn`` are interval lengths in ms, ``nn_times`` the epoch ms at which
    each interval ends (used only by the breathing-rate estimate).  When
    the series spans under 30 s the breathing rate is NaN and flagged
    low-confidence; the other eleven features are always computed.
    """
    nn = np.asarray(nn, dtype=float)
    nn_times = np.asarray(nn_times, dtype=float)
    if nn.size < MIN_NN_COUNT:
        raise TooFewIntervals(f"need >= {MIN_NN_COUNT} intervals, got {nn.size}")
    ibi = float(nn.mean())
    d = np.diff(nn)
    var_nn = float(nn.var())
    var_d = float(d.var())
    sd1 = float(np.sqrt(d.var() / 2.0)) if d.size else 0.0
    sd2 = float(np.sqrt(max(0.0, 2.0 * var_nn - var_d / 2.0)))
    try:
        br = estimate_br(nn, nn_times)
    except InsufficientSpan:
        br = BreathingRate(value=float("nan"), low_confidence=True)
    return HrvFeatures(
        bpm=60_000.0 / ibi,
        ibi=ibi,
        sdnn=float(nn.std()),
        sdsd=float(d.std()) if d.size else 0.0,
        rmssd=float(np.sqrt(np.mean(d ** 2))) if d.size else 0.0,
        pnn20=float(np.mean(np.abs(d) > 20.0)) if d.size else 0.0,
        pnn50=float(np.mean(np.abs(d) > 50.0)) if d.size else 0.0,
        hr_mad=float(np.median(np.abs(nn - np.median(nn)))),
        sd1=sd1,
        sd2=sd2,
        s=float(np.pi * sd1 * sd2),
        br=br.value,
        br_low_confidence=br.low_confidence,
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
