"""Peak detection, NN cleaning and the twelve per-burst features."""
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressmon import hrv, signals
from stressmon.errors import (InsufficientSpan, NoPlausiblePeaks,
                              TooFewIntervals)
from stressmon.sim import synth_ppg

FS = 20.0


def oracle_features(nn):
    """Plain-python reimplementation of the eleven closed-form features."""
    n = len(nn)
    ibi = sum(nn) / n
    d = [b - a for a, b in zip(nn, nn[1:])]
    pvar = lambda xs: sum((x - sum(xs) / len(xs)) ** 2 for x in xs) / len(xs)
    var_nn = pvar(nn)
    var_d = pvar(d) if d else 0.0
    med = statistics.median(nn)
    sd1 = math.sqrt(var_d / 2.0)
    sd2 = math.sqrt(max(0.0, 2.0 * var_nn - var_d / 2.0))
    return {
        "bpm": 60_000.0 / ibi,
        "ibi": ibi,
        "sdnn": math.sqrt(var_nn),
        "sdsd": math.sqrt(var_d),
        "rmssd": math.sqrt(sum(x * x for x in d) / len(d)) if d else 0.0,
        "pnn20": sum(1 for x in d if abs(x) > 20.0) / len(d) if d else 0.0,
        "pnn50": sum(1 for x in d if abs(x) > 50.0) / len(d) if d else 0.0,
        "hr_mad": statistics.median(abs(x - med) for x in nn),
        "sd1": sd1,
        "sd2": sd2,
        "s": math.pi * sd1 * sd2,
    }


def modulated_nn(rate_hz=0.25, base=800.0, amp=40.0, total_s=120.0):
    t, nn, times = 0.0, [], []
    while t < total_s * 1000:
        v = base + amp * math.sin(2 * math.pi * rate_hz * t / 1000.0)
        t += v
        nn.append(v)
        times.append(t)
    return np.array(nn), np.array(times)


class TestDetectPeaks:
    def test_60bpm_recovery(self):
        burst, truth = synth_ppg(60.0, 120, FS, 0.0, seed=1)
        filtered = signals.bandpass_filter(burst, signals.default_design())
        peaks = hrv.detect_peaks(filtered)
        assert abs(len(peaks.peak_times_ms) - 120) <= 1
        d = np.abs(truth[:, None] - peaks.peak_times_ms[None, :]).min(axis=1)
        assert np.all(d <= 2 * 1000.0 / FS + 1e-9)

    def test_flat_zero(self):
        with pytest.raises(NoPlausiblePeaks):
            hrv.detect_peaks(signals.SensorBurst("u", "ppg", 0, FS,
                                                 np.zeros(int(120 * FS))))

    def test_100bpm_mean_nn(self):
        burst, _ = synth_ppg(100.0, 120, FS, 0.0, seed=2)
        filtered = signals.bandpass_filter(burst, signals.default_design())
        peaks = hrv.detect_peaks(filtered)
        nn = np.diff(peaks.peak_times_ms)
        assert abs(nn.mean() - 600.0) <= 10.0

    def test_short_burst_rejected(self):
        with pytest.raises(ValueError):
            hrv.detect_peaks(signals.SensorBurst("u", "ppg", 0, FS, np.ones(40)))


def _oracle_region_maxima(x, threshold):
    """The per-level region search the level-matrix pass replaced."""
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


def _oracle_detect_peaks(ppg):
    """Level-by-level raised-baseline search: one region pass per level."""
    if ppg.duration_s < hrv.MIN_DETECT_SECONDS:
        raise ValueError("too short")
    x = ppg.samples
    fs = ppg.rate_hz
    amp = float(x.max() - x.min())
    if amp <= 1e-9:
        raise NoPlausiblePeaks("signal is flat")
    baseline = hrv._centered_mean(x, max(1, int(round(hrv.BASELINE_SECONDS * fs))))
    best_sd = np.inf
    best_idx = None
    for r in hrv.RAISE_LEVELS_PERMILLE:
        scale = r / 1000.0
        idx = _oracle_region_maxima(x, baseline * (1.0 + scale) + scale * amp)
        if len(idx) < 2:
            continue
        nn = np.diff(idx) * (1000.0 / fs)
        bpm = 60_000.0 / nn.mean()
        if not (hrv.BPM_MIN <= bpm <= hrv.BPM_MAX):
            continue
        sd = float(nn.std())
        if sd < best_sd:
            best_sd, best_idx = sd, idx
    if best_idx is None:
        raise NoPlausiblePeaks("no plausible level")
    return hrv.PeakTrain(peak_times_ms=ppg.start_time_ms + best_idx * (1000.0 / fs))


@st.composite
def peak_bursts(draw):
    """Bursts that stress the detector's ties, bounds and odd samples.

    Kinds: Gaussian pulse trains at 40-180 BPM (constant or ramped, with
    noise, at 20 Hz also band-passed); impulse trains whose period sits on
    or next to the 40 and 180 BPM bounds, with alternating heights so that
    several levels have equal or nearly equal NN deviations; sines outside
    the plausible band; white noise.  Then optionally: values rounded to a
    coarse grid (plateaus of equal maxima), a flat stretch, NaN samples and
    a constant offset.
    """
    fs = draw(st.sampled_from([20.0, 30.0]))
    seconds = draw(st.sampled_from([8.0, 10.0, 12.5, 30.0, 61.0, 120.0]))
    n = int(round(seconds * fs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pulses", "impulses", "sine", "noise"]))
    if kind == "pulses":
        lo, hi = sorted(draw(st.tuples(st.floats(40.0, 180.0), st.floats(40.0, 180.0))))
        bpm = np.linspace(lo, hi, n) if draw(st.booleans()) else lo
        width = draw(st.sampled_from([0.05, 0.08, 0.2]))
        burst, _ = synth_ppg(bpm, seconds, fs, draw(st.sampled_from([0.0, 0.02, 0.3])),
                             seed=rng.integers(1 << 30), pulse_width_s=width)
        x = burst.samples
        if fs == signals.PPG_RATE_HZ and draw(st.booleans()):
            x = signals.bandpass_filter(burst, signals.default_design()).samples
    elif kind == "impulses":
        # 60 / 40 BPM and 60 / 180 BPM in samples, and their neighbours
        edge = [int(round(1.5 * fs)), int(round(fs / 3))]
        period = draw(st.sampled_from(edge + [edge[0] - 1, edge[0] + 1, edge[1] + 1,
                                              edge[1] - 1, edge[0] // 2]))
        offset = draw(st.integers(0, period - 1))
        x = np.zeros(n)
        x[offset::period] = 1.0
        x[offset::2 * period] = draw(st.sampled_from([1.0, 0.5, 2.0]))
        jitter = draw(st.sampled_from([0.0, 1e-12, 0.01]))
        x = x + jitter * rng.standard_normal(n)
    elif kind == "sine":
        f_hz = draw(st.sampled_from([0.2, 0.5, 3.5, 5.0]))
        x = np.sin(2 * np.pi * f_hz * np.arange(n) / fs)
    else:
        x = rng.standard_normal(n)
    x = np.array(x, dtype=float)
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.05, 0.25, 1.0]))
        x = np.round(x / step) * step
    if draw(st.booleans()):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a, n))
        x[a:b] = draw(st.sampled_from([0.0, float(np.min(x)), float(np.max(x)), -5.0]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 3]))):
        x[draw(st.integers(0, n - 1))] = np.nan
    x = x + draw(st.sampled_from([0.0, 0.0, 3.0, -3.0]))
    start = draw(st.sampled_from([0, 1_700_000_000_123]))
    return signals.SensorBurst("u", "ppg", start, fs, x)


def _outcome(detect, burst):
    try:
        return detect(burst).peak_times_ms.tobytes()
    except (ValueError, NoPlausiblePeaks) as err:
        return type(err)


class TestDetectPeaksOracle:
    @settings(max_examples=400, deadline=None)
    @given(peak_bursts())
    def test_matches_level_by_level_search(self, burst):
        assert _outcome(hrv.detect_peaks, burst) == _outcome(_oracle_detect_peaks, burst)

    def test_matches_on_band_passed_pulses(self):
        design = signals.default_design()
        for i, bpm in enumerate(np.linspace(40.0, 180.0, 15)):
            burst, _ = synth_ppg(bpm, 120, FS, 0.05 * (i % 4), seed=i)
            burst = signals.bandpass_filter(burst, design)
            assert _outcome(hrv.detect_peaks, burst) == _outcome(_oracle_detect_peaks, burst)


def _baseline(burst):
    return hrv._centered_mean(burst.samples,
                              max(1, int(round(hrv.BASELINE_SECONDS * burst.rate_hz))))


def _every_level(x, baseline, amp):
    """Each level's train from ``_level_trains``, a skipped level taking the
    train of the last level yielded before it."""
    yielded = list(hrv._level_trains(x, baseline, amp))
    levels = [k for k, _ in yielded]
    assert levels[0] == 0 and levels == sorted(set(levels))
    trains = []
    for k in range(len(hrv.RAISE_LEVELS_PERMILLE)):
        if yielded and yielded[0][0] == k:
            last = yielded.pop(0)[1]
        trains.append(last)
    return trains


def _assert_levels_match_oracle(x, baseline, amp):
    for k, (r, train) in enumerate(zip(hrv.RAISE_LEVELS_PERMILLE, _every_level(x, baseline, amp))):
        scale = r / 1000.0
        expect = _oracle_region_maxima(x, baseline * (1.0 + scale) + scale * amp)
        assert np.array_equal(train, expect), f"level {k}"


def _certificate_edge_burst(above):
    """A burst whose sample 100 has a baseline of about -1 and whose amp is
    ``fl(K * |baseline|)`` there (``above``) or one ulp below it, with the
    sample itself strictly between its lowest and highest raised baseline.

    The dip x[93:108] = -1 makes that baseline the most negative; the rest
    sits at -0.5 (baseline -0.5, certified with room), and the maximum at
    sample 120 is set so that ``amp`` lands on the wanted side of K |b|.
    Sample 100 is moved towards the middle of its thresholds, which moves
    its baseline a little, so the construction is repeated until it holds.
    """
    x = np.full(240, -0.5)
    x[93:108] = -1.0
    for _ in range(20):
        b = _baseline(signals.SensorBurst("u", "ppg", 0, FS, x))[100]
        target = hrv._RISE_RATIO * -b
        amp = target if above else np.nextafter(target, 0.0)
        x[120] = amp - 1.0
        t = [b * (1.0 + r / 1000.0) + r / 1000.0 * amp for r in hrv.RAISE_LEVELS_PERMILLE]
        lo, hi = min(t), max(t)
        burst = signals.SensorBurst("u", "ppg", 0, FS, x.copy())
        if (float(x.max() - x.min()) == amp and _baseline(burst)[100] == b
                and lo < x[100] < hi):
            return burst
        x[100] = (lo + hi) / 2
    raise AssertionError("no burst on the certificate's edge")


class TestLevelTrains:
    """``_level_trains`` against the per-level region search, level by level,
    including the levels the walk skips."""

    @settings(max_examples=300, deadline=None)
    @given(peak_bursts())
    def test_every_level_matches_region_search(self, burst):
        x = burst.samples
        amp = float(x.max() - x.min())
        if amp <= 1e-9:         # detect_peaks stops here
            return
        _assert_levels_match_oracle(x, _baseline(burst), amp)

    def test_every_level_matches_on_band_passed_pulses(self):
        design = signals.default_design()
        for i, bpm in enumerate(np.linspace(40.0, 180.0, 15)):
            burst, _ = synth_ppg(bpm, 120, FS, (0.0, 0.05, 0.2, 0.5)[i % 4], seed=i)
            burst = signals.bandpass_filter(burst, design)
            x = burst.samples
            _assert_levels_match_oracle(x, _baseline(burst), float(x.max() - x.min()))

    @pytest.mark.parametrize("above", [True, False])
    def test_amp_one_ulp_either_side_of_the_certificate(self, above, monkeypatch):
        burst = _certificate_edge_burst(above)
        x = burst.samples
        amp = float(x.max() - x.min())
        every_level = []
        level_peaks = hrv._level_peaks
        monkeypatch.setattr(hrv, "_level_peaks",
                            lambda *args: every_level.append(1) or level_peaks(*args))
        _assert_levels_match_oracle(x, _baseline(burst), amp)
        assert bool(every_level) != above       # the certificate chose the path
        trains = _every_level(x, _baseline(burst), amp)
        assert any(100 in t for t in trains) and not all(100 in t for t in trains)
        assert _outcome(hrv.detect_peaks, burst) == _outcome(_oracle_detect_peaks, burst)


class TestCleanNn:
    def test_all_kept(self):
        peaks = hrv.PeakTrain(np.arange(10) * 800.0)
        series = hrv.clean_nn(peaks)
        assert np.allclose(series.intervals_ms, 800.0) and series.intervals_ms.size == 9

    def test_spurious_peak_dropped(self):
        times = list(np.arange(10) * 800.0)
        times.insert(5, times[4] + 150.0)  # creates 150 ms and 650 ms intervals
        series = hrv.clean_nn(hrv.PeakTrain(np.array(sorted(times))))
        assert series.intervals_ms.min() >= 300.0
        assert series.intervals_ms.size == 9  # of 10 intervals, the 150 ms one went

    def test_too_few(self):
        with pytest.raises(TooFewIntervals):
            hrv.clean_nn(hrv.PeakTrain(np.array([0.0, 800.0, 1600.0])))


class TestHrvFeatures:
    def test_constant_series(self):
        nn = np.full(10, 800.0)
        f = hrv.hrv_features(nn, np.cumsum(nn))
        assert f.bpm == pytest.approx(75.0)
        assert f.sdnn == 0.0 and f.rmssd == 0.0 and f.pnn20 == 0.0
        assert f.sd1 == 0.0 and f.s == 0.0

    def test_hand_example(self):
        nn = [700.0, 800.0, 700.0, 800.0, 700.0]
        f = hrv.hrv_features(nn, np.cumsum(nn))
        assert f.ibi == pytest.approx(740.0)
        assert f.rmssd == pytest.approx(100.0)
        assert f.sdsd == pytest.approx(100.0)
        assert f.pnn50 == 1.0

    def test_matches_oracle_on_random_series(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nn = rng.uniform(500, 1100, size=rng.integers(6, 80)).tolist()
            f = hrv.hrv_features(nn, np.cumsum(nn))
            expect = oracle_features(nn)
            for name, value in expect.items():
                assert getattr(f, name) == pytest.approx(value, abs=1e-9), name

    def test_identities(self):
        rng = np.random.default_rng(8)
        nn = rng.uniform(600, 1000, 50)
        f = hrv.hrv_features(nn, np.cumsum(nn))
        assert f.bpm * f.ibi == pytest.approx(60_000.0, abs=1e-9)
        assert f.s - math.pi * f.sd1 * f.sd2 == 0.0
        assert f.sd1 ** 2 + f.sd2 ** 2 == pytest.approx(2 * f.sdnn ** 2, rel=1e-6)
        assert f.pnn50 <= f.pnn20

    def test_time_shift_invariance(self):
        nn, times = modulated_nn()
        a = hrv.hrv_features(nn, times)
        b = hrv.hrv_features(nn, times + 123_456_789.0)
        for name in hrv.HRV_FEATURE_NAMES:
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)

    def test_scaling(self):
        rng = np.random.default_rng(9)
        nn = rng.uniform(600, 1000, 60)
        c = 1.5
        a = hrv.hrv_features(nn, np.cumsum(nn))
        b = hrv.hrv_features(c * nn, np.cumsum(c * nn))
        for name in ("ibi", "sdnn", "sdsd", "rmssd", "hr_mad", "sd1", "sd2"):
            assert getattr(b, name) == pytest.approx(c * getattr(a, name), rel=1e-9)
        assert b.s == pytest.approx(c * c * a.s, rel=1e-9)
        assert b.bpm == pytest.approx(a.bpm / c, rel=1e-9)

    def test_too_few_intervals(self):
        with pytest.raises(TooFewIntervals):
            hrv.hrv_features([800.0] * 4, np.cumsum([800.0] * 4))


class TestBreathingRate:
    def test_modulated(self):
        nn, times = modulated_nn(rate_hz=0.25)
        br = hrv.estimate_br(nn, times)
        assert br.value == pytest.approx(15.0, abs=0.5)
        assert not br.low_confidence

    def test_constant_low_confidence(self):
        nn = np.full(60, 800.0)
        br = hrv.estimate_br(nn, np.cumsum(nn))
        assert br.low_confidence
        assert 6.0 <= br.value <= 24.0

    def test_insufficient_span(self):
        nn = np.full(20, 800.0)   # 16 s
        with pytest.raises(InsufficientSpan):
            hrv.estimate_br(nn, np.cumsum(nn))


class TestEndToEnd:
    def test_bpm_within_2(self):
        for bpm in (55.0, 75.0, 120.0):
            burst, _ = synth_ppg(bpm, 120, FS, 0.02, seed=[3, int(bpm)])
            filtered = signals.bandpass_filter(burst, signals.default_design())
            f = hrv.burst_hrv(filtered)
            assert abs(f.bpm - bpm) <= 2.0
