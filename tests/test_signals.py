"""Band-pass design/application, the peak detector's moving average and windowizing."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stressmon import signals
from stressmon.context import write_context_jsonl
from stressmon.errors import DataFormatError, InvalidBand, TooShort
from stressmon.hrv import _centered_mean
from stressmon.signals import (SensorBurst, bandpass_filter,
                               design_bandpass, default_design,
                               read_bursts_jsonl, windowize, write_bursts_jsonl)

FS = 20.0


def analog_gain_oracle(order, low, high, fs, f, passes=2):
    """Independent analog Butterworth band-pass magnitude at the pre-warped
    probe frequency (what the bilinear design realizes)."""
    warp = lambda x: 2.0 * fs * math.tan(math.pi * x / fs)
    w, wl, wh = warp(f), warp(low), warp(high)
    if w == 0.0:
        return 0.0
    omega = abs(w * w - wl * wh) / ((wh - wl) * w)
    return (1.0 + omega ** (2 * order)) ** (-passes / 2.0)


def measure_tone_gain(design, f, duration_s=120.0):
    """Steady-state gain of filtfilt at a probe tone, by projection onto the
    tone over the middle of a long record."""
    n = int(duration_s * FS)
    t = np.arange(n) / FS
    burst = SensorBurst("u", "ppg", 0, FS, np.sin(2 * np.pi * f * t))
    y = bandpass_filter(burst, design).samples
    mid = slice(int(20 * FS), int(100 * FS))
    c, s = np.cos(2 * np.pi * f * t[mid]), np.sin(2 * np.pi * f * t[mid])
    return 2.0 * np.hypot(np.dot(y[mid], c), np.dot(y[mid], s)) / (mid.stop - mid.start)


class TestDesign:
    def test_passband_gain_within_1db(self):
        gain = analog_gain_oracle(3, 0.7, 3.5, FS, 1.5, passes=1)
        assert abs(20 * np.log10(gain)) < 1.0

    def test_deep_stop_at_005hz(self):
        gain = analog_gain_oracle(3, 0.7, 3.5, FS, 0.05, passes=1)
        assert 20 * np.log10(gain) < -30.0

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            design_bandpass(3, 3.5, 0.7, FS)

    def test_stability(self):
        d = default_design()
        assert np.all(np.abs(np.roots(d.denominator)) < 1.0)


class TestBandpassFilter:
    def test_dc_rejected(self):
        d = default_design()
        burst = SensorBurst("u", "ppg", 0, FS, np.ones(int(120 * FS)))
        y = bandpass_filter(burst, d).samples
        assert np.abs(y[int(3 * FS):-int(3 * FS)]).max() < 1e-3

    def test_tone_gain_matches_oracle(self):
        d = default_design()
        measured = measure_tone_gain(d, 1.5)
        assert measured == pytest.approx(analog_gain_oracle(3, 0.7, 3.5, FS, 1.5), rel=0.05)

    def test_45hz_attenuated_12db(self):
        d = default_design()
        oracle = analog_gain_oracle(3, 0.7, 3.5, FS, 4.5)
        assert 20 * np.log10(oracle) < -12.0
        assert measure_tone_gain(d, 4.5) == pytest.approx(oracle, rel=0.05)

    def test_too_short(self):
        d = default_design()
        with pytest.raises(TooShort):
            bandpass_filter(SensorBurst("u", "ppg", 0, FS, np.ones(40)), d)

    def test_zero_phase(self):
        # pulse train: cross-correlation peak of filtered vs clean at lag 0
        from stressmon.sim import synth_ppg
        burst, _ = synth_ppg(75.0, 120, FS, 0.0, seed=0)
        d = default_design()
        y = bandpass_filter(burst, d).samples
        x = burst.samples - burst.samples.mean()
        lags = np.arange(-10, 11)
        corr = [np.dot(x[10:-10], y[10 + k:len(y) - 10 + k]) for k in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_linearity(self):
        d = default_design()
        rng = np.random.default_rng(1)
        x = rng.normal(size=400)
        y = rng.normal(size=400)
        fa = lambda v: bandpass_filter(SensorBurst("u", "ppg", 0, FS, v), d).samples
        lhs = fa(2.5 * x - 1.25 * y)
        rhs = 2.5 * fa(x) - 1.25 * fa(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_stopband_noise_power(self):
        d = default_design()
        rng = np.random.default_rng(2)
        burst = SensorBurst("u", "ppg", 0, FS, rng.normal(size=int(600 * FS)))
        y = bandpass_filter(burst, d).samples
        freqs = np.fft.rfftfreq(len(y), d=1 / FS)
        power = np.abs(np.fft.rfft(y)) ** 2
        stop = ((freqs <= 0.3) | (freqs >= 5.0))
        band = (freqs >= 0.7) & (freqs <= 3.5)
        assert power[stop].sum() < 0.05 * power[band].sum()


class TestMovingAverage:
    """`hrv._centered_mean`, the peak detector's baseline."""

    def test_constant(self):
        assert np.allclose(_centered_mean(np.full(100, 3.25), int(FS)), 3.25)

    def test_alternating_zero(self):
        out = _centered_mean(np.tile([1.0, -1.0], 100), int(FS))
        assert np.allclose(out[20:-20], 0.0)

    def test_impulse_plateau(self):
        x = np.zeros(51)
        x[25] = 1.0
        out = _centered_mean(x, 5)
        assert np.allclose(out[23:28], 0.2)
        assert np.allclose(out[:23], 0.0) and np.allclose(out[28:], 0.0)


def _burst(user, start_ms, seconds=120.0, channel="ppg", rate=FS):
    return SensorBurst(user, channel, start_ms, rate,
                       np.ones(int(seconds * rate)))


def _snap(user, ts, sensor="speed", payload=1.0):
    return user, ts, sensor, payload


def _windowize(tmp_path, bursts, snaps, keep=lambda user_id, start_ms: True):
    """windowize over files holding the given records, in the given order."""
    write_bursts_jsonl(tmp_path / "bursts.jsonl", bursts)
    write_context_jsonl(tmp_path / "context.jsonl", snaps)
    counts = {}
    wins = windowize(str(tmp_path / "bursts.jsonl"), str(tmp_path / "context.jsonl"),
                     keep, counts)
    assert counts == {"bursts": len(bursts), "context": len(snaps)}
    return wins


class TestWindowize:
    def test_single_burst_single_window(self, tmp_path):
        t0 = 36_000_000  # 10:00
        wins = _windowize(tmp_path, [_burst("u", t0)], [])
        assert len(wins) == 1
        assert wins[0].start_ms == t0 and wins[0].ppg is not None

    def test_straddling_burst_goes_to_start_slot(self, tmp_path):
        t = 36_000_000 + 14 * 60_000  # 10:14, runs past 10:15
        wins = _windowize(tmp_path, [_burst("u", t)], [])
        assert wins[0].start_ms == 36_000_000
        assert wins[0].ppg is not None and wins[0].ppg.start_time_ms == t

    def test_empty(self, tmp_path):
        assert _windowize(tmp_path, [], []) == []
        assert windowize(None, None, lambda user_id, start_ms: True, {}) == []

    def test_incomplete_burst_marks_missing(self, tmp_path):
        wins = _windowize(tmp_path, [_burst("u", 0, seconds=30.0)], [])
        assert wins[0].ppg is None

    def test_context_attachment(self, tmp_path):
        wins = _windowize(tmp_path, [_burst("u", 0)], [_snap("u", 10_000), _snap("u", 900_001)])
        assert len(wins) == 2
        assert wins[0].context == {"speed": 1.0} and wins[1].context == {"speed": 1.0}

    def test_partition_property(self, tmp_path):
        rng = np.random.default_rng(5)
        bursts = [_burst("a", int(rng.integers(0, 6 * 3_600_000)),
                         seconds=float(rng.choice([30, 120])))
                  for _ in range(25)]
        snaps = [_snap("a", int(rng.integers(0, 6 * 3_600_000)) // 600_000 * 600_000,
                       payload=float(i))
                 for i in range(40)]
        wins = _windowize(tmp_path, bursts, snaps)
        starts = [w.start_ms for w in wins]
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert all(start % 900_000 == 0 for start in starts)
        for w in wins:
            if w.ppg is not None:
                assert w.start_ms <= w.ppg.start_time_ms < w.end_ms
            # the latest snapshot of the slot, the later record on equal times
            in_slot = [(t, payload) for _, t, _, payload in snaps if w.start_ms <= t < w.end_ms]
            latest = max(in_slot, key=lambda tp: tp[0], default=None)
            if latest is not None:
                latest = [tp for tp in in_slot if tp[0] == latest[0]][-1]
            assert w.context == ({} if latest is None else {"speed": latest[1]})
        times = [b.start_time_ms for b in bursts] + [t for _, t, _, _ in snaps]
        assert set(starts) == {t // 900_000 * 900_000 for t in times}

    def test_users_kept_separate(self, tmp_path):
        wins = _windowize(tmp_path, [_burst("a", 0), _burst("b", 0)], [])
        assert sorted(w.user_id for w in wins) == ["a", "b"]

    def test_only_kept_slots_held(self, tmp_path):
        bursts = [_burst("a", 0), _burst("a", 900_000), _burst("b", 900_000)]
        wins = _windowize(tmp_path, bursts, [_snap("a", 1_000_000)],
                          keep=lambda user_id, start_ms: (user_id, start_ms) == ("a", 900_000))
        assert [(w.user_id, w.start_ms, w.context) for w in wins] == \
            [("a", 900_000, {"speed": 1.0})]

    def test_off_wrist_bursts_share_one_read_only_array(self, tmp_path):
        flat = [SensorBurst("u", "ppg", t, FS, np.zeros(2400)) for t in (0, 900_000)]
        wins = _windowize(tmp_path, flat, [])
        assert wins[0].ppg.samples is wins[1].ppg.samples
        assert not wins[0].ppg.samples.flags.writeable
        assert signals.off_wrist(wins[0].ppg.samples)

    def test_negative_zero_burst_stays_live(self, tmp_path):
        samples = np.zeros(2400)
        samples[3] = -0.0
        wins = _windowize(tmp_path, [SensorBurst("u", "ppg", 0, FS, samples)], [])
        assert not signals.off_wrist(wins[0].ppg.samples)
        assert wins[0].ppg.samples.flags.writeable


class TestTypesAndIo:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            SensorBurst("u", "nope", 0, FS, [1.0])
        with pytest.raises(ValueError):
            SensorBurst("u", "ppg", 0, FS, [])
        with pytest.raises(ValueError):
            SensorBurst("u", "ppg", 0, 0.0, [1.0])

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "bursts.jsonl"
        bursts = [_burst("u1", 0, seconds=2.0), _burst("u2", 900_000, seconds=1.5)]
        write_bursts_jsonl(path, bursts)
        back = read_bursts_jsonl(path)
        assert len(back) == 2
        assert back[0].user_id == "u1"
        assert np.array_equal(back[1].samples, bursts[1].samples)

    def test_corrupt_line_named(self, tmp_path):
        path = tmp_path / "bursts.jsonl"
        path.write_text('{"user_id":"u","channel":"ppg","start_time_ms":0,'
                        '"rate_hz":20.0,"samples":[1.0]}\nnot json\n')
        with pytest.raises(DataFormatError, match=r":2:"):
            read_bursts_jsonl(path)


def _reference_line(user_id, channel, start_time_ms, rate_hz, samples, arrival_ms):
    rec = {"user_id": user_id, "channel": channel, "start_time_ms": start_time_ms,
           "rate_hz": rate_hz, "samples": list(samples)}
    if arrival_ms is not None:
        rec["arrival_ms"] = arrival_ms
    return json.dumps(rec, separators=(",", ":"))


_SPECIAL_SAMPLES = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1e16, -1e16, 1e-5, -1e-5, 1.0, -3.0, 2400.0)


class TestBurstRecordOracle:
    """burst_record is json.dumps of the record, whatever the sample values."""

    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(st.one_of(
               st.floats(width=64),
               st.sampled_from(_SPECIAL_SAMPLES),
               st.floats(-3.0, 3.0).map(lambda x: round(x, 3)),
               st.floats(-3.0, 3.0).map(lambda x: round(x, 4)),
               st.integers(-10**17, 10**17).map(float)), min_size=1, max_size=200),
           user_id=st.text(min_size=1, max_size=4),
           channel=st.sampled_from(sorted(signals.CHANNELS)),
           start_time_ms=st.integers(-2**63, 2**63),
           rate_hz=st.floats(1e-3, 1e3),
           arrival_ms=st.none() | st.integers(0, 2**53))
    @example(samples=[-0.0, 0.0, 0.0, -0.0], user_id="u01", channel="ppg",
             start_time_ms=0, rate_hz=20.0, arrival_ms=None)
    @example(samples=[0.0, -0.0, math.nan, math.inf, -math.inf], user_id="u01",
             channel="accel_z", start_time_ms=900_000, rate_hz=4.0, arrival_ms=901_000)
    # off-wrist bursts (every sample +0.0) and the -0.0 bursts that are not
    @example(samples=[0.0] * 2400, user_id="u01", channel="ppg", start_time_ms=0,
             rate_hz=20.0, arrival_ms=None)
    @example(samples=[0.0] * 2400, user_id="u01", channel="ppg", start_time_ms=0,
             rate_hz=20.0, arrival_ms=121_000)
    @example(samples=[0.0] * 240, user_id="u02", channel="accel_x", start_time_ms=900_000,
             rate_hz=4.0, arrival_ms=None)
    @example(samples=[0.0] * 240, user_id="u02", channel="accel_x", start_time_ms=900_000,
             rate_hz=4.0, arrival_ms=1_021_000)
    @example(samples=[-0.0] * 2400, user_id="u01", channel="ppg", start_time_ms=0,
             rate_hz=20.0, arrival_ms=None)
    @example(samples=[-0.0] * 2400, user_id="u01", channel="ppg", start_time_ms=0,
             rate_hz=20.0, arrival_ms=121_000)
    @example(samples=[0.0] * 1200 + [-0.0] + [0.0] * 1199, user_id="u01", channel="ppg",
             start_time_ms=0, rate_hz=20.0, arrival_ms=None)
    @example(samples=[0.0] * 1200 + [-0.0] + [0.0] * 1199, user_id="u01", channel="ppg",
             start_time_ms=0, rate_hz=20.0, arrival_ms=121_000)
    def test_matches_json_dumps(self, samples, user_id, channel, start_time_ms, rate_hz,
                                arrival_ms):
        burst = SensorBurst(user_id, channel, start_time_ms, rate_hz, samples)
        assert signals.burst_record(burst, arrival_ms) == _reference_line(
            user_id, channel, start_time_ms, rate_hz, samples, arrival_ms)

    def test_table_filled_past_its_bound(self):
        samples = [-0.0, 0.0, *(np.arange(signals._SAMPLE_TEXT_MAX + 1000) / 7.0).tolist(),
                   0.0, -0.0, math.nan]
        burst = SensorBurst("u01", "accel_x", 0, 4.0, samples)
        assert signals.burst_record(burst, 7) == _reference_line(
            "u01", "accel_x", 0, 4.0, samples, 7)
        assert 0 < len(signals._SAMPLE_TEXT) <= signals._SAMPLE_TEXT_MAX
