"""The numpy band-pass against scipy.signal, bit for bit, and the batched featurize path.

scipy is imported here only: ``stressmon`` itself must not need it.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import butter, filtfilt

import stressmon
from stressmon import dataset, hrv, signals
from stressmon.context import CONTEXT_FEATURE_NAMES, ContextSchema, extract_context_features
from stressmon.errors import (InsufficientSpan, NoPlausiblePeaks, TooFewIntervals, TooShort,
                              Unstable)
from stressmon.sim import synth_ppg

FS = signals.PPG_RATE_HZ
BANDS = ((0.7, 3.5), (0.1, 0.5), (0.5, 8.0), (1.0, 1.2), (0.05, 9.0))
RATES = (20.0, 25.0, 64.0, 100.0)


def bits(x):
    """int64 view, so -0.0 differs from 0.0 and every last bit counts."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def scipy_rows(rows, design):
    return np.stack([filtfilt(design.numerator, design.denominator, row) for row in rows])


def bandpass_rows(rows, design):
    """The rows as PPG bursts at the design's rate, band-passed by one
    ``bandpass_bursts`` call, stacked back into rows."""
    bursts = [signals.SensorBurst("u", "ppg", 0, design.rate_hz, row) for row in rows]
    return np.stack([burst.samples for burst in signals.bandpass_bursts(bursts, design)])


@pytest.mark.parametrize("order", range(1, 7))
def test_design_bit_equal_to_scipy_butter(order):
    checked = 0
    for rate in RATES:
        for low, high in BANDS:
            if high >= rate / 2:
                continue
            b, a = butter(order, [low, high], btype="bandpass", fs=rate)
            if np.any(np.abs(np.roots(a)) >= 1.0):
                with pytest.raises(Unstable):
                    signals.design_bandpass(order, low, high, rate)
                continue
            design = signals.design_bandpass(order, low, high, rate)
            assert np.array_equal(bits(design.numerator), bits(b)), (rate, low, high)
            assert np.array_equal(bits(design.denominator), bits(a)), (rate, low, high)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("order,low,high,rate", [
    (3, 0.7, 3.5, 20.0), (1, 0.5, 8.0, 25.0), (2, 0.1, 0.5, 20.0),
    (4, 0.7, 3.5, 64.0), (5, 0.5, 8.0, 100.0), (6, 0.05, 9.0, 25.0)])
def test_kernel_bit_equal_to_filtfilt_on_random_rows(order, low, high, rate):
    design = signals.design_bandpass(order, low, high, rate)
    rng = np.random.default_rng(order)
    for n in (design.min_samples, 257, 2400):
        rows = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(7, n))
        assert np.array_equal(bits(bandpass_rows(rows, design)),
                              bits(scipy_rows(rows, design)))


def test_one_row_batch_and_bandpass_filter_bit_equal():
    design = signals.default_design()
    burst, _ = synth_ppg(72.0, 120, FS, 0.08, seed=3)
    ref = filtfilt(design.numerator, design.denominator, burst.samples)
    assert np.array_equal(bits(bandpass_rows([burst.samples], design)[0]), bits(ref))
    assert np.array_equal(bits(signals.bandpass_filter(burst, design).samples), bits(ref))


def test_zero_and_constant_rows_mixed_with_live_rows():
    design = signals.default_design()
    rng = np.random.default_rng(4)
    rows = np.stack([np.zeros(400), rng.normal(size=400), np.full(400, 3.25),
                     np.zeros(400), np.full(400, -0.0), np.full(400, -2.0),
                     np.r_[np.zeros(200), rng.normal(size=200)]])
    out = bandpass_rows(rows, design)
    assert np.array_equal(bits(out), bits(scipy_rows(rows, design)))
    assert not bits(out[[0, 3]]).any()          # all +0.0, skipped by the kernel
    bursts = [signals.SensorBurst("u", "ppg", 0, FS, row) for row in rows]
    back = list(signals.bandpass_bursts(bursts, design))
    assert [b is a for a, b in zip(bursts, back)] == [True, False, False, True] + [False] * 3
    only_zeros = bandpass_rows(np.zeros((2, 400)), design)
    assert np.array_equal(bits(only_zeros), bits(scipy_rows(np.zeros((2, 400)), design)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=63, max_value=300), n_rows=st.integers(1, 5),
       data=st.data())
def test_kernel_matches_filtfilt_property(n, n_rows, data):
    design = signals.default_design()
    values = st.one_of(st.just(0.0), st.just(-0.0), st.just(1.0),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
    rows = np.array([data.draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n_rows)])
    assert np.array_equal(bits(bandpass_rows(rows, design)),
                          bits(scipy_rows(rows, design)))


def test_bandpass_bursts_rejects_mixed_input():
    design = signals.default_design()
    ppg = signals.SensorBurst("u", "ppg", 0, FS, np.ones(2400))
    with pytest.raises(ValueError):
        signals.bandpass_bursts([ppg, signals.SensorBurst("u", "ppg", 0, FS, np.ones(2000))],
                                design)
    with pytest.raises(ValueError):
        signals.bandpass_bursts([ppg, signals.SensorBurst("u", "accel_x", 0, FS, np.ones(2400))],
                                design)
    with pytest.raises(TooShort):
        signals.bandpass_bursts([signals.SensorBurst("u", "ppg", 0, FS, np.ones(40))] * 2,
                                design)


def _window(samples, start_ms):
    burst = None if samples is None else signals.SensorBurst("u01", "ppg", start_ms, FS, samples)
    return signals.RawWindow("u01", start_ms, start_ms + signals.WINDOW_MS, ppg=burst)


def one_at_a_time(raw_windows, schema):
    """featurize_windows as it was: one band-pass call per window, rows by name."""
    design = signals.default_design()
    rows = []
    for raw in raw_windows:
        features = None
        if raw.ppg is not None:
            try:
                features = hrv.burst_hrv(signals.bandpass_filter(raw.ppg, design))
            except (TooShort, NoPlausiblePeaks, TooFewIntervals, InsufficientSpan):
                features = None
        context = extract_context_features(raw.context, schema)
        rows.append([np.nan if features is None else getattr(features, name)
                     for name in hrv.HRV_FEATURE_NAMES]
                    + [np.nan if context[name] is None else context[name]
                       for name in CONTEXT_FEATURE_NAMES])
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("block_rows", [2, 1024])
def test_featurize_blocks_equal_one_burst_at_a_time(monkeypatch, block_rows):
    monkeypatch.setattr(dataset, "_FILTER_BLOCK_ROWS", block_rows)
    samples = [synth_ppg(60.0 + 4 * k, 120 + 30 * (k % 2), FS, 0.08, seed=k)[0].samples
               for k in range(7)]
    samples[2] = np.zeros(2400)                  # off-wrist
    samples[5] = np.zeros(3000)
    samples.append(np.ones(40))                  # too short to filter
    windows = [_window(s, k * signals.WINDOW_MS) for k, s in enumerate(samples)]
    windows.insert(3, _window(None, 99 * signals.WINDOW_MS))
    windows[1].context = {"screen_status": 1.0, "battery_level": 30.0}
    schema = ContextSchema(zones=[])
    got = dataset.featurize_windows(windows, schema)
    assert np.array_equal(bits(got.values), bits(one_at_a_time(windows, schema)))
    assert got.groups == ["u01"] * len(windows)
    assert got.window_starts.tolist() == [w.start_ms for w in windows]
    observed = ~np.isnan(got.values)
    assert observed[:, :len(hrv.HRV_FEATURE_NAMES)].all(axis=1).sum() == 5
    assert observed[:, len(hrv.HRV_FEATURE_NAMES):].sum() == 2


def test_featurize_imports_no_scipy(tmp_path):
    """A simulate + featurize run through the CLI never loads scipy."""
    (tmp_path / "config.json").write_text(json.dumps({"n_users": 1, "days": 1, "seed": 3}))
    script = (
        "import sys\n"
        "from stressmon import cli\n"
        f"assert cli.main(['simulate', '--config', {str(tmp_path / 'config.json')!r},"
        f" '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        f"assert cli.main(['featurize', '--data', {str(tmp_path / 'sim')!r},"
        f" '--out', {str(tmp_path / 'matrix.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stressmon.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "matrix.csv").exists()
