"""Tests of the benchmark's tracer: self times, restoring patches, window fates."""
import json
import os
import sys

import numpy as np
import pytest

import tracing
from stressmon import dataset, signals
from stressmon.context import ContextSchema
from stressmon.sim import synth_ppg

FS = 20.0
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(root)
    assert tracer.durations().tolist() == [10, 3, 1, 4]
    assert tracer.self_times().tolist() == [3, 2, 1, 4]
    assert tracer.self_times().sum() == tracer.durations()[root]
    assert tracer.parents == [-1, 0, 1, 0]


def test_spans_must_close_in_order():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def _attributes():
    """Identity snapshot of every attribute of every stressmon module and class."""
    snap = {}
    for module in tracing.loaded_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("stressmon"):
                for attr, member in vars(value).items():
                    snap[(value.__module__, value.__qualname__, attr)] = member
    return snap


def test_install_patches_every_binding_and_uninstall_restores_them():
    from stressmon import cli, learn, sim
    before = _attributes()
    original_record = signals.burst_record
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # A name imported with `from .signals import burst_record` is traced too.
        assert sim.burst_record is signals.burst_record is not original_record
        assert learn.grouped_cv is learn.evaluate.grouped_cv is cli.grouped_cv
        assert dataset.KnnImputer.transform.__wrapped__ is not None
    finally:
        tracer.uninstall()
    after = _attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert tracer.restored()


def _window(samples, start_ms=0):
    burst = None if samples is None else signals.SensorBurst(
        "u01", "ppg", start_ms, FS, np.asarray(samples, dtype=float))
    return signals.RawWindow("u01", start_ms, start_ms + 900_000, ppg=burst)


def test_fate_counter_on_hand_built_windows():
    beats, _ = synth_ppg(60.0, 120, FS, 0.0, seed=1)
    few_beats = beats.samples.copy()
    few_beats[int(4.5 * FS):] = 0.0                  # four beats, then silence
    windows = [_window(None), _window(None),
               _window(np.ones(40)),                  # under three filter transients
               _window(np.zeros(2400)),               # flat: no plausible peaks
               _window(few_beats),                    # three NN intervals
               _window(beats.samples), _window(beats.samples)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dataset.featurize_windows(windows, ContextSchema(zones=[]))
        signals.bandpass_filter(windows[-1].ppg, signals.default_design())  # outside featurize
    finally:
        tracer.uninstall()
    assert tracer.fates.counts == {"no_ppg": 2, "too_short": 1, "no_plausible_peaks": 1,
                                   "too_few_intervals": 1, "hrv_ok": 2}


def test_metric_names_match_benchmark_json():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
