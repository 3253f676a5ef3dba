"""Label-first streaming featurize against the load-everything composition.

``reference_matrix`` featurizes the load-everything way: read every
record, cut every occupied slot into a window, featurize every window into
a matrix row, label the rows and keep the labeled ones.
``cli.featurize_directory`` must write the same matrix bytes, while holding
only the labeled slots' PPG bursts and latest context.
"""
import os
import random
import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from stressmon import signals
from stressmon.cli import featurize_directory
from stressmon.context import ContextSchema, context_record, read_context_jsonl
from stressmon.dataset import (EmaResponse, binarize, ema_labeler, featurize_windows,
                               read_ema_csv, write_ema_csv, write_matrix_csv)
from stressmon.signals import RawWindow, SensorBurst, burst_record, read_bursts_jsonl
from stressmon.sim import ParticipantParams, SimConfig, run_simulation, synth_ppg

WINDOW_MS = signals.WINDOW_MS


def reference_windowize(bursts, records):
    """Every occupied slot of every user as a window, from records in memory.

    A slot's window takes its first complete PPG burst in record order and,
    of each sensor, the payload of its latest context record in the slot:
    the ``(user_id, timestamp_ms, sensor, payload)`` records are stably
    sorted by time, so the later record wins on equal times.
    """
    per_user = {}
    for burst in bursts:
        per_user.setdefault(burst.user_id, ([], []))[0].append(burst)
    for rec in records:
        per_user.setdefault(rec[0], ([], []))[1].append(rec)

    windows = []
    for user_id in sorted(per_user):
        user_bursts, user_records = per_user[user_id]
        times = [b.start_time_ms for b in user_bursts] + [t for _, t, _, _ in user_records]
        slots = {start: RawWindow(user_id=user_id, start_ms=start, end_ms=start + WINDOW_MS)
                 for start in sorted({(t // WINDOW_MS) * WINDOW_MS for t in times})}
        for burst in user_bursts:
            win = slots[(burst.start_time_ms // WINDOW_MS) * WINDOW_MS]
            complete = burst.channel == "ppg" and len(burst.samples) >= signals.BURST_SAMPLES
            if complete and win.ppg is None:
                win.ppg = burst
        for _, t, sensor, payload in sorted(user_records, key=lambda rec: rec[1]):
            slots[(t // WINDOW_MS) * WINDOW_MS].context[sensor] = payload
        windows.extend(slots.values())
    return windows


def reference_labeled(data_dir):
    """(matrix of the labeled windows, those raw windows) of a data directory."""
    context = os.path.join(data_dir, "context.jsonl")
    raw = reference_windowize(read_bursts_jsonl(os.path.join(data_dir, "bursts.jsonl")),
                              read_context_jsonl(context) if os.path.exists(context) else [])
    label5 = ema_labeler(read_ema_csv(os.path.join(data_dir, "ema.csv")))
    matrix = featurize_windows(raw, ContextSchema(zones=[]))
    for i, win in enumerate(raw):
        level = label5(win.user_id, win.start_ms)
        if level is not None:
            matrix.labels[i] = binarize(level)
    keep = np.flatnonzero(~np.isnan(matrix.labels))
    return matrix.select_rows(keep), [raw[i] for i in keep]


def reference_matrix(data_dir):
    return reference_labeled(data_dir)[0]


def matrix_bytes(matrix, path):
    write_matrix_csv(matrix, path)
    with open(path, "rb") as fh:
        return fh.read()


# -- random record sets -----------------------------------------------------------

_PULSES = [synth_ppg(60.0 + 15 * k, 120, signals.PPG_RATE_HZ, 0.05, seed=k)[0].samples
           for k in range(3)]
_NEG_ZERO = np.zeros(2400)
_NEG_ZERO[700] = -0.0
#: PPG sample runs: pulse trains, a longer one, the off-wrist burst, a flat
#: burst holding one -0.0 sample, and two incomplete ones.
PPG_SAMPLES = [*_PULSES, np.concatenate([_PULSES[0], _PULSES[1][:300]]),
               np.zeros(2400), _NEG_ZERO, _PULSES[2][:600], np.ones(40)]

USERS = ("u01", "u02")
#: Slot numbers: neighbours inside one 8-hour label horizon, one 12.5 hours
#: on, and one about 28 years on.
SLOTS = (0, 1, 2, 5, 50, 10 ** 6)
OFFSETS_MS = (0, 60_000, 600_000, WINDOW_MS - 1)   # few, so times collide

_time = st.tuples(st.sampled_from(SLOTS), st.sampled_from(OFFSETS_MS)).map(
    lambda so: so[0] * WINDOW_MS + so[1])
_burst = st.builds(
    lambda user, channel, t, k: SensorBurst(
        user, channel, t, signals.PPG_RATE_HZ if channel == "ppg" else 4.0,
        PPG_SAMPLES[k] if channel == "ppg" else np.full(240, 0.5 + k)),
    st.sampled_from(USERS), st.sampled_from(["ppg", "ppg", "ppg", "accel_x", "accel_z"]),
    _time, st.integers(0, len(PPG_SAMPLES) - 1))
_snapshot = st.builds(
    lambda user, t, sensor_payload: (user, t, *sensor_payload),
    st.sampled_from(USERS), _time,
    st.one_of(st.tuples(st.just("speed"), st.sampled_from([0.0, 3.0, 7.5])),
              st.tuples(st.just("battery_level"), st.sampled_from([5.0, 30.0, None])),
              st.tuples(st.just("weather"), st.sampled_from(["rain", "clear", 3])),
              st.tuples(st.just("location"), st.sampled_from([[1.0, 2.0], [3.0, 4.0, 5.0]]))))
#: EMA delays after a slot's start: inside, at the edge of and past the
#: 8-hour label horizon.
_EMA_DELAYS_MS = (0, 60_000, 3_600_000, 28_800_000, 30_000_000)
_ema = st.builds(EmaResponse, st.sampled_from(USERS),
                 st.tuples(st.sampled_from(SLOTS), st.sampled_from(_EMA_DELAYS_MS)).map(
                     lambda sd: sd[0] * WINDOW_MS + sd[1]),
                 st.integers(1, 5))


def write_records(data_dir, bursts, snapshots, emas, seed):
    """Write the three input files with each file's lines in a shuffled order."""
    rng = random.Random(seed)
    bursts, snapshots, emas = (rng.sample(x, len(x)) for x in (bursts, snapshots, emas))
    with open(os.path.join(data_dir, "bursts.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(burst_record(b) + "\n" for b in bursts)
    if snapshots:
        with open(os.path.join(data_dir, "context.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(context_record(*s) + "\n" for s in snapshots)
    write_ema_csv(os.path.join(data_dir, "ema.csv"), emas)


@settings(max_examples=60, deadline=None)
@given(bursts=st.lists(_burst, max_size=10), snapshots=st.lists(_snapshot, max_size=14),
       emas=st.lists(_ema, max_size=5), seed=st.integers(0, 2 ** 16))
def test_featurize_directory_equals_reference(bursts, snapshots, emas, seed):
    with tempfile.TemporaryDirectory() as tmp:
        write_records(tmp, bursts, snapshots, emas, seed)
        expected = matrix_bytes(reference_matrix(tmp), os.path.join(tmp, "reference.csv"))
        got = matrix_bytes(featurize_directory(tmp), os.path.join(tmp, "matrix.csv"))
    assert got == expected


def test_reference_covers_the_cases():
    """The pool above holds each case the property test is meant to meet."""
    assert [signals.off_wrist(s) for s in PPG_SAMPLES] == [False] * 4 + [True] + [False] * 3
    assert sum(len(s) >= signals.BURST_SAMPLES for s in PPG_SAMPLES) == 6
    assert (max(SLOTS) - min(SLOTS)) * WINDOW_MS > 365 * 86_400_000


def test_two_complete_bursts_in_one_slot_keep_the_first_line(tmp_path):
    first, second = (SensorBurst("u01", "ppg", t, signals.PPG_RATE_HZ, s)
                     for t, s in ((600_000, _PULSES[0]), (0, _PULSES[1])))
    (tmp_path / "bursts.jsonl").write_text(burst_record(first) + "\n" + burst_record(second) + "\n")
    write_ema_csv(tmp_path / "ema.csv", [EmaResponse("u01", 1_000_000, 3)])
    counts = {}
    windows = signals.windowize(str(tmp_path / "bursts.jsonl"), None,
                                lambda user_id, start_ms: True, counts)
    assert [w.ppg.start_time_ms for w in windows] == [600_000]
    assert counts == {"bursts": 2, "context": 0}
    assert matrix_bytes(featurize_directory(tmp_path), tmp_path / "m.csv") == \
        matrix_bytes(reference_matrix(str(tmp_path)), tmp_path / "r.csv")


# -- memory -------------------------------------------------------------------

#: Featurize may hold this many copies of the labeled on-wrist PPG samples
#: at its peak: the held samples, the filter buffer, and some headroom for
#: the buffer's padding, the labeled context and the burst in the detector.
PPG_COPIES = 2.5
#: Allocations that do not grow with the cohort: one burst's peak detector
#: (about 1 MB for 60 raise levels), line decoding and small tables.
SLACK_BYTES = 3_000_000


def test_featurize_peak_memory_bounded_by_labeled_ppg(tmp_path):
    cfg = SimConfig(n_users=2, days=1, seed=5,
                    participants=ParticipantParams(stress_bpm_delta=9.0,
                                                   baseline_bpm_range=(60.0, 84.0)))
    run_simulation(cfg, tmp_path)
    # the reference also loads every module featurize reaches, so imports
    # are not traced below
    ppg_bytes = sum(r.ppg.samples.nbytes for r in reference_labeled(str(tmp_path))[1]
                    if r.ppg is not None and not signals.off_wrist(r.ppg.samples))
    assert ppg_bytes > 1_000_000
    tracemalloc.start()
    try:
        featurize_directory(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PPG_COPIES * ppg_bytes + SLACK_BYTES, (peak, ppg_bytes)
