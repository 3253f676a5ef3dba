"""Simulator: cadence, routing, conservation, causality, determinism."""
import collections
import contextlib
import hashlib
import heapq
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stressmon import cli, sim as sim_mod
from stressmon.cli import featurize_directory
from stressmon.context import CONTEXT_FEATURE_NAMES
from stressmon.errors import ConfigError
from stressmon.sema import DAY_MS
from stressmon.sim import (CONTEXT_LATENCY_MS, DEFAULT_ZONES, NetworkParams,
                           ParticipantParams, SimConfig, _arrival_order, _merged, _Simulation,
                           run_simulation, synth_ppg)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestSynthPpg:
    def test_60bpm_exact_beats(self):
        burst, peaks = synth_ppg(60.0, 120, 20.0, 0.0, seed=0)
        assert len(peaks) == 120
        assert np.allclose(np.diff(peaks), 1000.0)
        assert len(burst.samples) == 2400

    def test_ramp_beat_count(self):
        n = int(120 * 20)
        bpm = np.linspace(60.0, 90.0, n)
        _, peaks = synth_ppg(bpm, 120, 20.0, 0.0, seed=0)
        # beats = integral of rate: mean 75 BPM over 2 min -> 150
        expected = np.trapezoid(bpm / 60.0, dx=1 / 20.0)
        assert abs(len(peaks) - expected) <= 1.0

    def test_seeds_change_noise_not_truth(self):
        b1, p1 = synth_ppg(72.0, 60, 20.0, 0.1, seed=1)
        b2, p2 = synth_ppg(72.0, 60, 20.0, 0.1, seed=2)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(b1.samples, b2.samples)

    def test_bpm_bounds(self):
        with pytest.raises(ValueError):
            synth_ppg(30.0, 60, 20.0, 0.0, seed=0)


def _oracle_synth_ppg(bpm_trace, duration_s, rate_hz, noise_level, seed,
                      start_time_ms=0, pulse_width_s=0.08):
    """The per-beat pulse loop that the index-block synthesis replaced."""
    n = int(round(duration_s * rate_hz))
    bpm = np.broadcast_to(np.asarray(bpm_trace, dtype=float), (n,))
    dt = 1.0 / rate_hz
    phase = np.concatenate(([0.0], np.cumsum(bpm / 60.0) * dt))
    t_grid = np.arange(n + 1) * dt
    n_beats = int(math.floor(phase[-1] - 1e-12)) + 1
    beat_times = np.interp(np.arange(n_beats), phase, t_grid)
    beat_times = beat_times[beat_times < duration_s - 1e-12]
    t = np.arange(n) * dt
    x = np.zeros(n)
    half = max(1, int(round(5 * pulse_width_s * rate_hz)))
    for bt in beat_times:
        c = int(round(bt * rate_hz))
        lo, hi = max(0, c - half), min(n, c + half + 1)
        x[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - bt) / pulse_width_s) ** 2)
    if noise_level > 0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_level, n)
    return x, start_time_ms + beat_times * 1000.0


class TestSynthPpgOracle:
    @settings(max_examples=300, deadline=None)
    @given(rate_hz=st.sampled_from([4.0, 20.0, 25.0, 30.0, 7.3]),
           duration_s=st.floats(1.0, 130.0),
           bpm=st.one_of(st.floats(40.0, 180.0), st.tuples(st.integers(0, 2**31),
                                                           st.floats(40.0, 180.0))),
           pulse_width_s=st.floats(0.01, 0.3),
           noise=st.sampled_from([0.0, 0.08]),
           start=st.sampled_from([0, 1_700_000_000_000]))
    def test_matches_per_beat_loop(self, rate_hz, duration_s, bpm, pulse_width_s,
                                   noise, start):
        n = int(round(duration_s * rate_hz))
        if isinstance(bpm, tuple):   # a per-sample trace: random walk in 40..180
            rng = np.random.default_rng(bpm[0])
            bpm = np.clip(bpm[1] + np.cumsum(rng.normal(0.0, 2.0, n)), 40.0, 180.0)
        burst, truth = synth_ppg(bpm, duration_s, rate_hz, noise, seed=3,
                                 start_time_ms=start, pulse_width_s=pulse_width_s)
        x, expect = _oracle_synth_ppg(bpm, duration_s, rate_hz, noise, seed=3,
                                      start_time_ms=start, pulse_width_s=pulse_width_s)
        assert burst.samples.tobytes() == x.tobytes()
        assert truth.tobytes() == expect.tobytes()

    def test_clipped_pulses_and_half_sample_centres(self):
        # 150 BPM at 20 Hz over 11.95 s: the last beat's pulse runs past the
        # 239th sample; 120 BPM at 25 Hz puts every other beat on an exact
        # half sample, where the centre rounds half to even.
        for bpm, rate_hz, seconds in ((150.0, 20.0, 11.95), (120.0, 25.0, 12.0)):
            for width in (0.08, 0.3):
                burst, truth = synth_ppg(bpm, seconds, rate_hz, 0.0, seed=0,
                                         pulse_width_s=width)
                x, expect = _oracle_synth_ppg(bpm, seconds, rate_hz, 0.0, seed=0,
                                              pulse_width_s=width)
                assert burst.samples.tobytes() == x.tobytes()
                assert truth.tobytes() == expect.tobytes()


class TestGoldenOutputs:
    """Bytes that must not change while the simulator and detector are reworked.

    The config is test_c10_pipeline_determinism's; the digests were recorded
    with the per-beat pulse loop and the level-by-level peak search.
    """

    CONFIG = {"n_users": 3, "days": 1, "seed": 77,
              "participants": {"stress_bpm_delta": 9.0,
                               "baseline_bpm_range": [60.0, 84.0]}}
    SHA256 = {
        "sim/bursts.jsonl": "4b9f282eac4fdeec285f54382b4eba04af2e10d8b3430b0de79d0fa5ff7ef3be",
        "sim/context.jsonl": "bc7c42b12b1b6e8cc8702245f945e1f9ef9909dfebc47470ada0a6a467d13f07",
        "sim/ema.csv": "c9a2b007f213b7eb6b8227ac0ba064b60a93ddeca99cfdbd7a1f4a222bc057af",
        "sim/triggers.jsonl": "0971fd7e1e3e53f402520507032df1073d3cfff0ff21d7c731271fa95711a97a",
        "sim/latent.csv": "c06404c0c7195f78d2ad2b1f060b66eaadf5e77c47f4e00660f9208b54fa74ad",
        "sim/zones.json": "b477949946e407119af97983846cf219b32b8a784640347afa1e601d265e44b9",
        "matrix.csv": "89e06245af59eb9c4c3cb1e3c5d45609d21daf81e1e0994c9e65b17012addafb",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        (root / "config.json").write_text(json.dumps(self.CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(root / "config.json"),
                             "--out", str(root / "sim")]) == 0
            assert cli.main(["featurize", "--data", str(root / "sim"),
                             "--out", str(root / "matrix.csv")]) == 0
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in self.SHA256}

    @pytest.mark.parametrize("name", [n for n in SHA256 if n.startswith("sim/")])
    def test_simulate_file(self, outputs, name):
        assert outputs[name] == self.SHA256[name]

    def test_matrix(self, outputs):
        assert outputs["matrix.csv"] == self.SHA256["matrix.csv"]


class TestGoldenOutageOrder:
    """Bytes that pin the order in which delayed context snapshots arrive.

    Snapshots emitted while Wi-Fi is out all arrive when it is back, so their
    order in context.jsonl is decided by emit order and tie-breaking alone.
    The outages start at 0, nest and overlap with the inner ones listed
    first, and the last runs past the study's end.  Wi-Fi is out over their
    union, so every snapshot emitted before 3:00 waits for 3:00, whichever
    listed outage it falls in.  Every habit override is on.  The digests
    were recorded with the simulator's single event heap, before context
    left it; context.jsonl's was recorded again when the outages became
    their union (before, a snapshot waited for the end of the first listed
    outage holding it, and 943 were uploaded while Wi-Fi was still out).
    """

    CONFIG = {"n_users": 4, "days": 2, "seed": 31, "tz_offset_ms": -25_200_000,
              "participants": {"stress_bpm_delta": 9.0,
                               "baseline_bpm_range": [60.0, 84.0]},
              "network": {"wifi_outages_ms": [[0, 1_800_000],
                                              [3_600_000, 5_400_000],
                                              [0, 10_800_000],
                                              [165_600_000, 180_000_000]]},
              "per_user": {"u02": {"invert_context": True, "baseline_bpm": 98.0},
                           "u03": {"neutral_context": True, "screen_coupled": True},
                           "u04": {"neutral_context": True, "device_on_coupled": True,
                                   "stress_bpm_delta": 0.0}}}
    SHA256 = {
        "bursts.jsonl": "807c61bfae2d90434f61a4581fbd45add1f0bb3db1f64fa0615d433c871c3ffc",
        "context.jsonl": "f44c3c65477a9c8a97d486e73caa22ccd14d0ea960dc9da428df76743e04c91c",
        "ema.csv": "cb4c3b5b3b6af71b6f6133abc280dcd78b46ca889fbaafab162f9bbeeb99c44b",
        "triggers.jsonl": "59f51515dddd94ac1b39afcbcba0e732c6ceb9388c626af33b106379bba56f22",
        "latent.csv": "7ee5b8fdbc01969c8861af7f1131cdc61edf5f85b0abf83c73167a908bb06dd6",
        "zones.json": "b477949946e407119af97983846cf219b32b8a784640347afa1e601d265e44b9",
    }

    @pytest.fixture(scope="class")
    def sim_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_outage")
        (root / "config.json").write_text(json.dumps(self.CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(root / "config.json"),
                             "--out", str(root / "sim")]) == 0
        return root / "sim"

    @pytest.mark.parametrize("name", list(SHA256))
    def test_simulate_file(self, sim_dir, name):
        assert hashlib.sha256((sim_dir / name).read_bytes()).hexdigest() == self.SHA256[name]

    def test_no_snapshot_is_uploaded_while_wifi_is_out(self, sim_dir):
        outages = self.CONFIG["network"]["wifi_outages_ms"]
        uploads = [rec["arrival_ms"] - CONTEXT_LATENCY_MS
                   for rec in read_jsonl(sim_dir / "context.jsonl")]
        inside = [t for t in uploads if any(s <= t < e for s, e in outages)]
        assert len(inside) == 0, f"{len(inside)} of {len(uploads)} uploaded during an outage"
        assert 10_800_000 in uploads        # the snapshots held back by the union


class TestGoldenHabitCombinations:
    """Bytes that pin which habit override wins when flags combine.

    u01 sets both invert and neutral context (neutral wins), u02 inverts
    context with both coupled habits on, u03 has neutral context with both
    coupled habits on, and u04 has none.  The digests were recorded with the
    simulator that kept each flag as a participant attribute, before the
    flags became one (stressed, calm) pair per context sensor.
    """

    CONFIG = {"n_users": 4, "days": 2, "seed": 17, "tz_offset_ms": 3_600_000,
              "network": {"wifi_outages_ms": [[30_000_000, 40_000_000]]},
              "per_user": {"u01": {"invert_context": True, "neutral_context": True},
                           "u02": {"invert_context": True, "screen_coupled": True,
                                   "device_on_coupled": True},
                           "u03": {"neutral_context": True, "screen_coupled": True,
                                   "device_on_coupled": True}}}
    SHA256 = {
        "bursts.jsonl": "0c2fbc8ad17e08a0158946027996e1eab81756262e4586b2e30a2ec2bc632804",
        "context.jsonl": "1a7f1b4580bfbebc1e0238357c166c282e18c2751c8691022e6e6f9bbfe55e2a",
        "ema.csv": "825a9f19234529c47acbe4c41b9b928679dfb0a0ccff5180ed99b99552ff075f",
        "triggers.jsonl": "6ae47606632626ef80e751f96b39ca3c573a6cd3cc1c3d8fe6a02e5d25c4bda9",
        "latent.csv": "bbab84bcb3ffe1718362029e9c4202caaf779347afd77a355ebcaf7ad1c54cce",
        "zones.json": "b477949946e407119af97983846cf219b32b8a784640347afa1e601d265e44b9",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_habits")
        (root / "config.json").write_text(json.dumps(self.CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(root / "config.json"),
                             "--out", str(root / "sim")]) == 0
        return {name: hashlib.sha256((root / "sim" / name).read_bytes()).hexdigest()
                for name in self.SHA256}

    @pytest.mark.parametrize("name", list(SHA256))
    def test_simulate_file(self, outputs, name):
        assert outputs[name] == self.SHA256[name]


class TestGoldenDeliveryEdges:
    """Bytes that pin burst, sEMA and EMA order where delivery times meet.

    Bursts are sent at 2:00 past each slot.  The first outage ends exactly
    at slot 1's send time, so slot 0 goes over Bluetooth and slot 1 over
    Wi-Fi.  The second starts at slot 3's send time, which is also when
    slot 0's Bluetooth copy arrives.  The third runs from 47:00 past the
    study's end, so the last slots arrive after the last sEMA evaluation.
    Every prompt is answered, so answers of neighbouring evaluations
    interleave in ema.csv.  The digests were recorded with the simulator's
    event heap.
    """

    CONFIG = {"n_users": 3, "days": 2, "seed": 13,
              "participants": {"ema_compliance": 1.0},
              "network": {"wifi_outages_ms": [[120_000, 1_020_000],
                                              [2_820_000, 3_720_000],
                                              [169_200_000, 180_000_000]]}}
    SHA256 = {
        "bursts.jsonl": "cb263c07ba0f2c54c742686556984b3da090e8a48953c0809462ebfa08c615c1",
        "context.jsonl": "5f4d11e8c26e5bbeadb9757425b0258b9d587767709d29d922c038590b65eba7",
        "ema.csv": "d4172b3bbe39632c0cb6b67bcaca5a7e4f428a451d5b5a1cae3d283455bc40d7",
        "triggers.jsonl": "27b65fbfe1e8b00e95038694637dc200b6d1fab152158d7bf18fbb3224d39c2f",
        "latent.csv": "6cd68c1d2bd227ef8cbcfb1fc92a71333d16201d65413064ff31cf3735a9fba4",
        "zones.json": "b477949946e407119af97983846cf219b32b8a784640347afa1e601d265e44b9",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_edges")
        (root / "config.json").write_text(json.dumps(self.CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--config", str(root / "config.json"),
                             "--out", str(root / "sim")]) == 0
        return {name: hashlib.sha256((root / "sim" / name).read_bytes()).hexdigest()
                for name in self.SHA256}

    @pytest.mark.parametrize("name", list(SHA256))
    def test_simulate_file(self, outputs, name):
        assert outputs[name] == self.SHA256[name]


def _heap_arrival_order(streams, outage_end_after):
    """The event loop the context merge replaced: one heap of every emit and arrival.

    Handling an emit schedules its arrival (unless blacked out) and then the
    stream's next emit; ties in time go to the event scheduled first.
    """
    streams = [iter(stream) for stream in streams]
    heap, seq = [], itertools.count()
    for i, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            heapq.heappush(heap, (first[0], next(seq), "emit", (i, first[1])))
    delivered = []
    while heap:
        t, _, kind, data = heapq.heappop(heap)
        if kind == "arrive":
            delivered.append((t, data))
            continue
        i, snap = data
        if snap is not None:
            heapq.heappush(heap, (outage_end_after(t) + CONTEXT_LATENCY_MS, next(seq),
                                  "arrive", snap))
        following = next(streams[i], None)
        if following is not None:
            heapq.heappush(heap, (following[0], next(seq), "emit", (i, following[1])))
    return delivered


class TestContextArrivalOrder:
    """The per-stream merge delivers snapshots in the single event heap's order.

    Emit times sit on a 1-second grid, a fifth of the delivery latency, so
    equal emit times, equal arrival times and arrivals equal to a later
    emit's horizon are all common.  Outages start and end on a 0.1-second
    grid, so a listed-first outage can end between two emit times.
    """

    @settings(max_examples=300, deadline=None)
    @given(grids=st.lists(st.lists(st.tuples(st.integers(0, 60), st.booleans()),
                                   max_size=12), max_size=8),
           outages=st.lists(st.tuples(st.integers(0, 600), st.integers(1, 300)), max_size=4))
    # the outages nest: sent at 1 s and at 2 s, both snapshots wait for the
    # outer outage's 2.8 s, not the inner one's 2.3 s, and arrive in send order
    @example(grids=[[(1, True)], [(2, True)]], outages=[(15, 8), (0, 28)])
    def test_matches_event_heap(self, grids, outages):
        streams = []
        for i, grid in enumerate(grids):
            times = sorted(dict(grid))     # distinct, increasing emit times per stream
            sent = dict(grid)
            streams.append([(t * 1000, f"{i}:{t}" if sent[t] else None) for t in times])
        net = NetworkParams(wifi_outages_ms=tuple((s * 100, (s + n) * 100)
                                                  for s, n in outages))
        merged = list(_arrival_order([iter(s) for s in streams], net.outage_end_after))
        assert merged == _heap_arrival_order(streams, net.outage_end_after)

    def test_first_emits_precede_later_emits_at_the_same_time(self):
        # stream 1's second emit and stream 2's first emit tie at 4 s and are
        # sent during an outage, so both arrive at its end, in handling order
        streams = [[(0, "a0")], [(1000, "b0"), (4000, "b1")], [(4000, "c0")]]
        net = NetworkParams(wifi_outages_ms=((0, 60_000),))
        merged = list(_arrival_order([iter(s) for s in streams], net.outage_end_after))
        assert merged == _heap_arrival_order(streams, net.outage_end_after)
        assert [snap for _, snap in merged] == ["a0", "b0", "c0", "b1"]


def _scalar_context_stream(simulation, user, s_idx, intervals):
    """A context stream drawn one scalar ``rng`` call at a time.

    This is the stream as it was before bulk draws: every uniform is a
    scalar ``rng.uniform`` call, in the payload functions too, and a
    blackout is found by testing each of the sensor's ``intervals``.
    """
    sensor = CONTEXT_FEATURE_NAMES[s_idx]
    rng = np.random.default_rng([simulation.cfg.seed, user.index, 4, s_idx])
    value = simulation._context_values(user, sensor, rng, rng.uniform)
    t = int(rng.uniform(0, 300_000))
    while t <= simulation.end_ms:
        if any(s <= t < e for s, e in intervals):
            yield t, None
        else:
            yield t, (user.user_id, t, sensor, value(t))
        t += int(rng.uniform(60_000, 300_000))


def _edge_blackouts(times, days):
    """Blackouts that start on an emit of ``times`` at the start of each day,
    in the middle and at the end of the study, among them overlapping,
    nested, touching and empty intervals."""
    intervals = []
    for day_ms in range(0, days * DAY_MS, DAY_MS):
        first = next(i for i, t in enumerate(times) if t >= day_ms)
        intervals += [(times[first], times[first + 2]), (times[first + 1], times[first + 4])]
    mid = len(times) // 2
    intervals += [(times[mid], times[mid + 6]), (times[mid + 1], times[mid + 2]),
                  (times[mid + 6], times[mid + 8]), (times[mid + 10], times[mid + 10]),
                  (times[-3], times[-1] + 1)]
    return intervals


class TestBulkDraws:
    """Every context stream emits what it emitted with one scalar draw at a time."""

    HABITS = {"u02": {"invert_context": True},
              "u03": {"neutral_context": True},
              "u04": {"screen_coupled": True, "device_on_coupled": True},
              "u05": {"invert_context": True, "neutral_context": True,
                      "screen_coupled": True, "device_on_coupled": True}}

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    @pytest.mark.parametrize("seed,days,edges", [(1, 1, False), (7, 2, False), (2021, 1, True),
                                                 (3, 3, True)])
    def test_streams_match_scalar_draws(self, monkeypatch, chunk, seed, days, edges):
        if chunk is not None:
            monkeypatch.setattr(sim_mod, "_DRAW_CHUNK", chunk)
        cfg = SimConfig(n_users=5, days=days, seed=seed, per_user=self.HABITS).validate()
        simulation = _Simulation(cfg, None)
        for user in simulation.users:
            for s_idx, sensor in enumerate(CONTEXT_FEATURE_NAMES):
                if edges:
                    times = [t for t, _ in _scalar_context_stream(simulation, user, s_idx, [])]
                    intervals = _edge_blackouts(times, days)
                    user.blackouts[sensor] = _merged(intervals)
                else:
                    intervals = list(zip(*user.blackouts[sensor]))
                expected = list(_scalar_context_stream(simulation, user, s_idx, intervals))
                assert list(simulation._context_stream(user, s_idx)) == expected
                assert any(rec is None for _, rec in expected) or not intervals

    @pytest.mark.parametrize("chunk", [1, 5, None], ids=["chunk1", "chunk5", "default"])
    def test_uniform_equals_numpy_uniform(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(sim_mod, "_DRAW_CHUNK", chunk)
        bounds = [(0, 300_000), (60_000, 300_000), (0.5, 12.0), (45.0, 600.0), (0, 360),
                  (0, 2 * math.pi), (5_000, 15_000), (10, 60), (-1e300, 1e300), (3.0, 3.0)]
        scalar = np.random.default_rng(2021)
        bulk = sim_mod._uniform(sim_mod._bulk_doubles(np.random.default_rng(2021)).__next__)
        one_by_one = sim_mod._uniform(np.random.default_rng(2021).random)
        for i in range(3_000):
            lo, hi = bounds[i % len(bounds)]
            expected = scalar.uniform(lo, hi).hex()
            assert bulk(lo, hi).hex() == expected
            assert one_by_one(lo, hi).hex() == expected


class TestBlackouts:
    """One bisect over the merged intervals finds what a scan of them finds."""

    @settings(max_examples=300, deadline=None)
    @given(spans=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=6))
    def test_bisect_matches_interval_scan(self, spans):
        intervals = [(start, start + length) for start, length in spans]
        user = _Simulation(SimConfig().validate(), None).users[0]
        user.blackouts["speed"] = _merged(intervals)
        for t in range(-1, 82):
            assert user.blacked_out("speed", t) == any(s <= t < e for s, e in intervals)


class TestWifiOutages:
    """Wi-Fi is out over the union of the listed outages, however they lie."""

    @settings(max_examples=300, deadline=None)
    @given(spans=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 20)), max_size=6))
    # sent at 20 inside both outages, a snapshot waits for the outer outage's
    # 28, not for the end, 23, of the first one listed
    @example(spans=[(15, 8), (0, 28)])
    def test_end_after_matches_interval_scan(self, spans):
        outages = tuple((start, start + length) for start, length in spans)
        net = NetworkParams(wifi_outages_ms=outages)
        ends = [net.outage_end_after(t) for t in range(-1, 82)]
        for t, end in zip(range(-1, 82), ends):
            free = t            # the first time at or after t that no outage covers
            while any(s <= free < e for s, e in outages):
                free += 1
            assert end == free
        assert ends == sorted(ends)


class TestConfig:
    def test_from_dict_roundtrip(self):
        cfg = SimConfig.from_dict({"n_users": 3, "days": 2, "seed": 9,
                                   "network": {"wifi_outages_ms": [[0, 1000]]},
                                   "participants": {"ema_compliance": 0.5}})
        assert cfg.n_users == 3 and cfg.participants.ema_compliance == 0.5
        assert cfg.network.wifi_outages_ms == ((0, 1000),)

    def test_integral_float_counts_as_integer(self):
        cfg = SimConfig.from_dict({"n_users": 3.0, "days": 2, "seed": 9.0,
                                   "zones": [{"code": 1.0, "lat": 0, "lon": 0, "radius_m": 1}]})
        assert (cfg.n_users, cfg.seed, cfg.zones[0].code) == (3, 9, 1)
        assert all(type(v) is int for v in (cfg.n_users, cfg.seed, cfg.zones[0].code))

    def test_integral_float_outage_bounds_are_stored_as_ints(self, tmp_path):
        logs = []
        for end in (1_800_000.0, 1_800_000):
            cfg = SimConfig.from_dict({"n_users": 1, "days": 1, "seed": 4,
                                       "network": {"wifi_outages_ms": [[0, end]]}})
            assert [type(t) for t in cfg.network.wifi_outages_ms[0]] == [int, int]
            run_simulation(cfg, tmp_path / str(type(end).__name__))
            logs.append((tmp_path / type(end).__name__ / "context.jsonl").read_bytes())
        assert b'"arrival_ms":1805000}' in logs[0]
        assert logs[0] == logs[1]

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            SimConfig(n_users=0).validate()
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"participants": {"ema_compliance": 1.5}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"network": {"wifi_outages_ms": [[5, 2]]}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"participants": {"stress_location_probs": [1.0]}})
        with pytest.raises(ConfigError):  # zone code outside 0..2
            SimConfig.from_dict({"zones": [{"code": 7, "lat": 0, "lon": 0, "radius_m": 1}]})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"zones": [{"code": 0, "lat": 1.0}]})
        with pytest.raises(ConfigError):  # int(inf) overflows
            SimConfig.from_dict({"days": float("inf")})
        with pytest.raises(ConfigError, match="'n_user'"):  # misspelt top-level key
            SimConfig.from_dict({"n_users": 1, "n_user": 3})
        with pytest.raises(ConfigError, match="config must be an object"):
            SimConfig.from_dict([1])
        with pytest.raises(ConfigError, match="ema_compliance"):
            SimConfig.from_dict({"participants": {"ema_compliance": "x"}})
        with pytest.raises(ConfigError, match="baseline_bpm_range"):
            SimConfig.from_dict({"participants": {"baseline_bpm_range": [70.0]}})
        with pytest.raises(ConfigError, match="wifi outage"):
            SimConfig.from_dict({"network": {"wifi_outages_ms": [[5]]}})
        with pytest.raises(ConfigError, match="wifi outage bound must be an integer"):
            SimConfig.from_dict({"network": {"wifi_outages_ms": [[0, 1_800_000.5]]}})
        for radius, lat in [(float("nan"), 33.64), (float("inf"), 33.64), (1.0, "33.6"),
                            (True, 33.64)]:
            with pytest.raises(ConfigError, match="zone (radius_m|lat) must be a finite"):
                SimConfig.from_dict({"zones": [{"code": 0, "lat": lat, "lon": -117.84,
                                                "radius_m": radius}]})
        with pytest.raises(ConfigError, match="zones must list at least one zone"):
            SimConfig.from_dict({"zones": []})
        with pytest.raises(ConfigError, match="zones must list at least one zone"):
            SimConfig(zones=()).validate()
        for per_user, named in [
                ({"u01": 5}, "'u01' must be an object"),
                ({"u01": {"invert_contxt": True}}, "'u01' key 'invert_contxt'"),
                ({"u01": {"baseline_bpm": "fast"}}, "'u01': baseline_bpm"),
                ({"u01": {"stress_bpm_delta": float("nan")}}, "'u01': stress_bpm_delta"),
                ({"u02": {"screen_coupled": 1}}, "'u02': screen_coupled"),
                ({"u03": {"baseline_bpm": 90.0}}, "'u03'"),
                ([["u01", {}]], "per_user must be an object")]:
            with pytest.raises(ConfigError, match=named):
                SimConfig.from_dict({"n_users": 2, "per_user": per_user})
            with pytest.raises(ConfigError, match=named):
                SimConfig(n_users=2, per_user=per_user).validate()

    @pytest.mark.parametrize("raw,key", [
        ({"sema_eval_minutes": 10}, "sema_eval_minutes"),
        ({"network": {"wifi_latency_ms": 10}}, "wifi_latency_ms"),
        ({"participants": {"stress_dwell_minutes": 60.0}}, "stress_dwell_minutes"),
        ({"per_user": {"u01": {"calm_dwell_minutes": 60.0}}}, "calm_dwell_minutes"),
    ], ids=["top", "network", "participants", "per_user"])
    def test_deleted_setting_is_unknown_key(self, raw, key):
        with pytest.raises(ConfigError, match=f"unknown .*key '{key}'"):
            SimConfig.from_dict(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            SimConfig.from_json(tmp_path / "nope.json")


class TestOutputs:
    def test_file_set(self, small_study):
        out, result = small_study
        for name in ("bursts", "context", "ema", "triggers", "latent", "zones"):
            assert (out / {"bursts": "bursts.jsonl", "context": "context.jsonl",
                           "ema": "ema.csv", "triggers": "triggers.jsonl",
                           "latent": "latent.csv", "zones": "zones.json"}[name]).exists()

    def test_burst_cadence(self, small_study):
        out, result = small_study
        records = read_jsonl(out / "bursts.jsonl")
        # 5 users x 2 days x 96 slots x 4 channels
        assert len(records) == 5 * 2 * 96 * 4
        ppg = [r for r in records if r["channel"] == "ppg"]
        assert len(ppg) == 5 * 2 * 96
        assert all(len(r["samples"]) == 2400 for r in ppg[:20])

    def test_conservation_no_duplicates(self, small_study):
        out, _ = small_study
        keys = [(r["user_id"], r["channel"], r["start_time_ms"])
                for r in read_jsonl(out / "bursts.jsonl")]
        assert len(keys) == len(set(keys))

    def test_causality(self, small_study):
        out, _ = small_study
        for r in read_jsonl(out / "bursts.jsonl"):
            end = r["start_time_ms"] + int(len(r["samples"]) / r["rate_hz"] * 1000)
            assert r["arrival_ms"] >= end
        for r in read_jsonl(out / "context.jsonl")[:2000]:
            assert r["arrival_ms"] >= r["timestamp_ms"]

    def test_ema_counts_and_levels(self, small_study):
        out, _ = small_study
        import csv
        with open(out / "ema.csv") as fh:
            rows = list(csv.DictReader(fh))
        per_day = collections.Counter()
        for r in rows:
            day = int(r["timestamp_ms"]) // 86_400_000
            per_day[(r["user_id"], day)] += 1
            assert 1 <= int(r["stress_level"]) <= 5
        assert all(c <= 7 for c in per_day.values())
        assert len(rows) > 10

    def test_trigger_cap_and_hours(self, small_study):
        out, _ = small_study
        triggers = collections.Counter()
        for r in read_jsonl(out / "triggers.jsonl"):
            if r["decision"] == "trigger":
                day, ms = divmod(r["timestamp_ms"], 86_400_000)
                assert 7 * 3_600_000 <= ms
                triggers[(r["user_id"], day)] += 1
        assert triggers and all(c <= 7 for c in triggers.values())

    def test_outage_causes_not_recent(self, small_study):
        out, _ = small_study
        # outage 10:00-14:00 on day 1: some skips in its tail must be not_recent
        tail = [r for r in read_jsonl(out / "triggers.jsonl")
                if 37_800_000 <= r["timestamp_ms"] < 50_400_000]
        assert any(r["reason"] == "not_recent" for r in tail)

    def test_outage_delays_arrivals(self, small_study):
        out, _ = small_study
        late = [r["arrival_ms"] - r["start_time_ms"]
                for r in read_jsonl(out / "bursts.jsonl")
                if r["channel"] == "ppg" and 36_000_000 <= r["start_time_ms"] < 50_000_000]
        assert max(late) > 40 * 60_000

    def test_latent_trace_shape(self, small_study):
        out, _ = small_study
        lines = (out / "latent.csv").read_text().strip().splitlines()
        assert lines[0] == "user_id,start_ms,end_ms,stress"
        spans = collections.defaultdict(list)
        for line in lines[1:]:
            u, s, e, st = line.split(",")
            assert int(st) in (0, 1)
            spans[u].append((int(s), int(e)))
        for user_spans in spans.values():
            assert user_spans[0][0] == 0
            assert user_spans[-1][1] == 2 * 86_400_000
            for (s1, e1), (s2, e2) in zip(user_spans, user_spans[1:]):
                assert e1 == s2


class TestDeterminism:
    def test_byte_identical(self, tmp_path):
        cfg = SimConfig(n_users=1, days=1, seed=77)
        run_simulation(cfg, tmp_path / "a")
        run_simulation(SimConfig(n_users=1, days=1, seed=77), tmp_path / "b")
        for name in ("bursts.jsonl", "context.jsonl", "ema.csv",
                      "triggers.jsonl", "latent.csv", "zones.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name


class TestLatentCorrelation:
    def test_stressed_windows_have_higher_bpm(self, tmp_path):
        cfg = SimConfig(n_users=2, days=2, seed=5,
                        participants=ParticipantParams(stress_bpm_delta=16.0,
                                                       ema_compliance=1.0))
        run_simulation(cfg, tmp_path / "hi")
        matrix = featurize_directory(tmp_path / "hi")
        has_hrv = ~np.isnan(matrix.values[:, 0])
        bpm = matrix.values[has_hrv, 0]
        lab = matrix.labels[has_hrv]
        assert bpm[lab == 1].mean() > bpm[lab == 0].mean()


class TestPersonalOverrides:
    def test_override_fields_respected(self, tmp_path):
        cfg = SimConfig(n_users=2, days=1, seed=3,
                        per_user={"u02": {"baseline_bpm": 100.0,
                                          "stress_bpm_delta": 0.0,
                                          "neutral_context": True}})
        run_simulation(cfg, tmp_path / "o")
        matrix = featurize_directory(tmp_path / "o")
        groups = np.array(matrix.groups, dtype=object)
        has_hrv = ~np.isnan(matrix.values[:, 0])
        u2 = (groups == "u02") & has_hrv
        u1 = (groups == "u01") & has_hrv
        assert matrix.values[u2, 0].mean() > matrix.values[u1, 0].mean() + 10
