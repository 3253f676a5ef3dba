"""Discrete-event simulation of the watch / phone / cloud collection stack.

A watch actor records a 2-minute PPG burst plus accelerometer every
15 minutes; a phone actor emits context snapshots every 1-5 minutes; a
cloud actor timestamps arrivals and runs the smart-EMA trigger rules on a
timer.  Wi-Fi is out over the union of the listed outages; while it is
out, watch data falls back to a slower Bluetooth relay and context
snapshots buffer until it is back.  A synthetic
participant's latent two-state stress process drives heart rate, context
patterns and EMA answers; the latent trace is exported only so tests can
check against ground truth.  Four context sensors can track that state:
location, device-off time, device-on time and screen status each draw from
the participant's (stressed, calm) pair of parameters for the sensor, and
each ``per_user`` habit sets the pairs of the sensors it names.

The study protocol and the participant model are module constants: the
network latencies, the sEMA evaluation period, the wear hours, the
stress-state dwell times and every distribution a participant draws from
(see the block after the imports).  A config file sets only the cohort
(``SimConfig``); burst timing comes from ``signals`` and the trigger rules
from ``sema``.

Everything is driven by seeded generator streams, so a given config and
seed produce byte-identical output files, each written in delivery order
without an event queue.  Every user sends a slot's bursts at the same
time over the same link, so bursts.jsonl goes slot by slot in arrival
order, users in index order within a slot.  The cloud evaluates the sEMA
rules on a fixed timer, users in index order, each evaluation seeing the
bursts that arrived strictly before it; one pass interleaves the two
files.  EMA answers are collected and written sorted by (answer time,
prompt time, user).  Each (user, sensor) context stream reads only its own
generator, the latent stress trace and its blackouts, so it is generated
on its own.  The streams are merged into context.jsonl in the order
their emits are handled, which is arrival order (see ``_arrival_order``),
so each snapshot is written as it is emitted.  A stream's uniform draws
are numpy's ``uniform`` mapping of the generator's doubles (``_uniform``).
The five streams that draw nothing but doubles take them from
``rng.random`` refills of ``_DRAW_CHUNK`` doubles, so their memory does
not grow with the study's length.  A sensor's blackouts and the Wi-Fi
outages are held merged and sorted, and one bisect tells whether a time
falls in one and when it ends.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import sema as sema_mod
from .context import CONTEXT_FEATURE_NAMES, GeoZone, context_record, dump_zones, parse_zones
from .dataset import EmaResponse, write_ema_csv
from .errors import (ConfigError, encode_json, is_number, json_type, read_input, strict_int,
                     write_csv)
from .sema import DAY_MS
from .signals import (BURST_SAMPLES, BURST_SECONDS, PPG_RATE_HZ, WINDOW_MS, SensorBurst,
                      burst_record)

SLOT_MS = WINDOW_MS
SLOTS_PER_DAY = DAY_MS // SLOT_MS
ACCEL_RATE_HZ = 4.0
ACCEL_SECONDS = 60.0

DEFAULT_ZONES = (
    GeoZone(code=0, lat=33.6405, lon=-117.8443, radius_m=300.0),   # recreation center
    GeoZone(code=1, lat=33.6461, lon=-117.8427, radius_m=300.0),   # university premises
    GeoZone(code=2, lat=33.6500, lon=-117.8230, radius_m=300.0),   # housing
)

_WEATHER_CHOICES = ("Clear", "Clouds", "Mist", "Rain", "Snow", "Drizzle")
_WEATHER_WEIGHTS = (0.35, 0.30, 0.10, 0.14, 0.05, 0.06)

# -- protocol constants ----------------------------------------------------------

#: Delivery latency of watch data over Wi-Fi, and over the Bluetooth relay
#: to the phone while Wi-Fi is out.
WIFI_LATENCY_MS = 1000
BLUETOOTH_LATENCY_MS = 45 * 60_000
#: Delivery latency of a context snapshot once Wi-Fi is up.
CONTEXT_LATENCY_MS = 5000
#: Period of the cloud's sEMA rule evaluation.
SEMA_EVAL_MINUTES = 5
#: Local hours between which the watch is worn, each end jittered per day.
WEAR_START_HOUR = 7.0
WEAR_END_HOUR = 23.0
WEAR_JITTER_MINUTES = 20.0
#: Mean dwell time of the latent stressed and calm states while worn.
STRESS_DWELL_MINUTES = 240.0
CALM_DWELL_MINUTES = 300.0
#: Weights of the EMA levels 2..5 answered while stressed (calm answers 1).
STRESSED_LEVEL_WEIGHTS = (0.47, 0.40, 0.065, 0.065)
#: Standard deviation of the additive PPG noise.
PPG_NOISE = 0.08
#: Location-zone probabilities (zones 0..3) while stressed and while calm.
STRESS_LOCATION_PROBS = (0.04, 0.84, 0.05, 0.07)
CALM_LOCATION_PROBS = (0.18, 0.08, 0.42, 0.32)
#: Range (minutes) of the device-off reading while stressed and while calm.
STRESS_DEVICE_OFF_RANGE = (0.5, 12.0)
CALM_DEVICE_OFF_RANGE = (45.0, 600.0)
#: Chance that a context sensor has a 2-5 h blackout on a given day.
CONTEXT_BLACKOUT_PROB = 0.25

#: Context sensors whose streams draw only uniform doubles: the gap to the
#: next emit, after one payload draw for the three that draw one.  Their
#: payload functions must draw through ``uniform`` alone, because the
#: doubles come from bulk refills ahead of use.
_UNIFORM_ONLY_SENSORS = frozenset(("battery_adaptor", "weather", "device_off", "device_on",
                                   "wind_degrees"))
#: Doubles each bulk refill of such a stream draws (see ``_bulk_doubles``).
_DRAW_CHUNK = 256

#: Output file of each kind, in the order the manifest lists them.
_OUTPUT_FILES = {"bursts": "bursts.jsonl", "context": "context.jsonl", "ema": "ema.csv",
                 "triggers": "triggers.jsonl", "latent": "latent.csv", "zones": "zones.json"}

#: ``per_user`` override keys: numbers, then flags.
_OVERRIDE_NUMBERS = ("baseline_bpm", "stress_bpm_delta")
_OVERRIDE_FLAGS = ("invert_context", "neutral_context", "screen_coupled",
                   "device_on_coupled")


@dataclass
class NetworkParams:
    wifi_outages_ms: tuple = ()          # absolute (start, end) pairs, in any order

    @functools.cached_property
    def _wifi_down(self):
        """The union of the outages, merged once (``validate`` makes new params)."""
        return _merged(self.wifi_outages_ms)

    def outage_end_after(self, t_ms: int) -> int:
        """The first time at or after ``t_ms`` that no listed outage covers."""
        return _end_after(self._wifi_down, t_ms)


@dataclass
class ParticipantParams:
    baseline_bpm_range: tuple = (62.0, 80.0)
    stress_bpm_delta: float = 10.0
    ema_compliance: float = 0.9


@dataclass
class SimConfig:
    """One simulated cohort, as read from a JSON config file.

    The file is an object whose keys are all optional:

    * ``n_users``, ``days``, ``seed``: the cohort's size, length and seed;
    * ``tz_offset_ms``: the local-time offset the sEMA rules run on;
    * ``network``: ``wifi_outages_ms``, a list of ``[start, end]`` epoch ms
      in any order.  Wi-Fi is out over the union of the listed outages, so
      context snapshots arrive in the order their emits are handled;
    * ``participants``: ``baseline_bpm_range`` (``[low, high]``),
      ``stress_bpm_delta`` and ``ema_compliance``;
    * ``per_user``: user id (``u01``, ``u02``, ...) -> an object of
      overrides: the numbers ``baseline_bpm`` and ``stress_bpm_delta``, and
      the booleans ``invert_context``, ``neutral_context``,
      ``screen_coupled`` and ``device_on_coupled``.  Each habit sets a
      (stressed, calm) parameter pair: invert swaps and neutral blends the
      pairs of location and device-off time (neutral wins if both are set);
      the coupled flags make screen status and device-on time track stress;
    * ``zones``: the study geofences, a list of ``{code, lat, lon, radius_m}``.

    Any other key, at any level, is a ConfigError.
    """

    n_users: int = 2
    days: int = 1
    seed: int = 0
    tz_offset_ms: int = 0
    network: NetworkParams = field(default_factory=NetworkParams)
    participants: ParticipantParams = field(default_factory=ParticipantParams)
    per_user: dict = field(default_factory=dict)   # user_id -> overrides
    zones: tuple = DEFAULT_ZONES

    def validate(self):
        """This config, checked; the one place that converts ``wifi_outages_ms``
        to ``(start, end)`` pairs of ints (so arrival times print as ints) and
        ``baseline_bpm_range`` to a tuple.  Raises ConfigError naming the key."""
        p = self.participants
        if self.n_users < 1 or self.days < 1:
            raise ConfigError(f"n_users and days must be >= 1, got {self.n_users} and {self.days}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (is_number(p.ema_compliance) and 0.0 <= p.ema_compliance <= 1.0):
            raise ConfigError("ema_compliance must be a number in [0, 1]")
        if not is_number(p.stress_bpm_delta):
            raise ConfigError("stress_bpm_delta must be a finite number")
        bpm_range = p.baseline_bpm_range
        if not (isinstance(bpm_range, (list, tuple)) and len(bpm_range) == 2
                and all(map(is_number, bpm_range)) and 0 < bpm_range[0] <= bpm_range[1]):
            raise ConfigError("baseline_bpm_range must be two increasing positive numbers, "
                              f"got {bpm_range!r}")
        p.baseline_bpm_range = tuple(bpm_range)
        if not self.zones:
            raise ConfigError("zones must list at least one zone")
        windows = self.network.wifi_outages_ms
        if not (isinstance(windows, (list, tuple)) and all(
                isinstance(w, (list, tuple)) and len(w) == 2 for w in windows)):
            raise ConfigError("wifi_outages_ms must be a list of wifi outage [start, end] "
                              f"pairs, got {windows!r}")
        try:
            outages = tuple(tuple(strict_int(t, "wifi outage bound") for t in w) for w in windows)
        except ValueError as err:
            raise ConfigError(f"wifi_outages_ms: {err}") from err
        if any(start >= end for start, end in outages):
            raise ConfigError("wifi_outages_ms: a wifi outage must end after it starts")
        self.network = NetworkParams(outages)
        self._validate_per_user()
        return self

    def _validate_per_user(self):
        if not isinstance(self.per_user, dict):
            raise ConfigError(f"per_user must be an object, got {json_type(self.per_user)}")
        users = self.user_ids
        for user_id, over in self.per_user.items():
            where = f"per_user {user_id!r}"
            if user_id not in users:
                raise ConfigError(f"{where}: no such user in {users[0]}..{users[-1]}")
            _check_keys(over, _OVERRIDE_NUMBERS + _OVERRIDE_FLAGS, where)
            for key, value in over.items():
                if key in _OVERRIDE_NUMBERS and not is_number(value):
                    raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")
                if key in _OVERRIDE_FLAGS and not isinstance(value, bool):
                    raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")

    @property
    def user_ids(self):
        return [f"u{i + 1:02d}" for i in range(self.n_users)]

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """The config of a decoded JSON object (see the class docstring): checks the
        keys at every level, converts the cohort's integers and zones, and
        leaves every other value to :meth:`validate`."""
        _check_keys(raw, _field_names(cls), "config")
        net_raw = raw.get("network", {})
        part_raw = raw.get("participants", {})
        _check_keys(net_raw, _field_names(NetworkParams), "network")
        _check_keys(part_raw, _field_names(ParticipantParams), "participants")
        try:
            kwargs = {key: strict_int(raw[key], key)
                      for key in ("n_users", "days", "seed", "tz_offset_ms") if key in raw}
            if "zones" in raw:
                kwargs["zones"] = tuple(parse_zones(raw["zones"]))
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return cls(**kwargs, network=NetworkParams(**net_raw), per_user=raw.get("per_user", {}),
                   participants=ParticipantParams(**part_raw)).validate()

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        """The config of a JSON file, :meth:`from_dict` run inside :func:`read_input`,
        so a malformed file or value raises its DataFormatError naming the
        file and the reason; an unreadable file raises ConfigError."""
        try:
            return read_input(path, "simulation config",
                              lambda lines: cls.from_dict(json.loads("".join(lines))))
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _check_keys(raw, known, where):
    """Raise ConfigError unless ``raw`` is an object with only ``known`` keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {json_type(raw)}")
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}; known keys: {', '.join(known)}")


def synth_ppg(bpm_trace, duration_s, rate_hz, noise_level, seed,
              start_time_ms: int = 0, pulse_width_s: float = 0.08):
    """Synthetic PPG burst: Gaussian pulses at integrated-rate beat times.

    ``bpm_trace`` may be a scalar or a per-sample array.  Returns the burst
    and the ground-truth peak times (epoch ms); two seeds differ only in
    the additive noise, never in the true peak times.
    """
    n = int(round(duration_s * rate_hz))
    bpm = np.broadcast_to(np.asarray(bpm_trace, dtype=float), (n,))
    if bpm.min() < 40.0 or bpm.max() > 180.0:
        raise ValueError("bpm trace must stay within 40..180")
    dt = 1.0 / rate_hz
    # phase[i] = integral of beat rate up to sample i; beats at integer crossings
    phase = np.concatenate(([0.0], np.cumsum(bpm / 60.0) * dt))
    t_grid = np.arange(n + 1) * dt
    n_beats = int(math.floor(phase[-1] - 1e-12)) + 1
    beat_times = np.interp(np.arange(n_beats), phase, t_grid)
    beat_times = beat_times[beat_times < duration_s - 1e-12]

    half = max(1, int(round(5 * pulse_width_s * rate_hz)))
    # One row of sample indices per beat around its nearest sample (np.round
    # rounds half to even, as round does); cols * dt is bit-equal to
    # np.arange(n) * dt at those samples.  np.add.at adds the rows in order,
    # so every sample sums its pulses in beat order.
    cols = np.round(beat_times * rate_hz).astype(int)[:, None] + np.arange(-half, half + 1)
    pulses = np.exp(-0.5 * ((cols * dt - beat_times[:, None]) / pulse_width_s) ** 2)
    inside = (cols >= 0) & (cols < n)
    x = np.zeros(n)
    np.add.at(x, cols[inside], pulses[inside])
    if noise_level > 0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_level, n)
    burst = SensorBurst(user_id="", channel="ppg", start_time_ms=start_time_ms,
                        rate_hz=rate_hz, samples=x)
    return burst, start_time_ms + beat_times * 1000.0


@dataclass
class SimResult:
    paths: dict
    counts: dict
    timings: dict       # seconds of the context pass and of the bursts pass


class _Participant:
    """Precomputed per-user ground truth: traits, wear windows, stress."""

    def __init__(self, cfg: SimConfig, index: int, user_id: str):
        self.user_id = user_id
        self.index = index
        p = cfg.participants
        over = cfg.per_user.get(user_id, {})
        rng = np.random.default_rng([cfg.seed, index, 0])
        lo, hi = p.baseline_bpm_range
        self.baseline_bpm = float(over.get("baseline_bpm", rng.uniform(lo, hi)))
        self.bpm_phase = float(rng.uniform(0, 2 * math.pi))
        jit = WEAR_JITTER_MINUTES * 60_000
        self.wear_windows = []
        for day in range(cfg.days):
            start = day * DAY_MS + int(WEAR_START_HOUR * 3_600_000 + rng.uniform(-jit, jit))
            end = day * DAY_MS + int(WEAR_END_HOUR * 3_600_000 + rng.uniform(-jit, jit))
            self.wear_windows.append((start, end))
        self._build_stress(cfg, np.random.default_rng([cfg.seed, index, 1]))
        self._build_blackouts(cfg, rng)
        self.delta = float(over.get("stress_bpm_delta", p.stress_bpm_delta))
        self._build_context_rules(over)

    def _build_stress(self, cfg, rng):
        leave_stress = min(1.0, SLOT_MS / 60_000 / STRESS_DWELL_MINUTES)
        leave_calm = min(1.0, SLOT_MS / 60_000 / CALM_DWELL_MINUTES)
        stationary = leave_calm / (leave_calm + leave_stress)
        n_slots = cfg.days * SLOTS_PER_DAY
        states = np.zeros(n_slots, dtype=np.int8)
        state = 0
        was_worn = False
        for s in range(n_slots):
            worn = self.worn(s * SLOT_MS)
            if not worn:
                state = 0          # asleep / off wrist: no stress episodes
            elif not was_worn:
                # wear start: draw from the stationary distribution so short
                # studies are not dominated by the morning calm ramp-up
                state = 1 if rng.random() < stationary else 0
            else:
                draw = rng.random()
                if state == 1 and draw < leave_stress:
                    state = 0
                elif state == 0 and draw < leave_calm:
                    state = 1
            was_worn = worn
            states[s] = state
        self.stress_slots = states

    def _build_blackouts(self, cfg, rng):
        """Per sensor/day context blackouts so some windows miss features."""
        self.blackouts = {}
        for name in CONTEXT_FEATURE_NAMES:
            intervals = []
            for day in range(cfg.days):
                if rng.random() < CONTEXT_BLACKOUT_PROB:
                    start = day * DAY_MS + int(rng.uniform(6, 18) * 3_600_000)
                    intervals.append((start, start + int(rng.uniform(2, 5) * 3_600_000)))
            self.blackouts[name] = _merged(intervals)

    def _build_context_rules(self, over):
        """``{sensor: (stressed, calm)}`` for the four sensors that can track stress.

        Location pairs zone probabilities, the others (low, high) ranges; a
        sensor that does not track the user's stress holds one value twice.
        ``neutral_context`` wins over ``invert_context`` when both are set.
        """
        location = (STRESS_LOCATION_PROBS, CALM_LOCATION_PROBS)
        device_off = (STRESS_DEVICE_OFF_RANGE, CALM_DEVICE_OFF_RANGE)
        if over.get("neutral_context"):
            # context does not track this user's stress at all
            blend = tuple(0.5 * (a + b) for a, b in zip(*location))
            span = (min(lo for lo, _ in device_off), max(hi for _, hi in device_off))
            location, device_off = (blend, blend), (span, span)
        elif over.get("invert_context"):
            location, device_off = location[::-1], device_off[::-1]
        self.context_rules = {
            "location": location, "device_off": device_off,
            # personal habits: long phone sessions and compulsive checking under stress
            "device_on": (((25.0, 60.0), (0.5, 8.0)) if over.get("device_on_coupled")
                          else ((0.5, 25.0),) * 2),
            "screen_status": ((2, 4), (0, 2)) if over.get("screen_coupled") else ((0, 4),) * 2,
        }

    def context_rule(self, sensor: str, t_ms: int):
        """The parameter ``sensor`` draws from at ``t_ms``: its stressed or its calm one."""
        stressed, calm = self.context_rules[sensor]
        return stressed if self.stressed(t_ms) else calm

    def worn(self, t_ms: int) -> bool:
        day = min(len(self.wear_windows) - 1, max(0, t_ms // DAY_MS))
        start, end = self.wear_windows[day]
        return start <= t_ms < end

    def stressed(self, t_ms: int) -> bool:
        slot = min(len(self.stress_slots) - 1, max(0, t_ms // SLOT_MS))
        return bool(self.stress_slots[slot])

    def bpm_at(self, t_ms: int, jitter: float) -> float:
        wander = 2.5 * math.sin(2 * math.pi * t_ms / 2_400_000 + self.bpm_phase)
        bpm = self.baseline_bpm + self.delta * self.stressed(t_ms) + wander + jitter
        return min(175.0, max(45.0, bpm))

    def blacked_out(self, sensor: str, t_ms: int) -> bool:
        return _end_after(self.blackouts[sensor], t_ms) != t_ms


class _Simulation:
    def __init__(self, cfg: SimConfig, out_dir):
        self.cfg = cfg
        self.out_dir = out_dir
        self.end_ms = cfg.days * DAY_MS
        self.users = [_Participant(cfg, i, uid) for i, uid in enumerate(cfg.user_ids)]
        self.ema_rngs = [np.random.default_rng([cfg.seed, i, 5])
                         for i in range(cfg.n_users)]
        wrng = np.random.default_rng([cfg.seed, 6])
        blocks = cfg.days * 8
        self.weather_blocks = wrng.choice(len(_WEATHER_CHOICES), size=blocks,
                                          p=_WEATHER_WEIGHTS)
        self.zone_by_code = {z.code: z for z in cfg.zones}
        self.counts = {"bursts": 0, "snapshots": 0, "emas": 0,
                       "prompts": 0, "evaluations": 0}

    # -- generation ------------------------------------------------------------

    def make_bursts(self, user: _Participant, slot_ms: int):
        """The four records of one slot: PPG plus three accelerometer axes."""
        cfg = self.cfg
        worn = user.worn(slot_ms)
        slot_index = slot_ms // SLOT_MS
        if worn:
            jitter = float(np.random.default_rng(
                [cfg.seed, user.index, 2, slot_index, 0]).normal(0.0, 1.2))
            ppg, _ = synth_ppg(user.bpm_at(slot_ms, jitter), BURST_SECONDS,
                               PPG_RATE_HZ, PPG_NOISE,
                               seed=[cfg.seed, user.index, 2, slot_index, 1])
            samples = np.round(ppg.samples, 3)
            base, noise = (0.10, 0.15, 0.98), 0.08
        else:
            # LED gated off-wrist: idle channel reads a constant zero; the watch lies still
            samples = np.zeros(BURST_SAMPLES)
            base, noise = (0.0, 0.0, 1.0), 0.0005
        ppg = SensorBurst(user_id=user.user_id, channel="ppg", start_time_ms=slot_ms,
                          rate_hz=PPG_RATE_HZ, samples=samples)
        arng = np.random.default_rng([cfg.seed, user.index, 3, slot_index])
        n = int(ACCEL_SECONDS * ACCEL_RATE_HZ)
        accel = [SensorBurst(user_id=user.user_id, channel=f"accel_{axis}",
                             start_time_ms=slot_ms, rate_hz=ACCEL_RATE_HZ,
                             samples=np.round(base[k] + arng.normal(0, noise, n), 4))
                 for k, axis in enumerate(("x", "y", "z"))]
        return [ppg] + accel

    def _context_values(self, user: _Participant, sensor: str, rng, uniform):
        """The payload function, emit time -> payload, of one context stream.

        It is picked once per (user, sensor) stream; each call draws from the
        stream's ``rng`` what that sensor's payload needs, in a fixed order,
        its uniform doubles through the stream's ``uniform``.
        """
        tz_offset_ms = self.cfg.tz_offset_ms

        def hour(t_ms):
            return ((t_ms + tz_offset_ms) % DAY_MS) / 3_600_000.0

        if sensor == "battery_adaptor":
            def value(t_ms):
                h = hour(t_ms)
                return 1 if (h < WEAR_START_HOUR or h >= WEAR_END_HOUR) else 0
        elif sensor == "battery_level":
            def value(t_ms):
                h = hour(t_ms)
                level = (95.0 - 70.0 * max(0.0, h - WEAR_START_HOUR) / (24.0 - WEAR_START_HOUR)
                         if h >= WEAR_START_HOUR else 90.0)
                return round(min(100.0, max(1.0, level + rng.normal(0, 3))), 1)
        elif sensor == "speed":
            def value(t_ms):
                return 0.0 if rng.random() < 0.5 else round(min(8.0, abs(rng.normal(1.2, 1.0))), 2)
        elif sensor in ("device_off", "device_on"):
            def value(t_ms):
                return round(uniform(*user.context_rule(sensor, t_ms)), 1)
        elif sensor == "air_pressure":
            def value(t_ms):
                return round(1008.0 + 6.0 * math.sin(2 * math.pi * t_ms / DAY_MS)
                             + rng.normal(0, 1.5), 1)
        elif sensor == "weather_temperature":
            def value(t_ms):
                return round(16.0 + 7.0 * math.sin(2 * math.pi * (hour(t_ms) - 9.0) / 24.0)
                             + rng.normal(0, 0.8), 1)
        elif sensor == "weather":
            blocks = self.weather_blocks

            def value(t_ms):
                return _WEATHER_CHOICES[blocks[min(len(blocks) - 1, t_ms // (3 * 3_600_000))]]
        elif sensor == "wind_degrees":
            def value(t_ms):
                return round(uniform(0, 360), 0)
        elif sensor == "wind_speed":
            def value(t_ms):
                return round(min(14.0, abs(rng.normal(3.0, 2.5))), 2)
        elif sensor == "screen_status":
            def value(t_ms):
                return int(rng.integers(*user.context_rule(sensor, t_ms)))
        else:
            # location: zone choice coupled to the latent stress state
            def value(t_ms):
                zone = int(rng.choice(4, p=user.context_rule(sensor, t_ms)))
                return self._location_payload(zone, rng, uniform)
        return value

    def _context_stream(self, user: _Participant, s_idx: int):
        """One (user, sensor) context stream: ``(emit_ms, record)`` in emit order.

        The record is the ``(user_id, emit_ms, sensor, payload)`` tuple the
        context reader returns, or None while the sensor is blacked out.  The
        stream ends at the study's end.  Its rng draws the first emit time,
        then per emit the payload (nothing while blacked out) and the gap to
        the next.  Its uniform draws go through :func:`_uniform`; a stream
        that draws only uniforms takes its doubles from :func:`_bulk_doubles`.
        """
        sensor = CONTEXT_FEATURE_NAMES[s_idx]
        rng = np.random.default_rng([self.cfg.seed, user.index, 4, s_idx])
        uniform = _uniform(_bulk_doubles(rng).__next__ if sensor in _UNIFORM_ONLY_SENSORS
                           else rng.random)
        value = self._context_values(user, sensor, rng, uniform)
        t = int(uniform(0, 300_000))
        while t <= self.end_ms:
            if user.blacked_out(sensor, t):
                yield t, None
            else:
                yield t, (user.user_id, t, sensor, value(t))
            t += int(uniform(60_000, 300_000))

    def _location_payload(self, zone_code: int, rng, uniform):
        zone = self.zone_by_code.get(zone_code)
        if zone is not None:
            anchor, dist = zone, 0.9 * zone.radius_m * math.sqrt(rng.random())
        else:
            # outside (3) or a code with no zone: 5-15 km from the first zone
            anchor, dist = self.cfg.zones[0], uniform(5_000, 15_000)
        theta = uniform(0, 2 * math.pi)
        lat = anchor.lat + (dist * math.cos(theta)) / 111_320.0
        lon = anchor.lon + (dist * math.sin(theta)) / (111_320.0 * math.cos(math.radians(anchor.lat)))
        return [round(lat, 6), round(lon, 6), round(uniform(10, 60), 1)]

    # -- output files ------------------------------------------------------------

    def run(self):
        os.makedirs(self.out_dir, exist_ok=True)
        paths = {key: os.path.join(str(self.out_dir), name)
                 for key, name in _OUTPUT_FILES.items()}
        t0 = time.monotonic()
        with _create(paths["context"]) as fh:
            self._write_context(fh)
        t1 = time.monotonic()
        with _create(paths["bursts"]) as bursts, _create(paths["triggers"]) as triggers:
            answers = self._write_bursts_and_triggers(bursts, triggers)
        timings = {"context_s": round(t1 - t0, 3), "bursts_s": round(time.monotonic() - t1, 3)}
        write_ema_csv(paths["ema"], (EmaResponse(self.users[user_idx].user_id, answer_ms, level)
                                     for answer_ms, _, user_idx, level in sorted(answers)))
        self.counts["emas"] = len(answers)
        write_csv(paths["latent"], self._latent_rows(), lineterminator="\n")
        dump_zones(paths["zones"], list(self.cfg.zones))
        return SimResult(paths=paths, counts=self.counts, timings=timings)

    def _write_context(self, fh):
        """Write context.jsonl: every stream generated on its own, then merged."""
        streams = [self._context_stream(user, s_idx) for user in self.users
                   for s_idx in range(len(CONTEXT_FEATURE_NAMES))]
        for arrival_ms, rec in _arrival_order(streams, self.cfg.network.outage_end_after):
            fh.write(context_record(*rec, arrival_ms) + "\n")
            self.counts["snapshots"] += 1

    def _burst_arrivals(self):
        """``(arrival_ms, slot)`` of every slot, in delivery order.

        Every user sends a slot's bursts together, once its PPG burst ends,
        over the link that is up at that moment; so the arrival time depends
        on the slot alone, and one slot's records arrive in user order.
        """
        arrivals = []
        for slot in range(self.cfg.days * SLOTS_PER_DAY):
            sent = slot * SLOT_MS + int(BURST_SECONDS * 1000)
            up = self.cfg.network.outage_end_after(sent) == sent
            arrivals.append((sent + (WIFI_LATENCY_MS if up else BLUETOOTH_LATENCY_MS), slot))
        return sorted(arrivals)

    def _write_bursts_and_triggers(self, bursts_fh, triggers_fh):
        """Write bursts.jsonl and triggers.jsonl in one pass; return the EMA answers.

        The cloud evaluates the sEMA rules every ``SEMA_EVAL_MINUTES``, users
        in index order, on the bursts that arrived strictly before.  An
        answer is ``(answer_ms, eval_ms, user index, level)``.
        """
        arrivals = self._burst_arrivals()
        states = [sema_mod.SemaState(user_id=user.user_id, tz_offset_ms=self.cfg.tz_offset_ms)
                  for user in self.users]
        wear = [sema_mod.WearSample(magnitudes=np.empty(0), rate_hz=ACCEL_RATE_HZ,
                                    newest_data_time_ms=0)] * len(self.users)
        answers = []
        delivered = 0
        for t in range(0, self.end_ms, SEMA_EVAL_MINUTES * 60_000):
            while delivered < len(arrivals) and arrivals[delivered][0] < t:
                self._deliver(bursts_fh, *arrivals[delivered], wear)
                delivered += 1
            for user, state in zip(self.users, states):
                decision = sema_mod.should_trigger(state, t, wear[user.index])
                self.counts["evaluations"] += 1
                rec = {"user_id": user.user_id, "timestamp_ms": t,
                       "decision": "trigger" if decision.triggered else "skip",
                       "reason": decision.reason}
                triggers_fh.write(encode_json(rec) + "\n")
                if decision.triggered:
                    self.counts["prompts"] += 1
                    answer = self._answer(user, t)
                    if answer is not None:
                        answers.append(answer)
        for arrival in arrivals[delivered:]:
            self._deliver(bursts_fh, *arrival, wear)
        return answers

    def _deliver(self, fh, arrival_ms, slot, wear):
        """Write every user's bursts of ``slot``, and keep the newest slot's in ``wear``.

        A user's wear sample holds the accelerometer magnitudes of the newest
        slot that has arrived; its PPG burst ends last, at the newest data time.
        """
        for user in self.users:
            records = self.make_bursts(user, slot * SLOT_MS)
            for burst in records:
                fh.write(burst_record(burst, arrival_ms=arrival_ms) + "\n")
            ppg, x, y, z = records
            if ppg.end_time_ms > wear[user.index].newest_data_time_ms:
                wear[user.index] = sema_mod.WearSample(
                    magnitudes=np.sqrt(x.samples ** 2 + y.samples ** 2 + z.samples ** 2),
                    rate_hz=ACCEL_RATE_HZ, newest_data_time_ms=ppg.end_time_ms)
        self.counts["bursts"] += 4 * len(self.users)

    def _answer(self, user: _Participant, prompt_ms: int):
        """The user's answer to a prompt sent at ``prompt_ms``, or None if ignored."""
        rng = self.ema_rngs[user.index]
        comply = rng.random() < self.cfg.participants.ema_compliance
        answer_ms = prompt_ms + int(rng.uniform(30_000, 300_000))
        if not comply:
            return None
        level = 1
        if user.stressed(answer_ms):
            weights = np.asarray(STRESSED_LEVEL_WEIGHTS, dtype=float)
            level = 2 + int(rng.choice(4, p=weights / weights.sum()))
        return answer_ms, prompt_ms, user.index, level

    def _latent_rows(self):
        """latent.csv: the header, then each user's runs of one stress state."""
        yield ("user_id", "start_ms", "end_ms", "stress")
        for user in self.users:
            states = user.stress_slots
            run_start = 0
            for s in range(1, len(states) + 1):
                if s == len(states) or states[s] != states[run_start]:
                    yield user.user_id, run_start * SLOT_MS, s * SLOT_MS, int(states[run_start])
                    run_start = s


def _merged(intervals):
    """``(starts, ends)`` of the union of ``[start, end)`` intervals, sorted and
    disjoint, so one bisect finds the interval that may hold a time."""
    starts, ends = [], []
    for start, end in sorted(intervals):
        if ends and start <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        elif start < end:
            starts.append(start)
            ends.append(end)
    return starts, ends


def _end_after(merged, t_ms):
    """The first time at or after ``t_ms`` that no interval of ``_merged``'s
    ``(starts, ends)`` holds: ``t_ms`` itself when none does."""
    starts, ends = merged
    i = bisect.bisect_right(starts, t_ms)
    return ends[i - 1] if i and t_ms < ends[i - 1] else t_ms


def _uniform(next_double):
    """numpy's ``rng.uniform(lo, hi)`` of the doubles ``next_double()`` returns.

    numpy's scalar uniform is ``lo + (hi - lo) * u`` of the generator's next
    double ``u``, the one ``rng.random()`` would return, so this gives its
    values bit for bit without its argument checks.
    """
    def uniform(lo, hi):
        return lo + (hi - lo) * next_double()
    return uniform


def _bulk_doubles(rng):
    """The doubles of ``rng.random()``, drawn ``_DRAW_CHUNK`` at a time.

    Only a stream that draws nothing but doubles can take them in bulk.
    Memory stays the same whatever the study's length; the doubles left
    over when the stream ends are never used.
    """
    return itertools.chain.from_iterable(iter(lambda: rng.random(_DRAW_CHUNK).tolist(), None))


def _create(path):
    return open(path, "w", encoding="utf-8", newline="")


def _arrival_order(streams, outage_end_after):
    """Merge context streams into ``(arrival_ms, record)`` in delivery order.

    ``streams`` yield ``(emit_ms, record or None)`` in emit order; a record
    sent at ``t`` arrives at ``outage_end_after(t) + CONTEXT_LATENCY_MS``.
    Emits are handled by (emit time, the rank at which the stream's previous
    emit was handled), the first emits of all streams first, in stream
    order.  Wi-Fi is out over the union of the outages, so arrival times
    never decrease in handling order: each record is yielded as its emit is
    handled.
    """
    emits = [(first[0], i - len(streams), i, first[1])   # first emits rank below 0
             for i, first in enumerate(next(stream, None) for stream in streams)
             if first is not None]
    heapq.heapify(emits)
    rank = 0
    while emits:
        t, _, i, rec = emits[0]
        if rec is not None:
            yield outage_end_after(t) + CONTEXT_LATENCY_MS, rec
        following = next(streams[i], None)
        if following is None:
            heapq.heappop(emits)
        else:
            heapq.heapreplace(emits, (following[0], rank, i, following[1]))
        rank += 1


def run_simulation(config: SimConfig, out_dir) -> SimResult:
    """Run the three-tier simulation; writes the five ingestion files.

    Outputs: bursts.jsonl, context.jsonl, ema.csv, triggers.jsonl,
    latent.csv (plus zones.json for the geofence config).  Rerunning with
    the same config and seed reproduces them byte for byte.
    """
    config.validate()
    return _Simulation(config, out_dir).run()
