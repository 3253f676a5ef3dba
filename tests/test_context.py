"""Cut-off binning, weather mapping and geofencing."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stressmon import context
from stressmon.context import (CONTEXT_FEATURE_NAMES, CUTOFFS, WEATHER_CODES,
                               ContextSchema, GeoZone, assign_location,
                               discretize, dump_zones, extract_context_features,
                               fold_context_jsonl, haversine_m, load_zones, map_weather,
                               context_record, read_context_jsonl, write_context_jsonl)
from stressmon.errors import DataFormatError, encode_json

ZONES = [
    GeoZone(code=0, lat=33.6405, lon=-117.8443, radius_m=300.0),
    GeoZone(code=1, lat=33.6461, lon=-117.8427, radius_m=300.0),
    GeoZone(code=2, lat=33.6500, lon=-117.8230, radius_m=300.0),
]


class TestDiscretize:
    def test_battery_paper_mapping(self):
        cuts = (10, 25, 50)
        assert discretize(30, cuts) == 2
        assert discretize(10, cuts) == 0
        assert discretize(72, cuts) == 3

    def test_count_of_cutoffs_below(self):
        assert discretize(7, (0, 2, 5, 10)) == 3

    def test_nan_missing(self):
        assert discretize(float("nan"), (1, 2)) is None
        assert discretize(None, (1, 2)) is None

    def test_monotone_and_surjective(self):
        cuts = (0.0, 2.0, 5.0, 10.0)
        sweep = [discretize(v, cuts) for v in np.linspace(-5, 20, 400)]
        assert sweep == sorted(sweep)
        assert set(sweep) == {0, 1, 2, 3, 4}


class TestWeather:
    def test_known(self):
        assert map_weather("clear") == 0
        assert map_weather("Snow") == 4
        assert map_weather("  CLOUDS ") == 2

    def test_unknown_missing(self):
        assert map_weather("drizzle") is None
        assert map_weather(None) is None


class TestLocation:
    def test_zone_center(self):
        assert assign_location(ZONES[0].lat, ZONES[0].lon, ZONES) == 0

    def test_far_away(self):
        assert assign_location(ZONES[0].lat + 0.1, ZONES[0].lon, ZONES) == 3

    def test_overlapping_lowest_code(self):
        big = [GeoZone(code=1, lat=0.0, lon=0.0, radius_m=5000.0),
               GeoZone(code=2, lat=0.001, lon=0.0, radius_m=5000.0)]
        assert assign_location(0.0005, 0.0, big) == 1
        assert assign_location(0.0005, 0.0, list(reversed(big))) == 1

    def test_haversine_sane(self):
        # one degree of latitude is about 111 km
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111_195, rel=0.01)


def _snap(sensor, payload, ts=1000, user="u"):
    return user, ts, sensor, payload


class TestExtract:
    def test_battery_binned(self):
        schema = ContextSchema(zones=ZONES)
        out = extract_context_features({"battery_level": 72}, schema)
        assert out["battery_level"] == 3

    def test_absent_sensor_missing(self):
        out = extract_context_features({"battery_level": 50, "speed": None},
                                       ContextSchema(zones=ZONES))
        assert out["weather"] is None and out["speed"] is None

    def test_screen_passthrough(self):
        out = extract_context_features({"screen_status": 2},
                                       ContextSchema(zones=ZONES))
        assert out["screen_status"] == 2.0

    def test_last_snapshot_wins(self, tmp_path):
        # the fold keeps each sensor's latest payload, the later line on
        # equal times; extraction only bins what it kept
        path = tmp_path / "context.jsonl"
        write_context_jsonl(path, [_snap("speed", 6.0, ts=200), _snap("speed", 0.5, ts=100),
                                   _snap("battery_level", 30, ts=100),
                                   _snap("battery_level", 5, ts=100)])
        latest = {}
        assert fold_context_jsonl(path, lambda user_id, time_ms: user_id, latest) == 4
        assert latest == {"u": {"speed": (200, 6.0), "battery_level": (100, 5)}}
        out = extract_context_features({s: p for s, (_, p) in latest["u"].items()},
                                       ContextSchema(zones=ZONES))
        assert out["speed"] == 3  # 6 m/s is above every cut-off
        assert out["battery_level"] == 0

    def test_location_payload(self):
        out = extract_context_features({"location": [ZONES[1].lat, ZONES[1].lon, 20.0]},
                                       ContextSchema(zones=ZONES))
        assert out["location"] == 1

    def test_never_invents_values(self):
        rng = np.random.default_rng(0)
        sensors = ["battery_level", "speed", "wind_speed", "screen_status"]
        latest = {str(s): float(rng.uniform(0, 60)) for s in rng.choice(sensors, size=6)}
        out = extract_context_features(latest, ContextSchema(zones=ZONES))
        for name in CONTEXT_FEATURE_NAMES:
            if name not in latest:
                assert out[name] is None


class TestSchemaAndIo:
    def test_cutoffs_must_increase(self):
        for name, cuts in CUTOFFS.items():
            assert cuts and all(a < b for a, b in zip(cuts, cuts[1:])), name

    def test_weather_map_injective(self):
        codes = list(WEATHER_CODES.values())
        assert len(set(codes)) == len(codes)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "context.jsonl"
        records = [_snap("weather", "Clear"), _snap("location", [1.0, 2.0, 3.0], ts=2000),
                   _snap("battery_level", None, user="u02")]
        write_context_jsonl(path, records)
        back = read_context_jsonl(path)
        assert back == records

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "context.jsonl"
        path.write_text('{"user_id":"u","timestamp_ms":0,"sensor":"speed","payload":1}\n{oops\n')
        with pytest.raises(DataFormatError, match=r":2:"):
            read_context_jsonl(path)

    def test_zone_config_roundtrip(self, tmp_path):
        path = tmp_path / "zones.json"
        dump_zones(path, ZONES)
        back = load_zones(path)
        assert [z.code for z in back] == [0, 1, 2]
        assert back[1].lat == pytest.approx(ZONES[1].lat)

    def test_bad_zone_config(self, tmp_path):
        path = tmp_path / "zones.json"
        path.write_text(json.dumps([{"code": 0, "lat": 1.0}]))
        with pytest.raises(DataFormatError):
            load_zones(path)


def _reference_context_line(user_id, timestamp_ms, sensor, payload, arrival_ms):
    """A context line as the compact encoder writes the key-ordered record."""
    rec = {"user_id": user_id, "timestamp_ms": timestamp_ms, "sensor": sensor,
           "payload": payload}
    if arrival_ms is not None:
        rec["arrival_ms"] = arrival_ms
    return encode_json(rec)


_SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e22, 123456789.125)
_AWKWARD_TEXT = ('Cl"ear', "back\\slash", "Nebel \u2013 dicht", "\u96e8", "tab\there", "\ud800",
                 "\u2028", "", "null")
_FLOATS = st.floats(width=64) | st.sampled_from(_SPECIAL_FLOATS)
_INTS = (st.integers() | st.integers(-2 ** 200, 2 ** 200)
         | st.sampled_from((0, -1, 2 ** 63, -2 ** 63)))
_PAYLOADS = st.one_of(
    _FLOATS, _INTS, st.booleans(), st.none(), _FLOATS.map(np.float64),
    st.text() | st.sampled_from(_AWKWARD_TEXT),
    st.lists(_FLOATS, max_size=4), st.lists(_FLOATS | _INTS | st.none() | st.text(), max_size=4))


class TestContextRecordOracle:
    """context_record is the compact encoder's text of the record, whatever the values."""

    @settings(max_examples=400, deadline=None)
    @given(user_id=st.text(min_size=1) | st.sampled_from(_AWKWARD_TEXT).filter(bool),
           timestamp_ms=_INTS,
           sensor=st.sampled_from(CONTEXT_FEATURE_NAMES) | st.text(min_size=1),
           payload=_PAYLOADS,
           arrival_ms=st.none() | _INTS)
    @example(user_id="u01", timestamp_ms=0, sensor="device_off", payload=-0.0, arrival_ms=5000)
    @example(user_id="u01", timestamp_ms=1, sensor="battery_adaptor", payload=True,
             arrival_ms=None)
    @example(user_id="u01", timestamp_ms=2, sensor="screen_status", payload=False,
             arrival_ms=2 ** 70)
    @example(user_id='u"01', timestamp_ms=3, sensor="speed", payload=math.nan, arrival_ms=None)
    @example(user_id="u01", timestamp_ms=4, sensor="speed", payload=np.float64(-math.inf),
             arrival_ms=4)
    @example(user_id="\u00fc01", timestamp_ms=5, sensor="weather", payload="Mist\\",
             arrival_ms=None)
    @example(user_id="u01", timestamp_ms=6, sensor="location",
             payload=[33.6405, -117.8443, 10.5], arrival_ms=6)
    def test_matches_encode_json(self, user_id, timestamp_ms, sensor, payload, arrival_ms):
        assert context_record(user_id, timestamp_ms, sensor, payload, arrival_ms) == \
            _reference_context_line(user_id, timestamp_ms, sensor, payload, arrival_ms)

    def test_head_table_filled_past_its_bound(self):
        for i in range(context._CONTEXT_HEADS_MAX + 100):
            user_id = f"u{i}\"\u00e9"
            for arrival_ms in (None, i + 5000):
                assert context_record(user_id, i, "speed", i / 7.0, arrival_ms) == \
                    _reference_context_line(user_id, i, "speed", i / 7.0, arrival_ms)
        assert 0 < len(context._CONTEXT_HEADS) <= context._CONTEXT_HEADS_MAX
