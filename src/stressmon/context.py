"""Mapping of raw phone-context logs to the numeric model features.

Raw AWARE-style snapshots (battery, weather, location, screen, ...) are
reduced to small integer features by cut-off binning, weather-text lookup
and circular geofencing.  Featurize folds the log into plain values: a kept
window holds each sensor's latest payload, and only that is binned.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import (TextTable, encode_json, fold_jsonl, json_type, read_input, read_jsonl,
                     strict_float, strict_int, strict_str, strict_time_ms, write_json)

#: Text forecast -> numeric code; anything else is treated as missing.
WEATHER_CODES = {"clear": 0, "mist": 1, "clouds": 2, "rain": 3, "snow": 4}

#: Cut-off lists per binned feature.  A value v falls in bin
#: ``#{c : v > c}``, so k cut-offs produce bins 0..k.
CUTOFFS = {
    "battery_level": (10.0, 25.0, 50.0),
    "speed": (0.0, 1.0, 5.0),
    "device_off": (2.0, 10.0, 20.0, 60.0, 180.0, 540.0),
    "device_on": (2.0, 10.0, 20.0),
    "air_pressure": (900.0, 1000.0, 1100.0),
    "weather_temperature": (5.0, 10.0, 20.0, 30.0),
    "wind_degrees": (45.0, 90.0, 135.0),
    "wind_speed": (0.0, 2.0, 5.0, 10.0),
}

#: Zone code assigned when no configured zone contains the position.
OUTSIDE_ZONE = 3

#: Column order of the contextual block in the feature matrix.
CONTEXT_FEATURE_NAMES = (
    "battery_adaptor",
    "battery_level",
    "speed",
    "device_off",
    "device_on",
    "air_pressure",
    "weather_temperature",
    "weather",
    "wind_degrees",
    "wind_speed",
    "screen_status",
    "location",
)

SENSORS = frozenset(CONTEXT_FEATURE_NAMES)

_EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoZone:
    """Circular geofence; codes 0..2 name the study areas, 3 is outside."""

    code: int
    lat: float
    lon: float
    radius_m: float

    def __post_init__(self):
        if self.code not in (0, 1, 2):
            raise ValueError(f"zone code must be 0..2, got {self.code}")
        if self.radius_m <= 0:
            raise ValueError("zone radius must be positive")


@dataclass
class ContextSchema:
    """Geofence zones used for feature extraction; binning uses CUTOFFS."""

    zones: list = field(default_factory=list)


def discretize(value, cutoffs):
    """Bin a value against an increasing cut-off list.

    Returns the number of cut-offs strictly below the value, so k cut-offs
    yield bins 0..k.  NaN or None comes back as None (missing).
    """
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return None
    return sum(1 for c in cutoffs if value > c)


def map_weather(text):
    """Map a forecast string to its numeric code, case-insensitively.

    Unknown conditions return None so the imputer fills them later.
    """
    if not isinstance(text, str):
        return None
    return WEATHER_CODES.get(text.strip().lower())


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(a))


def assign_location(lat, lon, zones):
    """Return the lowest zone code whose circle contains the point, else 3.

    Altitude is ignored; containment is inclusive of the boundary.
    """
    best = OUTSIDE_ZONE
    for zone in zones:
        if zone.code < best and haversine_m(lat, lon, zone.lat, zone.lon) <= zone.radius_m:
            best = zone.code
    return best


def extract_context_features(latest, schema):
    """Turn the context of one 15-minute window into the numeric features.

    ``latest`` maps a sensor to its latest payload in the window (as
    :func:`fold_context_jsonl` keeps it); an absent sensor or a null payload
    produces None.  Binned sensors go through :func:`discretize`, weather
    through :func:`map_weather`, location through :func:`assign_location`;
    battery_adaptor and screen_status pass through unchanged.
    """
    features = {}
    for name in CONTEXT_FEATURE_NAMES:
        payload = latest.get(name)
        if payload is None:
            features[name] = None
        elif name in CUTOFFS:
            features[name] = discretize(payload, CUTOFFS[name])
        elif name == "weather":
            features[name] = map_weather(payload)
        elif name == "location":
            features[name] = assign_location(float(payload[0]), float(payload[1]), schema.zones)
        else:  # battery_adaptor, screen_status: the raw value
            features[name] = float(payload)
    return features


# -- file formats -------------------------------------------------------------

def _record(rec):
    """``(user_id, timestamp_ms, sensor, payload)`` of one context.jsonl record.

    A context record is this tuple everywhere: the simulator emits it and
    :func:`context_record` writes it.  A location payload lists a finite
    latitude and longitude; weather may be anything (:func:`map_weather`);
    any other payload is a finite number or null (missing).
    """
    sensor, payload = rec["sensor"], rec["payload"]
    user_id = strict_str(rec["user_id"], "user_id")
    time_ms = strict_time_ms(rec["timestamp_ms"], "timestamp_ms")
    if sensor not in SENSORS:
        raise ValueError(f"unknown context sensor {sensor!r}")
    if sensor == "location":
        if type(payload) is not list or len(payload) < 2:
            raise TypeError(f"location payload must list lat and lon, got {payload!r}")
        strict_float(payload[0], "latitude"), strict_float(payload[1], "longitude")
    elif sensor != "weather" and payload is not None:
        strict_float(payload, f"{sensor} payload")
    return user_id, time_ms, sensor, payload


def read_context_jsonl(path):
    """The :func:`_record` tuple of each line of a context log; raises
    DataFormatError naming the bad line."""
    return read_jsonl(path, "context record", _record)


def fold_context_jsonl(path, key_of, latest) -> int:
    """Fold a context log into ``latest``: key -> {sensor: (time_ms, payload)}.

    Every line is validated by :func:`_record`, as :func:`read_context_jsonl`
    does, and only its payload is held: under ``key_of(user_id, time_ms)``,
    or nowhere when that is None.  Of one key and sensor only the latest is
    kept, the later line winning on equal times.  Returns the number of
    records read.
    """
    def add(rec):
        user_id, time_ms, sensor, payload = _record(rec)
        key = key_of(user_id, time_ms)
        if key is not None:
            held = latest.setdefault(key, {})
            if sensor not in held or time_ms >= held[sensor][0]:
                held[sensor] = (time_ms, payload)

    return fold_jsonl(path, "context record", add)


#: Entries the head table holds before it is emptied; an 11-user study has
#: 132 (user, sensor) streams.
_CONTEXT_HEADS_MAX = 2 ** 12
#: (user_id, sensor) -> the fixed texts of that stream's lines,
#: ``{"user_id":<id>,"timestamp_ms":`` and ``,"sensor":<sensor>,"payload":``,
#: each value in the compact encoder's spelling.
_CONTEXT_HEADS = TextTable(lambda key: (f'{{"user_id":{encode_json(key[0])},"timestamp_ms":',
                                        f',"sensor":{encode_json(key[1])},"payload":'),
                           _CONTEXT_HEADS_MAX)


def _json_text(value) -> str:
    """``encode_json(value)``; an int or a finite float is spelled by its repr,
    which is the encoder's own spelling, without the encoder's call."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    return encode_json(value)


def context_record(user_id, timestamp_ms, sensor, payload, arrival_ms=None) -> str:
    """One context-log line (without the newline).

    The line is byte for byte ``encode_json`` of ``{"user_id", "timestamp_ms",
    "sensor", "payload"}`` in that key order, plus ``"arrival_ms"`` last when
    given.  ``user_id`` and ``sensor`` are strings, as :func:`_record`
    returns them; their text comes from a table shared across calls, so each
    stream's is encoded once.
    """
    head, middle = _CONTEXT_HEADS[user_id, sensor]
    line = head + _json_text(timestamp_ms) + middle + _json_text(payload)
    if arrival_ms is None:
        return line + "}"
    return line + ',"arrival_ms":' + _json_text(arrival_ms) + "}"


def write_context_jsonl(path, records):
    """Write ``(user_id, timestamp_ms, sensor, payload)`` records as a context log."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(context_record(*rec) + "\n")


def parse_zones(raw) -> list:
    """GeoZones from a decoded JSON list of {code, lat, lon, radius_m}.

    Raises ValueError naming the zone's index and field for a malformed
    list; each caller reports it as an error of its own input.
    """
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"zones must be a list, got {json_type(raw)}")
    zones = []
    for i, z in enumerate(raw):
        if not isinstance(z, dict):
            raise ValueError(f"zone {i} must be an object, got {z!r}")
        missing = [key for key in ("code", "lat", "lon", "radius_m") if key not in z]
        if missing:
            raise ValueError(f"zone {i} lacks {', '.join(missing)}")
        try:
            zones.append(GeoZone(code=strict_int(z["code"], "zone code"),
                                 lat=strict_float(z["lat"], "zone lat"),
                                 lon=strict_float(z["lon"], "zone lon"),
                                 radius_m=strict_float(z["radius_m"], "zone radius_m")))
        except ValueError as err:
            raise ValueError(f"zone {i}: {err}") from err
    return zones


def load_zones(path):
    """Read a zone-config JSON file; raises DataFormatError naming it."""
    return read_input(path, "zone config",
                      lambda lines: parse_zones(json.loads("".join(lines))))


def dump_zones(path, zones):
    write_json(path, [{"code": z.code, "lat": z.lat, "lon": z.lon, "radius_m": z.radius_m}
                      for z in zones], indent=2)
