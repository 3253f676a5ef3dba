"""PPG cleaning and 15-minute windowing of the multi-stream recording.

The raw optical signal is band-passed (order-3 Butterworth, 0.7-3.5 Hz,
applied forward and backward so peak timing is preserved).  Bursts and
context snapshots are cut into wall-clock 15-minute windows, each expected
to hold one complete 2-minute PPG burst.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import butter, filtfilt

from .errors import DataFormatError, InvalidBand, TooShort, Unstable

PPG_RATE_HZ = 20.0
BURST_SECONDS = 120.0
#: Samples of one complete PPG burst: 2 minutes at 20 Hz.
BURST_SAMPLES = int(round(BURST_SECONDS * PPG_RATE_HZ))
#: Length of one wall-clock window, and of the simulator's slot.
WINDOW_MS = 15 * 60_000
FILTER_ORDER = 3
FILTER_LOW_HZ = 0.7
FILTER_HIGH_HZ = 3.5

CHANNELS = frozenset({"ppg", "accel_x", "accel_y", "accel_z"})


@dataclass(frozen=True)
class SensorBurst:
    """A fixed-rate sample run from one channel of the watch."""

    user_id: str
    channel: str
    start_time_ms: int
    rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d sequence")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate_hz

    @property
    def end_time_ms(self) -> int:
        return self.start_time_ms + int(round(self.duration_s * 1000))


@dataclass(frozen=True)
class FilterDesign:
    """Discrete band-pass realization (numerator/denominator polynomials)."""

    order: int
    low_hz: float
    high_hz: float
    rate_hz: float
    numerator: np.ndarray
    denominator: np.ndarray

    @property
    def pad_samples(self) -> int:
        # filtfilt's default edge padding; one filter transient.
        return 3 * max(len(self.numerator), len(self.denominator))


def design_bandpass(order, low_hz, high_hz, rate_hz) -> FilterDesign:
    """Design a stable digital Butterworth band-pass.

    Uses the bilinear transform with frequency pre-warping, so the digital
    magnitude response at f equals the analog prototype response at
    2*fs*tan(pi*f/fs).  Raises InvalidBand on bad frequency ordering and
    Unstable if any pole lands on or outside the unit circle.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (0.0 < low_hz < high_hz < rate_hz / 2.0):
        raise InvalidBand(
            f"need 0 < low ({low_hz}) < high ({high_hz}) < rate/2 ({rate_hz / 2})")
    b, a = butter(order, [low_hz, high_hz], btype="bandpass", fs=rate_hz)
    roots = np.roots(a)
    if np.any(np.abs(roots) >= 1.0):
        raise Unstable(f"pole magnitude {np.abs(roots).max():.6f} >= 1")
    return FilterDesign(order=order, low_hz=low_hz, high_hz=high_hz,
                        rate_hz=rate_hz, numerator=b, denominator=a)


def analog_bandpass_gain(design: FilterDesign, freq_hz) -> float:
    """Analytic forward-backward (zero-phase) gain at a probe frequency.

    Evaluates the analog Butterworth band-pass prototype at the pre-warped
    frequency, which is exactly what the bilinear design realizes, and
    squares it for the two passes of :func:`bandpass_filter`.
    """
    fs = design.rate_hz
    warp = lambda f: 2.0 * fs * np.tan(np.pi * f / fs)
    w = warp(freq_hz)
    wl, wh = warp(design.low_hz), warp(design.high_hz)
    if w == 0.0:
        return 0.0
    omega = abs(w * w - wl * wh) / ((wh - wl) * w)
    single = 1.0 / np.sqrt(1.0 + omega ** (2 * design.order))
    return float(single ** 2)


def bandpass_filter(burst: SensorBurst, design: FilterDesign) -> SensorBurst:
    """Apply the band-pass forward and backward (zero phase) to a PPG burst.

    Raises TooShort when the burst is under three filter transients
    (3 x pad_samples, about 3 s at the 20 Hz defaults).
    """
    if burst.channel != "ppg":
        raise ValueError(f"band-pass expects a ppg burst, got {burst.channel}")
    if abs(burst.rate_hz - design.rate_hz) > 1e-9:
        raise ValueError("burst rate does not match the filter design rate")
    min_len = 3 * design.pad_samples
    if len(burst.samples) < min_len:
        raise TooShort(f"burst has {len(burst.samples)} samples, need >= {min_len}")
    filtered = filtfilt(design.numerator, design.denominator, burst.samples)
    return replace(burst, samples=filtered)


@dataclass
class RawWindow:
    """One 15-minute slot: its PPG burst (if complete) and context."""

    user_id: str
    start_ms: int
    end_ms: int
    ppg: SensorBurst | None = None
    snapshots: list = field(default_factory=list)


def windowize(bursts, snapshots):
    """Cut bursts and context snapshots into 15-minute wall-clock windows.

    The slot grid is aligned to wall-clock multiples of the window length,
    starting at the slot containing each user's first record.  A burst
    belongs to the slot containing its start time; the first complete PPG
    burst of a slot (BURST_SAMPLES samples or more) becomes the window's
    ``ppg``, and every other burst is dropped.  Slots without a complete
    burst are still emitted, with ``ppg`` left as None.
    """
    per_user = {}
    for burst in bursts:
        per_user.setdefault(burst.user_id, ([], []))[0].append(burst)
    for snap in snapshots:
        per_user.setdefault(snap.user_id, ([], []))[1].append(snap)

    windows = []
    for user_id in sorted(per_user):
        user_bursts, user_snaps = per_user[user_id]
        times = [b.start_time_ms for b in user_bursts] + [s.timestamp_ms for s in user_snaps]
        if not times:
            continue
        first_slot = (min(times) // WINDOW_MS) * WINDOW_MS
        last_slot = (max(times) // WINDOW_MS) * WINDOW_MS
        slots = {}
        for start in range(int(first_slot), int(last_slot) + WINDOW_MS, WINDOW_MS):
            slots[start] = RawWindow(user_id=user_id, start_ms=start,
                                     end_ms=start + WINDOW_MS)
        for burst in user_bursts:
            win = slots[(burst.start_time_ms // WINDOW_MS) * WINDOW_MS]
            complete = burst.channel == "ppg" and len(burst.samples) >= BURST_SAMPLES
            if complete and win.ppg is None:
                win.ppg = burst
        for snap in user_snaps:
            slots[(snap.timestamp_ms // WINDOW_MS) * WINDOW_MS].snapshots.append(snap)
        windows.extend(slots[k] for k in sorted(slots))
    return windows


# -- file formats -------------------------------------------------------------

def read_bursts_jsonl(path):
    """Read burst records; raises DataFormatError naming the bad line.

    A PPG burst must be sampled at PPG_RATE_HZ, the band-pass design rate.
    """
    bursts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                burst = SensorBurst(
                    user_id=str(rec["user_id"]),
                    channel=str(rec["channel"]),
                    start_time_ms=int(rec["start_time_ms"]),
                    rate_hz=float(rec["rate_hz"]),
                    samples=rec["samples"],
                )
            except (ValueError, KeyError, TypeError) as err:
                raise DataFormatError(f"{path}:{lineno}: bad burst record: {err}") from err
            if burst.channel == "ppg" and burst.rate_hz != PPG_RATE_HZ:
                raise DataFormatError(f"{path}:{lineno}: ppg rate_hz {burst.rate_hz} is not "
                                      f"the filter design rate {PPG_RATE_HZ}")
            bursts.append(burst)
    return bursts


def burst_record(burst: SensorBurst, arrival_ms=None) -> str:
    rec = {
        "user_id": burst.user_id,
        "channel": burst.channel,
        "start_time_ms": burst.start_time_ms,
        "rate_hz": burst.rate_hz,
        "samples": burst.samples.tolist(),
    }
    if arrival_ms is not None:
        rec["arrival_ms"] = arrival_ms
    return json.dumps(rec, separators=(",", ":"))


def write_bursts_jsonl(path, bursts):
    with open(path, "w", encoding="utf-8") as fh:
        for burst in bursts:
            fh.write(burst_record(burst) + "\n")


def default_design() -> FilterDesign:
    return design_bandpass(FILTER_ORDER, FILTER_LOW_HZ, FILTER_HIGH_HZ, PPG_RATE_HZ)
