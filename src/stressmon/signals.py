"""PPG cleaning and 15-minute windowing of the multi-stream recording.

The raw optical signal is band-passed (order-3 Butterworth, 0.7-3.5 Hz,
applied forward and backward so peak timing is preserved).  The design and
the zero-phase filter are numpy ports of SciPy's ``signal.butter`` and
``signal.filtfilt`` (default odd padding) that keep their operation order,
so coefficients and filtered samples equal SciPy's bit for bit; only the
tests that check this import SciPy.  The filter kernel runs many
equal-length bursts at once, one lane per burst.  The burst and context
files are folded into wall-clock 15-minute windows as they are read, each
window expected to hold one complete 2-minute PPG burst; only the slots the
caller keeps (the labeled ones) are held, each with its first complete PPG
burst and each context sensor's latest payload.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .context import fold_context_jsonl
from .errors import (InvalidBand, TextTable, TooShort, Unstable, encode_json, fold_jsonl,
                     read_jsonl, strict_float, strict_str, strict_time_ms)

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

#: Time steps of the band-pass whose input products one numpy call forms.
_CHUNK_STEPS = 16


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
        """Samples of odd extension at each end: three filter lengths, one transient."""
        return 3 * max(len(self.numerator), len(self.denominator))

    @property
    def min_samples(self) -> int:
        """Shortest burst the band-pass accepts: three transients."""
        return 3 * self.pad_samples


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
    b, a = _butter_bandpass(order, low_hz, high_hz, rate_hz)
    roots = np.roots(a)
    if np.any(np.abs(roots) >= 1.0):
        raise Unstable(f"pole magnitude {np.abs(roots).max():.6f} >= 1")
    return FilterDesign(order=order, low_hz=low_hz, high_hz=high_hz,
                        rate_hz=rate_hz, numerator=b, denominator=a)


# The design below follows SciPy's butter(order, [low, high], "bandpass",
# fs=rate) expression by expression (iirfilter -> buttap -> lp2bp_zpk ->
# bilinear_zpk -> zpk2tf), with the same numpy calls on arrays of the same
# shapes and dtypes, so every rounding happens as it does there.

def _butter_bandpass(order, low_hz, high_hz, rate_hz):
    """Numerator and denominator of the digital Butterworth band-pass."""
    # iirfilter: normalize to Nyquist, then pre-warp with fs = 2.
    wn = np.asarray([low_hz, high_hz], dtype=np.float64) / (float(rate_hz) / 2)
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # buttap: analog low-pass prototype poles on the left unit half-circle.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    # lp2bp_zpk: the prototype has gain 1 and no zeros, so all `order`
    # band-pass zeros sit at the origin.
    p_lp = poles * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                           p_lp - np.sqrt(p_lp**2 - wo**2)))
    z_bp = np.zeros(order, dtype=np.complex128)
    k_bp = bw**order
    # bilinear_zpk with fs = 2; the `order` zeros at infinity go to Nyquist.
    fs2 = 2.0 * fs
    z_z = np.concatenate(((fs2 + z_bp) / (fs2 - z_bp), -np.ones(order)))
    p_z = (fs2 + p_bp) / (fs2 - p_bp)
    k_z = k_bp * np.real(np.prod(fs2 - z_bp) / np.prod(fs2 - p_bp))
    # zpk2tf
    return k_z * _poly(z_z), _poly(p_z)


def _poly(roots):
    """Monic polynomial with the given complex roots, as SciPy's _polyutils.poly.

    The coefficients are returned real when the roots' imaginary parts are
    symmetric, i.e. the roots come in conjugate pairs.
    """
    a = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        a = np.convolve(a, np.stack((one, -root)), mode="full")
    if np.all(np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))):
        a = np.real(a).copy()
    return a


def bandpass_filter(burst: SensorBurst, design: FilterDesign) -> SensorBurst:
    """Apply the band-pass forward and backward (zero phase) to a PPG burst.

    Raises TooShort when the burst is under three filter transients
    (``design.min_samples``, about 3 s at the 20 Hz defaults).
    """
    return next(bandpass_bursts([burst], design))


def off_wrist(samples) -> bool:
    """True when every sample is +0.0: the burst of a watch off the wrist.

    The test is on the bits, so a -0.0 sample counts as a reading; the
    zero-phase filter returns exactly such a burst unchanged.
    """
    return not samples.view(np.int64).any()


def bandpass_bursts(bursts, design: FilterDesign):
    """Band-pass PPG bursts of one length with one call of the filter kernel.

    Returns an iterator over the filtered bursts in input order; each equals
    ``bandpass_filter`` on that burst alone, bit for bit.  All on-wrist
    bursts are filtered in one sample-major buffer before this returns, and
    each result's samples are copied out of the buffer when the iterator
    reaches it, so a caller that drops each result before taking the next
    holds its input, the buffer and one burst.  An off-wrist burst comes
    back as itself.  Raises ValueError for a burst that is not PPG, is off
    the design rate or differs in length from the first, and TooShort as
    ``bandpass_filter``.
    """
    n = len(bursts[0].samples)
    for burst in bursts:
        if burst.channel != "ppg":
            raise ValueError(f"band-pass expects a ppg burst, got {burst.channel}")
        if abs(burst.rate_hz - design.rate_hz) > 1e-9:
            raise ValueError("burst rate does not match the filter design rate")
        if len(burst.samples) != n:
            raise ValueError(f"bursts of one call must have one length: {len(burst.samples)} != {n}")
    if n < design.min_samples:
        raise TooShort(f"burst has {n} samples, need >= {design.min_samples}")
    live = [not off_wrist(burst.samples) for burst in bursts]
    on_wrist = [burst.samples for burst, on in zip(bursts, live) if on]
    lanes = iter(_zero_phase_lanes(on_wrist, design).T if on_wrist else ())
    return (replace(burst, samples=next(lanes).copy()) if on else burst
            for burst, on in zip(bursts, live))


def _zero_phase_lanes(rows, design: FilterDesign) -> np.ndarray:
    """Equal-length rows filtered forward and backward (zero phase), sample-major.

    Each row, longer than ``design.pad_samples``, is filtered bit-equal to
    SciPy's ``signal.filtfilt(b, a, row)`` with its default odd padding: the
    row is extended by an odd reflection of ``pad_samples`` at each end,
    filtered forward from the steady state scaled by its first sample, then
    backward from the steady state scaled by the last forward output.  The
    rows are copied once, straight into the padded buffer the filter runs in
    place on; the result is the (samples, rows) middle of that buffer, one
    column per row.
    """
    n = len(rows[0])
    a0 = design.denominator[0]
    b, a = design.numerator / a0, design.denominator / a0
    pad = design.pad_samples
    # Sample-major: each time step of the filter loops is one contiguous row
    # holding that sample of every row.
    ext = np.empty((n + 2 * pad, len(rows)))
    np.stack(rows, axis=1, out=ext[pad:pad + n])
    ext[:pad] = 2 * ext[pad] - ext[2 * pad:pad:-1]
    ext[pad + n:] = 2 * ext[pad + n - 1] - ext[pad + n - 2:n - 2:-1]
    zi = _steady_state(b, a)[:, None]
    _lfilter_lanes(b, a, ext, zi * ext[0])
    _lfilter_lanes(b, a, ext[::-1], zi * ext[-1])
    return ext[pad:pad + n]


def _steady_state(b, a):
    """State of the filter once a unit step has settled (SciPy's lfilter_zi).

    Solves zi = A zi + B with A the transposed companion matrix of ``a``,
    by the same matrix and right-hand side SciPy passes to the same solver.
    """
    n = len(a)
    companion = np.zeros((n - 1, n - 1))
    companion[0] = -a[1:] / (1.0 * a[0])
    companion[np.arange(1, n - 1), np.arange(0, n - 2)] = 1
    return np.linalg.solve(np.eye(n - 1) - companion.T, b[1:] - a[1:] * b[0])


def _lfilter_lanes(b, a, x, z):
    """Direct-form II transposed filter down axis 0 of ``x``, in place.

    Each column of ``x`` is one signal and the same column of ``z``
    (len(a) - 1 rows) its initial state; ``a[0]`` is 1.  Every value is
    formed as in SciPy's lfilter loop: y = z[0] + b[0]*x,
    z[k] = (z[k+1] + x*b[k+1]) - y*a[k+1], and z[last] = x*b[last] - y*a[last].
    The products x*b are formed for _CHUNK_STEPS steps per numpy call; only
    the recursion through y runs one step at a time.
    """
    lanes = x.shape[1]
    # Two state buffers, swapped each step.  Their extra last row holds -0.0,
    # which added to any v gives v exactly, so z[last] takes the same
    # (z[k+1] + x*b[k+1]) form as the others.
    state = np.full((2, len(a), lanes), -0.0)
    state[0, :-1] = z
    views = [(buf[0], buf[1:], buf[:-1]) for buf in state]
    b_rows = np.repeat(b[1:, None], lanes, axis=1)
    a_rows = np.repeat(a[1:, None], lanes, axis=1)
    bx = np.empty((_CHUNK_STEPS, len(b) - 1, lanes))
    ay = np.empty((len(a) - 1, lanes))
    for start in range(0, len(x), _CHUNK_STEPS):
        xs = x[start:start + _CHUNK_STEPS]
        np.multiply(xs[:, None, :], b_rows, out=bx[:len(xs)])
        xs *= b[0]
        for yn, bxn in zip(xs, bx):
            (z0, z_tail, _), (_, _, z_next) = views
            yn += z0                            # yn now holds y
            np.add(z_tail, bxn, out=z_next)
            np.multiply(a_rows, yn, out=ay)
            z_next -= ay
            views.reverse()


@dataclass
class RawWindow:
    """One 15-minute slot: its PPG burst (if complete) and context.

    ``context`` maps each sensor seen in the slot to its latest payload
    (:func:`windowize`), which is all that feature extraction reads.
    """

    user_id: str
    start_ms: int
    end_ms: int
    ppg: SensorBurst | None = None
    context: dict = field(default_factory=dict)


def windowize(bursts_path, context_path, keep, counts):
    """Fold a bursts file and a context log into the kept 15-minute windows.

    Each file is read once, in file order, and every line is validated on
    the one malformed-record path (:func:`errors.read_input`); a path of
    None reads as an empty file.  The slot grid is aligned to wall-clock
    multiples of the window length, a record belongs to the slot holding
    its (start) time, and a slot becomes a window only when a record of its
    user falls in it and ``keep(user_id, start_ms)`` is true (asked once per
    slot).  A kept window holds its slot's first complete PPG burst in file
    order (BURST_SAMPLES samples or more) as ``ppg``, else None, and as
    ``context`` each sensor's latest payload, the later line winning on
    equal times.
    Nothing else is held: accelerometer samples, later bursts and the
    records of slots not kept are dropped once validated.  Every off-wrist
    PPG burst of one length shares one read-only zero array.

    Returns the windows per user (users sorted) in increasing start order;
    ``counts`` receives the records read under ``"bursts"`` and
    ``"context"``.
    """
    slots = {}    # (user_id, start_ms) -> RawWindow, or None when not kept
    latest = {}   # (user_id, start_ms) -> {sensor: (time_ms, payload)} of a kept slot
    zeros = {}    # length -> the shared off-wrist samples

    def kept_slot(user_id, time_ms):
        """The slot's key when it is kept, else None."""
        key = (user_id, time_ms // WINDOW_MS * WINDOW_MS)
        if key not in slots:
            slots[key] = RawWindow(user_id, key[1], key[1] + WINDOW_MS) if keep(*key) else None
        return None if slots[key] is None else key

    def add_burst(rec):
        burst = _burst(rec)
        key = kept_slot(burst.user_id, burst.start_time_ms)
        n = len(burst.samples)
        if key is None or slots[key].ppg is not None or burst.channel != "ppg" \
                or n < BURST_SAMPLES:
            return
        if off_wrist(burst.samples):
            if n not in zeros:
                zeros[n] = np.zeros(n)
                zeros[n].flags.writeable = False
            burst = replace(burst, samples=zeros[n])
        slots[key].ppg = burst

    counts["bursts"] = fold_jsonl(bursts_path, "burst record", add_burst) if bursts_path else 0
    counts["context"] = fold_context_jsonl(context_path, kept_slot, latest) if context_path else 0
    windows = []
    for key in sorted(k for k, win in slots.items() if win is not None):
        slots[key].context = {sensor: payload
                              for sensor, (_, payload) in latest.pop(key, {}).items()}
        windows.append(slots[key])
    return windows


# -- file formats -------------------------------------------------------------

def _burst(rec) -> SensorBurst:
    """One bursts.jsonl record; a PPG burst is sampled at the filter design rate."""
    samples = rec["samples"]
    # numpy would read "1.5" or true as a float; JSON numbers decode to int or float
    if type(samples) is not list or not set(map(type, samples)) <= {int, float}:
        raise ValueError(f"samples must be a list of JSON numbers, got {samples!r:.80}")
    burst = SensorBurst(strict_str(rec["user_id"], "user_id"), rec["channel"],
                        strict_time_ms(rec["start_time_ms"], "start_time_ms"),
                        strict_float(rec["rate_hz"], "rate_hz"), samples)
    # count_nonzero is one C call; .all() adds a Python wrapper to every record
    if np.count_nonzero(np.isfinite(burst.samples)) != len(burst.samples):
        raise ValueError("samples must be finite numbers")
    if burst.channel == "ppg" and burst.rate_hz != PPG_RATE_HZ:
        raise ValueError(f"ppg rate_hz {burst.rate_hz} is not the filter design rate "
                         f"{PPG_RATE_HZ}")
    return burst


def read_bursts_jsonl(path):
    """Read burst records; raises DataFormatError naming the bad line."""
    return read_jsonl(path, "burst record", _burst)


#: Entries the sample-text table holds before it is emptied; a 4-user day
#: writes about 10,000 distinct sample values.
_SAMPLE_TEXT_MAX = 2 ** 15
#: float64 bit pattern -> json's text of that float.  Keying by bits keeps
#: ``-0.0`` apart from ``0.0`` and every NaN payload apart; each text is the
#: compact encoder's own, so NaN and the infinities keep json's spelling.
_SAMPLE_TEXT = TextTable(lambda bits: encode_json(struct.unpack("<d", struct.pack("<q", bits))[0]),
                         _SAMPLE_TEXT_MAX)


@functools.lru_cache(maxsize=8)
def _off_wrist_text(n_samples: int) -> str:
    """The samples text of an off-wrist burst: ``n_samples`` times json's +0.0."""
    return ",".join([encode_json(0.0)] * n_samples)


def burst_record(burst: SensorBurst, arrival_ms=None) -> str:
    """One bursts.jsonl line (without the newline).

    The line is byte for byte ``json.dumps(rec, separators=(",", ":"))`` of
    ``rec = {"user_id", "channel", "start_time_ms", "rate_hz", "samples":
    samples.tolist()}`` in that key order, plus ``"arrival_ms"`` last when
    given.  Each sample's text comes from a table shared across calls that
    is keyed by the float's bit pattern, so a value is formatted once rather
    than once per occurrence.  The samples of an :func:`off_wrist` burst
    (2,400 +0.0s on the PPG channel) are formatted once per length.
    """
    head = encode_json({"user_id": burst.user_id, "channel": burst.channel,
                        "start_time_ms": burst.start_time_ms, "rate_hz": burst.rate_hz})
    if off_wrist(burst.samples):
        samples = _off_wrist_text(len(burst.samples))
    else:
        samples = ",".join(map(_SAMPLE_TEXT.__getitem__,
                               burst.samples.view(np.int64).tolist()))
    tail = "}" if arrival_ms is None else f',"arrival_ms":{encode_json(arrival_ms)}}}'
    return f'{head[:-1]},"samples":[{samples}]{tail}'


def write_bursts_jsonl(path, bursts):
    with open(path, "w", encoding="utf-8") as fh:
        for burst in bursts:
            fh.write(burst_record(burst) + "\n")


def default_design() -> FilterDesign:
    return design_bandpass(FILTER_ORDER, FILTER_LOW_HZ, FILTER_HIGH_HZ, PPG_RATE_HZ)
