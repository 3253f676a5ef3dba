"""Smart EMA trigger rules: when to prompt the user for a stress rating.

A prompt fires only when all of these hold: local time is in
[07:00, 24:00), the watch is being worn (accelerometer variability), the
newest watch data is recent, fewer than seven prompts went out today, and
the dynamic waiting period since the last prompt has elapsed.  The wait
spreads the remaining prompts evenly over the rest of the day, computed
from the first wear time, and is never shorter than 30 minutes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NoWearYet

DAY_MS = 86_400_000
EMA_START_HOUR = 7.0
TARGET_PER_DAY = 7
WEAR_STD_THRESHOLD = 0.02
WEAR_MIN_SECONDS = 10.0
RECENCY_MAX_AGE_MS = 15 * 60 * 1000
MIN_WAIT_MS = 30 * 60 * 1000


@dataclass
class WearSample:
    """Recent accelerometer magnitudes plus the newest watch-data time."""

    magnitudes: np.ndarray
    rate_hz: float
    newest_data_time_ms: int


@dataclass
class SemaState:
    """Per-user trigger state; counts reset at each local midnight."""

    user_id: str
    tz_offset_ms: int = 0
    day_anchor_ms: int | None = None
    first_wear_time_ms: int | None = None
    prompts_sent_today: int = 0
    last_prompt_time_ms: int | None = None


@dataclass(frozen=True)
class Decision:
    triggered: bool
    reason: str   # "triggered" or the skip reason


def local_day_start(t_ms: int, tz_offset_ms: int = 0) -> int:
    """Epoch ms of the local midnight containing t."""
    return ((t_ms + tz_offset_ms) // DAY_MS) * DAY_MS - tz_offset_ms


def is_wearing(sample: WearSample) -> bool:
    """Wear = accelerometer magnitude variability above a small threshold.

    Raises InsufficientData below 10 s of magnitudes.
    """
    mags = np.asarray(sample.magnitudes, dtype=float)
    if mags.size / sample.rate_hz < WEAR_MIN_SECONDS:
        raise InsufficientData(
            f"{mags.size / sample.rate_hz:.1f} s of accelerometer data, need >= {WEAR_MIN_SECONDS}")
    return float(mags.std()) > WEAR_STD_THRESHOLD


def is_recent(newest_data_time_ms: int, now_ms: int) -> bool:
    """True when the newest data is at most RECENCY_MAX_AGE_MS old (inclusive)."""
    return now_ms - newest_data_time_ms <= RECENCY_MAX_AGE_MS


def next_wait(state: SemaState, now_ms: int) -> int:
    """Waiting period that spreads the remaining prompts until midnight.

    Raises NoWearYet before the first wear of the day.
    """
    if state.first_wear_time_ms is None:
        raise NoWearYet("no wear observed today")
    remaining = max(0, TARGET_PER_DAY - state.prompts_sent_today)
    window_end = local_day_start(now_ms, state.tz_offset_ms) + DAY_MS
    wait = (window_end - max(now_ms, state.first_wear_time_ms)) / max(1, remaining)
    return max(MIN_WAIT_MS, int(wait))


def _roll_day(state: SemaState, now_ms: int):
    anchor = local_day_start(now_ms, state.tz_offset_ms)
    if state.day_anchor_ms != anchor:
        state.day_anchor_ms = anchor
        state.first_wear_time_ms = None
        state.prompts_sent_today = 0
        state.last_prompt_time_ms = None


def should_trigger(state: SemaState, now_ms: int, wear: WearSample) -> Decision:
    """Evaluate all trigger rules at one instant; updates state on trigger.

    The first wear of the day is recorded whenever wear is observed, even
    outside prompt hours, since the daily schedule is anchored to it.
    """
    _roll_day(state, now_ms)
    try:
        wearing = is_wearing(wear)
    except InsufficientData:
        return Decision(False, "insufficient_data")
    if wearing and state.first_wear_time_ms is None:
        state.first_wear_time_ms = now_ms

    hour = (now_ms - state.day_anchor_ms) / 3_600_000.0
    if not (EMA_START_HOUR <= hour < 24.0):
        return Decision(False, "out_of_hours")
    if not wearing:
        return Decision(False, "not_wearing")
    if not is_recent(wear.newest_data_time_ms, now_ms):
        return Decision(False, "not_recent")
    if state.prompts_sent_today >= TARGET_PER_DAY:
        return Decision(False, "daily_cap")
    if (state.last_prompt_time_ms is not None
            and now_ms - state.last_prompt_time_ms < next_wait(state, now_ms)):
        return Decision(False, "too_soon")

    state.prompts_sent_today += 1
    state.last_prompt_time_ms = now_ms
    return Decision(True, "triggered")
