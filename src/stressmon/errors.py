"""Exception types shared across the pipeline modules, the input reader and
the output writers: compact JSON text, and every JSON and CSV file."""
import csv
import json
import math


class StressmonError(Exception):
    """Base class for all pipeline errors."""


class DataFormatError(StressmonError):
    """An input file could not be parsed; message names file and line."""


class ConfigError(StressmonError, ValueError):
    """Simulation or run configuration is invalid."""


# -- signal cleaning ---------------------------------------------------------

class InvalidBand(StressmonError):
    """Band-pass frequency ordering 0 < low < high < rate/2 violated."""


class Unstable(StressmonError):
    """Filter design produced poles on or outside the unit circle."""


class TooShort(StressmonError, ValueError):
    """Burst shorter than the minimum length the operation needs."""


# -- heart-rate analysis -----------------------------------------------------

class NoPlausiblePeaks(StressmonError):
    """No threshold level yielded a heart rate in the plausible band."""


class TooFewIntervals(StressmonError):
    """Fewer than the minimum number of NN intervals remain."""


class InsufficientSpan(StressmonError):
    """NN series covers too little time for a breathing-rate estimate."""


# -- dataset assembly --------------------------------------------------------

class OutOfRange(StressmonError, ValueError):
    """Stress level outside the 1..5 Likert range."""


class EmptyColumn(StressmonError):
    """A feature column has no observed values to impute from.

    ``column`` is the column's index, or its name where the caller knows it.
    """

    def __init__(self, column):
        super().__init__(f"column {column!r} has no observed values")
        self.column = column


# -- learning ----------------------------------------------------------------

class DegenerateLabels(UserWarning):
    """Training labels contain a single class; model is a constant predictor."""


class KTooLarge(StressmonError):
    """k exceeds the number of training rows."""


class TooFewGroups(StressmonError):
    """Fewer distinct users than requested folds."""


class InsufficientTargetData(StressmonError):
    """Target user has fewer than two labeled windows."""


class LengthMismatch(StressmonError):
    """Prediction and truth vectors differ in length."""


class EmptySelection(StressmonError):
    """Feature selection asked for zero features."""


class SelectionTooLarge(StressmonError, ValueError):
    """Feature selection asked for more features than the matrix has."""


# -- explanation -------------------------------------------------------------

class TooManyFeatures(StressmonError):
    """Exact coalition enumeration is infeasible beyond 16 features."""


class EmptyBackground(StressmonError):
    """Shapley computation needs at least one background row."""


class NotATreeModel(StressmonError, ValueError):
    """Exact Shapley explanation was asked of a model without trees."""


# -- EMA triggering ----------------------------------------------------------

class InsufficientData(StressmonError):
    """Accelerometer window too short for a wear decision."""


class NoWearYet(StressmonError):
    """Waiting period undefined before the first wear of the day."""


# -- reading input files -----------------------------------------------------

#: What parsing a malformed record raises.  ValueError covers JSON and UTF-8
#: decoding errors; csv.Error a CSV cell over the csv module's size limit.
_MALFORMED = (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
              ValueError, csv.Error)


def read_input(path, what, parse):
    """``parse(lines)`` over the file's non-blank lines, decoded as UTF-8.

    Any of _MALFORMED becomes a DataFormatError ``<path>:<line>: bad <what>:
    <err>`` naming the line being read, or ``<path>: bad <what>: <err>`` once
    all are read (no records, or a whole-file JSON document).
    """
    lineno = None

    def lines(fh):
        nonlocal lineno
        for lineno, raw in enumerate(fh, start=1):
            text = raw.decode("utf-8")
            if not text.isspace():  # a file yields no empty line; strip() would copy it
                yield text
        lineno = None

    try:
        with open(path, "rb") as fh:
            return parse(lines(fh))
    except _MALFORMED as err:
        where = path if lineno is None else f"{path}:{lineno}"
        raise DataFormatError(f"{where}: bad {what}: {err}") from err


def fold_jsonl(path, what, record) -> int:
    """``record(value)`` for the JSON value of each line, keeping no result.

    Returns the number of records read; errors as :func:`read_input`.
    """
    decode = json.JSONDecoder().decode  # json.loads re-checks its options per call
    return read_input(path, what,
                      lambda lines: sum(1 for _ in map(record, map(decode, lines))))


def read_jsonl(path, what, record):
    """The list of ``record(value)`` for the JSON value of each line; see :func:`fold_jsonl`."""
    records = []
    fold_jsonl(path, what, lambda value: records.append(record(value)))
    return records


#: Compact JSON text of one value, equal to ``json.dumps(value,
#: separators=(",", ":"))``; json.dumps with separators builds a new encoder
#: on every call.
encode_json = json.JSONEncoder(separators=(",", ":")).encode


class TextTable(dict):
    """key -> ``text_of(key)``, filled on first use.  The table is emptied
    once it holds ``limit`` entries, which bounds its memory whatever the keys."""

    def __init__(self, text_of, limit):
        super().__init__()
        self.text_of, self.limit = text_of, limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        text = self[key] = self.text_of(key)
        return text


def write_json(path, value, **options):
    """``value`` as a UTF-8 JSON file ended by a newline; ``options`` go to
    json.dumps, which encodes in C when there is no ``indent`` (json.dump
    writes the same text through the pure-Python encoder)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, **options))
        fh.write("\n")


def write_csv(path, rows, **dialect):
    """``rows``, header first, as a UTF-8 CSV file; a generator is never held whole."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, **dialect).writerows(rows)


#: The JSON type a decoded value of each Python type has, in the order they
#: are checked (a bool is an int too); anything else is an object.
_JSON_TYPES = ((type(None), "null"), (bool, "a boolean"), ((int, float), "a number"),
               (str, "a string"), ((list, tuple), "a list"))


def json_type(value) -> str:
    """The JSON type of a decoded value, for a message about what a file holds."""
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), "an object")


def strict_int(value, name) -> int:
    """An integer read from JSON: an int, or a float with no fraction.

    A bool, a string, a fractional or non-finite float and any other type
    raise ValueError naming ``name``, instead of being truncated by ``int``.
    """
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def strict_time_ms(value, name) -> int:
    """An epoch time in ms: a :func:`strict_int` in 0..2**63-1.

    The start of such a time's 15-minute window is in that range too, so it
    fits the int64 the matrix stores it in; a time outside it raises
    ValueError naming ``name``, not an OverflowError once read.
    """
    time_ms = strict_int(value, name)
    if not 0 <= time_ms < 2 ** 63:
        raise ValueError(f"{name} must be in 0..2**63-1, got {time_ms}")
    return time_ms


def strict_number_text(text, name, parse):
    """``parse(text)``, ``int`` or ``float``, of a number a CSV cell holds.

    Python's ``int()`` and ``float()`` also read digit-group underscores
    (``36_000_000``), surrounding blanks and non-ASCII digits, which no
    writer here produces; such text raises ValueError naming ``name``, and
    so does an integer that is not all ASCII digits (``+5``).
    """
    if text.isascii() and (text.isdigit() if parse is int
                           else "_" not in text and text.strip() == text):
        return parse(text)
    raise ValueError(f"{name} must be {'ASCII digits' if parse is int else 'ASCII number text'},"
                     f" got {text!r}")


def is_number(value) -> bool:
    """A finite int or float; JSON true and false are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def strict_float(value, name) -> float:
    """A finite number read from JSON; a bool, a string or NaN raises ValueError."""
    if is_number(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def strict_str(value, name) -> str:
    """A non-empty string read from an input file, such as a user id."""
    if type(value) is str and value:
        return value
    raise ValueError(f"{name} must be a non-empty string, got {value!r}")


def strict_unique(names, what) -> list:
    """``names`` as a list; a repeated name raises ValueError naming ``what``,
    since each name picks the one column its values are read from."""
    names = list(names)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{what} repeated: {repeated}")
    return names
