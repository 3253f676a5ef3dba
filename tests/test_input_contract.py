"""One reader contract: a malformed input record exits 3 naming file and line.

Every case goes through ``cli.main``.  A malformed record must end in exit
code 3 with ``<file>:<line>:`` (or ``<file>:`` for a whole-file JSON
document) on stderr, never in an exception escaping ``main``.
"""
import contextlib
import csv
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from stressmon import cli
from stressmon.context import read_context_jsonl
from stressmon.dataset import read_ema_csv, read_matrix_csv, write_matrix_csv
from stressmon.errors import DataFormatError
from stressmon.signals import read_bursts_jsonl

EMA_HEADER = "timestamp_ms,user_id,stress_level\n"
PPG = {"user_id": "u01", "channel": "ppg", "start_time_ms": 36_000_000,
       "rate_hz": 20.0, "samples": [0.5] * 2400}
SNAP = {"user_id": "u01", "timestamp_ms": 36_000_000, "sensor": "speed", "payload": 1.5}


def run_cli(argv):
    """(exit code, stderr) of one command; an escaping exception is its repr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback instead of an exit code
        rc = repr(exc)
    return rc, err.getvalue()


def featurize(data_dir, files):
    """Write ``files`` (name -> str or bytes) into data_dir and featurize it."""
    files = {"bursts.jsonl": "", "ema.csv": EMA_HEADER, **files}
    for name, text in files.items():
        mode = "wb" if isinstance(text, bytes) else "w"
        with open(os.path.join(data_dir, name), mode) as fh:
            fh.write(text)
    return run_cli(["featurize", "--data", str(data_dir),
                    "--out", os.path.join(str(data_dir), "m.csv")])


def assert_rejected(rc, err, where):
    assert rc == cli.EXIT_DATA, (rc, err)
    assert where in err and "Traceback" not in err, err


class TestRegressions:
    """Inputs that ended in a traceback or exit 0 before the reader contract."""

    def test_overflowing_burst_time(self, tmp_path):
        line = json.dumps(PPG).replace('"start_time_ms": 36000000', '"start_time_ms": 1e400')
        assert_rejected(*featurize(tmp_path, {"bursts.jsonl": line + "\n"}),
                        "bursts.jsonl:1:")

    def test_burst_file_not_utf8(self, tmp_path):
        good = json.dumps(PPG).encode()
        bad = good.replace(b'"u01"', b'"u\xff1"')
        assert_rejected(*featurize(tmp_path, {"bursts.jsonl": good + b"\n" + bad + b"\n"}),
                        "bursts.jsonl:2:")

    def test_ema_line_cut_inside_its_time(self, tmp_path):
        # "3,u01,36000000\n" cut by its line end and one digit read 3,600,000
        text = "stress_level,user_id,timestamp_ms\n3,u01,3600000"
        rc, err = featurize(tmp_path, {"ema.csv": text})
        assert_rejected(rc, err, "ema.csv:2:")
        assert "no line end" in err and "timestamp_ms" in err

    def test_matrix_cell_over_csv_field_limit(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("user_id,window_start_ms,label,bpm\n"
                        f"u01,0,1,{'1' * 140_000}\n")
        rc, err = run_cli(["train-eval", "--matrix", str(path), "--out", str(tmp_path / "e")])
        assert_rejected(rc, err, "m.csv:2:")

    def test_deeply_nested_model(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"kind": "random_forest", "trees": [' + '{"left": ' * 3000
                         + "1" + "}" * 3000 + "]}")
        matrix = tmp_path / "m.csv"
        matrix.write_text("user_id,window_start_ms,label,bpm\nu01,0,1,70.0\n")
        rc, err = run_cli(["explain", "--model", str(model), "--matrix", str(matrix),
                           "--out", str(tmp_path / "x")])
        assert_rejected(rc, err, "model.json: bad model file")

    @pytest.mark.parametrize("value", ["true", '"36000000"', "36000000.7"],
                             ids=["bool", "string", "fraction"])
    def test_burst_time_not_an_integer(self, tmp_path, value):
        line = json.dumps(PPG).replace("36000000", value)
        assert_rejected(*featurize(tmp_path, {"bursts.jsonl": line + "\n"}),
                        "bursts.jsonl:1:")

    @pytest.mark.parametrize("value", ["true", '"36000000"', "36000000.7"],
                             ids=["bool", "string", "fraction"])
    def test_context_time_not_an_integer(self, tmp_path, value):
        line = json.dumps(SNAP).replace("36000000", value)
        assert_rejected(*featurize(tmp_path, {"context.jsonl": line + "\n"}),
                        "context.jsonl:1:")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_ppg_sample(self, tmp_path, value):
        line = json.dumps(PPG).replace("0.5", value, 1)
        assert_rejected(*featurize(tmp_path, {"bursts.jsonl": line + "\n"}),
                        "bursts.jsonl:1:")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_matrix_cell(self, small_matrix, tmp_path, cell):
        path = tmp_path / "m.csv"
        write_matrix_csv(small_matrix, path)
        lines = path.read_text().splitlines()
        lines[9] = lines[9].rsplit(",", 1)[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        rc, err = run_cli(["train-eval", "--matrix", str(path), "--folds", "2",
                           "--n-trees", "3", "--out", str(tmp_path / "e")])
        assert_rejected(rc, err, "m.csv:10:")


class TestConfigAndColumnRegressions:
    """A simulate config and a matrix's columns that ended in a traceback."""

    def test_config_not_utf8(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"n_users": 2,\n "seed": "\xff"}\n')
        rc, err = run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert_rejected(rc, err, "config.json:2: bad simulation config")

    def test_deeply_nested_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"per_user": ' + "[" * 3000 + "]" * 3000 + "}")
        rc, err = run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert_rejected(rc, err, "config.json: bad simulation config")

    @pytest.mark.parametrize("argv,lacking", [
        (["train-eval", "--folds", "2", "--features", "all"], "rmssd"),
        (["train-eval", "--folds", "2", "--features", "ppg"], "rmssd"),
        (["train-eval", "--folds", "2", "--features", "context"], "battery_adaptor"),
        (["personalize", "--user", "u01", "--features", "all"], "rmssd"),
    ], ids=["train-eval-all", "train-eval-ppg", "train-eval-context", "personalize"])
    def test_matrix_without_feature_columns(self, tmp_path, argv, lacking):
        matrix = tmp_path / "m.csv"
        matrix.write_text("user_id,window_start_ms,label,bpm,speed\n" + "".join(
            f"u0{u},{w * 900_000},{(u + w) % 2},{60 + u + w},{w % 3}\n"
            for u in range(1, 5) for w in range(6)))
        rc, err = run_cli([*argv, "--matrix", str(matrix), "--out", str(tmp_path / "e")])
        assert_rejected(rc, err, "m.csv: --features")
        listed = err.split("lacks: ")[1].split()
        assert lacking + "," in listed and "bpm," not in listed and "speed," not in listed


def test_finite_samples_whose_sum_overflows_are_kept(tmp_path):
    burst = {"user_id": "u01", "channel": "accel_x", "start_time_ms": 0, "rate_hz": 4.0,
             "samples": [1.7e308, 1.7e308]}
    rc, err = featurize(tmp_path, {"bursts.jsonl": json.dumps(burst) + "\n"})
    assert rc == cli.EXIT_OK, err
    assert read_bursts_jsonl(tmp_path / "bursts.jsonl")[0].samples.tolist() == [1.7e308] * 2


def test_blank_lines_count_in_line_numbers(tmp_path):
    text = "\n" + json.dumps(SNAP) + "\n   \n" + json.dumps(dict(SNAP, timestamp_ms=None))
    assert_rejected(*featurize(tmp_path, {"context.jsonl": text}), "context.jsonl:4:")


# -- corrupting one field of a valid record ------------------------------------

CORRUPTIONS = ("missing", "null", "bool", "string", "1e400", "NaN", "list", "object")

BURSTS = [dict(PPG, samples=[0.5, -0.25, 1.0]),
          {"user_id": "u02", "channel": "accel_x", "start_time_ms": 900_000,
           "rate_hz": 4.0, "samples": [0.0, 1.5]}]
SNAPSHOTS = [SNAP,
             {"user_id": "u01", "timestamp_ms": 60_000, "sensor": "screen_status", "payload": 2},
             {"user_id": "u02", "timestamp_ms": 0, "sensor": "battery_level", "payload": None},
             {"user_id": "u02", "timestamp_ms": 5, "sensor": "weather", "payload": "rain"},
             {"user_id": "u03", "timestamp_ms": 7, "sensor": "location",
              "payload": [33.64, -117.84, 12.0]}]
#: JSON fields in the order parse_key lists them.
FIELDS = {"bursts": ["user_id", "channel", "start_time_ms", "rate_hz", "samples"],
          "context": ["user_id", "timestamp_ms", "sensor", "payload"]}
EMAS = [["36000000", "u01", "3"], ["900000", "u02", "1"]]
MATRIX_HEADER = ["user_id", "window_start_ms", "label", "bpm", "speed"]
MATRIX_ROWS = [["u01", "0", "1", "71.5", "2.0"], ["u02", "900000", "", "", "0.0"]]


def corrupt_json(rec, field, how):
    """One JSON line: ``rec`` with ``field`` corrupted as ``how`` says."""
    rec = dict(rec)
    value = rec.pop(field)
    if how != "missing":
        rec[field] = {"null": None, "bool": True, "string": str(value), "1e400": "@1e400@",
                      "NaN": float("nan"), "list": [value], "object": {"value": value}}[how]
    return json.dumps(rec).replace('"@1e400@"', "1e400")


def corrupt_csv(row, column, how):
    """One CSV row: ``row`` with its cell ``column`` corrupted as ``how`` says."""
    row = list(row)
    if how == "missing":
        del row[column]
    else:
        row[column] = {"null": "", "bool": "true", "string": "abc", "1e400": "1e400",
                       "NaN": "NaN", "list": "[1, 2]", "object": '{"a": 1}'}[how]
    return row


def csv_text(rows):
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def parse_key(fmt, parsed):
    """The reader's result as nested lists of reprs, one entry per record."""
    if fmt == "bursts":
        return [[b.user_id, b.channel, repr(b.start_time_ms), repr(b.rate_hz),
                 repr(b.samples.tolist())] for b in parsed]
    if fmt == "context":
        return [[user_id, repr(t), sensor, repr(payload)]
                for user_id, t, sensor, payload in parsed]
    if fmt == "ema":
        return [[repr(e.timestamp_ms), e.user_id, repr(e.stress_level)] for e in parsed]
    return [[group, repr(int(start)), repr(float(label)), *map(repr, row.tolist())]
            for group, start, label, row in zip(parsed.groups, parsed.window_starts,
                                                parsed.labels, parsed.values)]


def documented(fmt, rec, field, how, value):
    """The parsed repr of a corruption the format accepts, else None.

    A null payload of a numeric context sensor means missing and a weather
    payload is free text; in a CSV any non-empty text is a user id, and an
    empty matrix label or feature cell means unlabeled or missing.
    """
    if fmt == "context" and field == "payload" and how != "missing" \
            and (how == "null" or rec["sensor"] == "weather"):
        return repr(value)
    if fmt in ("ema", "matrix") and field == ("user_id" if fmt == "ema" else 0) \
            and how not in ("missing", "null"):
        return value
    if fmt == "matrix" and field >= 2 and how == "null":
        return repr(float("nan"))
    return None


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["bursts", "context", "ema", "matrix"]),
       pick=st.integers(0, 10**6), how=st.sampled_from(CORRUPTIONS),
       before=st.integers(0, 3), blank=st.booleans())
def test_one_corrupt_field_is_parsed_alike_or_named(fmt, pick, how, before, blank):
    """Either the record parses as before (or as the format documents the
    corrupt value), or the CLI exits 3 naming the record's line."""
    if fmt in ("bursts", "context"):
        records = BURSTS if fmt == "bursts" else SNAPSHOTS
        rec = records[pick % len(records)]
        column = pick // len(records) % len(FIELDS[fmt])
        field = FIELDS[fmt][column]
        head = "".join(json.dumps(records[i % len(records)]) + "\n" for i in range(before))
        bad = corrupt_json(rec, field, how)
        value = json.loads(bad).get(field)
        bad, good = bad + "\n", json.dumps(rec) + "\n"
        name = "bursts.jsonl" if fmt == "bursts" else "context.jsonl"
        read = read_bursts_jsonl if fmt == "bursts" else read_context_jsonl
    else:
        header = EMA_HEADER.strip().split(",") if fmt == "ema" else MATRIX_HEADER
        rows = EMAS if fmt == "ema" else MATRIX_ROWS
        rec = rows[pick % len(rows)]
        column = pick // len(rows) % len(rec)
        field = header[column] if fmt == "ema" else column
        head = csv_text([header] + [rows[i % len(rows)] for i in range(before)])
        value = corrupt_csv(rec, column, how)[column] if how != "missing" else None
        bad, good = csv_text([corrupt_csv(rec, column, how)]), csv_text([rec])
        name = "ema.csv" if fmt == "ema" else "matrix.csv"
        read = read_ema_csv if fmt == "ema" else read_matrix_csv
    if blank:
        head += "\n"
    lineno = head.count("\n") + 1

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", newline="") as fh:
            fh.write(head + good + good)
        expected = parse_key(fmt, read(path))
        with open(path, "w", newline="") as fh:
            fh.write(head + bad + good)
        try:
            got = parse_key(fmt, read(path))
        except DataFormatError:  # rejected: the CLI must say where
            if fmt == "matrix":
                rc, err = run_cli(["train-eval", "--matrix", path,
                                   "--out", os.path.join(tmp, "e")])
            else:
                rc, err = featurize(tmp, {name: head + bad + good})
            assert_rejected(rc, err, f"{name}:{lineno}:")
            return
    accepted = documented(fmt, rec, field, how, value)
    assert accepted is not None or got == expected, (field, how)
    if accepted is not None:
        expected[before][column] = accepted
        assert got == expected


# -- changing the shape of a JSON line -----------------------------------------

JSON_SHAPES = ("add_key", "repeat_key", "reorder_keys", "truncate_line")


def reshape_json(rec, how, pick, order):
    """One JSON line of ``rec``, without its line end, with its shape changed
    as ``how`` says: an unknown key added, a key repeated with its own
    value, the keys put in ``order`` (a permutation of at least as many
    places as ``rec`` has keys), or the line cut short after anything from
    one character to all but one."""
    items = list(rec.items())
    at = pick % (len(items) + 1)
    if how == "add_key":
        items.insert(at, ("extra", (None, 1, "x", [1.5], {"a": 1})[pick % 5]))
    elif how == "repeat_key":
        items.insert(at, items[pick // (len(items) + 1) % len(items)])
    elif how == "reorder_keys":
        items = [items[i] for i in order if i < len(items)]
    text = "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in items) + "}"
    return text[:1 + pick % (len(text) - 1)] if how == "truncate_line" else text


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["bursts", "context"]), how=st.sampled_from(JSON_SHAPES),
       pick=st.integers(0, 10**6), order=st.permutations(range(5)),
       before=st.integers(0, 3), line_end=st.booleans())
def test_a_reshaped_json_line_is_parsed_alike_or_named(fmt, how, pick, order, before, line_end):
    """A bursts.jsonl or context.jsonl whose last line has an unknown key
    added, a key repeated, its keys reordered or is cut short, with or
    without its line end, parses as before (exit 0), or the CLI exits 3
    naming the file and line, never a Python type."""
    records = BURSTS if fmt == "bursts" else SNAPSHOTS
    rec = records[pick % len(records)]
    head = "".join(json.dumps(records[i % len(records)]) + "\n" for i in range(before))
    text = head + reshape_json(rec, how, pick // len(records), order) + "\n" * line_end
    name = "bursts.jsonl" if fmt == "bursts" else "context.jsonl"
    read = read_bursts_jsonl if fmt == "bursts" else read_context_jsonl
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", newline="") as fh:
            fh.write(head + json.dumps(rec) + "\n")
        expected = parse_key(fmt, read(path))
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            got = parse_key(fmt, read(path))
        except DataFormatError:
            rc, err = featurize(tmp, {name: text})
            assert_rejected(rc, err, f"{name}:{before + 1}:")
            assert not PYTHON_TYPE_NAME.search(err), err
            return
    assert got == expected, (how, text)


# -- changing the shape of a CSV ----------------------------------------------

SHAPES = ("drop_cell", "add_cell", "reorder_header", "truncate_line")


def reshape_csv(rows, how, pick):
    """(text, line) of CSV ``rows`` (header first) with the shape of the
    line numbered ``line`` changed as ``how`` says.

    A dropped or added cell changes the second-to-last row.  A reordered
    header moves the cells of every row with it, so the file still holds
    the same table.  A truncated line is the file cut short inside its last
    line, by anything from one character (its line end) to all but one.
    """
    rows = [list(row) for row in rows]
    target = len(rows) - 2
    if how == "drop_cell":
        del rows[target][pick % len(rows[target])]
    elif how == "add_cell":
        rows[target].insert(pick % (len(rows[target]) + 1), ("", "0", "1.5", "x")[pick % 4])
    elif how == "reorder_header":
        perm = list(range(len(rows[0])))
        i, j = pick % len(perm), pick // len(perm) % (len(perm) - 1)
        perm.insert(j + (j >= i), perm.pop(i))  # move column i elsewhere
        rows = [[row[c] for c in perm] for row in rows]
        return csv_text(rows), 1
    else:
        text = csv_text(rows)
        last = text.rstrip("\r\n").rfind("\n") + 1
        cut = last + 1 + pick % (len(text) - last - 1)
        return text[:cut], len(rows)
    return csv_text(rows), target + 1


def matrix_by_column(parsed):
    """A matrix's parse keyed by column name, so a column's place is free."""
    key = {"rows": parse_key("matrix", parsed)}
    key["rows"] = [row[:3] for row in key["rows"]]
    for j, name in enumerate(parsed.columns):
        key[name] = [repr(x) for x in parsed.values[:, j].tolist()]
    return key


@settings(max_examples=150, deadline=None)
@given(how=st.sampled_from(SHAPES), pick=st.integers(0, 10**6), before=st.integers(0, 3))
def test_a_reshaped_matrix_is_parsed_alike_or_named(how, pick, before):
    """A matrix CSV with a cell dropped or added, its columns reordered or
    its last line cut short parses as before (exit 0), or the CLI exits 3
    naming the line and a column, never a Python type."""
    rows = [MATRIX_HEADER] + [MATRIX_ROWS[i % 2] for i in range(before + 2)]
    text, lineno = reshape_csv(rows, how, pick)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.csv")
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(rows))
        expected = matrix_by_column(read_matrix_csv(path))
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            got = matrix_by_column(read_matrix_csv(path))
        except DataFormatError:
            rc, err = run_cli(["train-eval", "--matrix", path, "--out", os.path.join(tmp, "e")])
            assert_rejected(rc, err, f"matrix.csv:{lineno}:")
            reason = err.split(f"matrix.csv:{lineno}:", 1)[1]
            assert any(name in reason for name in MATRIX_HEADER), err
            assert not PYTHON_TYPE_NAME.search(err), err
            return
    assert got == expected, (how, text)


@settings(max_examples=150, deadline=None)
@given(how=st.sampled_from(SHAPES), pick=st.integers(0, 10**6), before=st.integers(0, 3),
       order=st.permutations(range(3)))
def test_a_reshaped_ema_file_is_parsed_alike_or_named(how, pick, before, order):
    """An EMA CSV, its columns first put in ``order``, with a cell dropped or
    added, its columns reordered or its last line cut short parses as before
    (exit 0), or the CLI exits 3 naming the line and a column, never a
    Python type."""
    header = EMA_HEADER.strip().split(",")
    rows = [[row[c] for c in order] for row in [header] + [EMAS[i % 2] for i in range(before + 2)]]
    text, lineno = reshape_csv(rows, how, pick)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ema.csv")
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(rows))
        expected = parse_key("ema", read_ema_csv(path))
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            got = parse_key("ema", read_ema_csv(path))
        except DataFormatError:
            rc, err = featurize(tmp, {"ema.csv": text})
            assert_rejected(rc, err, f"ema.csv:{lineno}:")
            reason = err.split(f"ema.csv:{lineno}:", 1)[1]
            assert any(name in reason for name in header), err
            assert not PYTHON_TYPE_NAME.search(err), err
            return
    assert got == expected, (how, text)


# -- corrupting one value of a whole-file document -----------------------------

ZONES = [{"code": 0, "lat": 33.6405, "lon": -117.8443, "radius_m": 300.0},
         {"code": 1, "lat": 33.6461, "lon": -117.8427, "radius_m": 300.0}]
CONFIG = {"n_users": 2, "days": 1, "seed": 5, "tz_offset_ms": 0,
          "network": {"wifi_outages_ms": [[36_000_000, 37_800_000]]},
          "participants": {"baseline_bpm_range": [62.0, 80.0], "stress_bpm_delta": 9.0,
                           "ema_compliance": 0.9},
          "per_user": {"u01": {"baseline_bpm": 70.0, "invert_context": True}},
          "zones": ZONES}
_LEAF = {"leaf": True, "sample_fraction": 0.5}
MODEL = {"kind": "random_forest", "feature_names": ["bpm", "speed"],
         "hyperparameters": {"depth": 1}, "seed": 0, "base_score": 0.0, "degenerate": False,
         "tree_weights": [1.0],
         "trees": [{"feature_index": 0, "threshold": 62.5, "impurity_decrease": 0.1,
                    "sample_fraction": 1.0,
                    "left": dict(_LEAF, probability=0.25, class_counts=[3, 1]),
                    "right": dict(_LEAF, probability=0.75, class_counts=[1, 3])}]}
DOCUMENTS = {"config": CONFIG, "zones": ZONES, "model": MODEL}
#: What the CLI calls each document in its error messages.
DOCUMENT_KINDS = {"config": "simulation config", "zones": "zone config", "model": "model file"}
PYTHON_ERRORS = ("object is not", "has no attribute", "indices must be", "cannot convert")


def document_paths(value, path=()):
    """The path (keys and list indices) of every value inside a JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from document_paths(child, path + (key,))


def corrupt_document(doc, path, how):
    """JSON text of ``doc`` with the value at ``path`` corrupted as ``how`` says,
    the same corruptions :func:`corrupt_json` makes of a record's field."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    value = holder[path[-1]]
    if how == "missing":
        del holder[path[-1]]
    else:
        holder[path[-1]] = {"null": None, "bool": True, "string": str(value),
                            "1e400": "@1e400@", "NaN": float("nan"), "list": [value],
                            "object": {"value": value}}[how]
    return json.dumps(doc).replace('"@1e400@"', "1e400")


@settings(max_examples=150, deadline=None)
@given(doc=st.sampled_from(sorted(DOCUMENTS)), pick=st.integers(0, 10**6),
       how=st.sampled_from(CORRUPTIONS))
def test_one_corrupt_value_of_a_document_is_accepted_or_named(doc, pick, how):
    """A whole-file document with one value corrupted is read (exit 0), or
    the CLI exits 3 naming the file, with no Python error text."""
    paths = list(document_paths(DOCUMENTS[doc]))
    text = corrupt_document(DOCUMENTS[doc], paths[pick % len(paths)], how)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{doc}.json")
        rc, err = run_on_document(doc, text, tmp)
    what = DOCUMENT_KINDS[doc]
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA), (rc, err)
    if rc == cli.EXIT_DATA:
        assert err.startswith(f"error: {path}: bad {what}: "), err
    assert not any(text in err for text in PYTHON_ERRORS), err


def run_on_document(doc, text, tmp):
    """(exit code, stderr) of the command that reads ``text`` as document ``doc``."""
    path = os.path.join(tmp, f"{doc}.json")
    with open(path, "w") as fh:
        fh.write(text)
    if doc == "config":
        return run_cli(["simulate", "--config", path, "--out", os.path.join(tmp, "o")])
    if doc == "zones":
        for name, empty in (("bursts.jsonl", ""), ("ema.csv", EMA_HEADER)):
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(empty)
        return run_cli(["featurize", "--data", tmp, "--zones", path,
                        "--out", os.path.join(tmp, "m.csv")])
    matrix = os.path.join(tmp, "m.csv")
    with open(matrix, "w") as fh:
        fh.write(csv_text([MATRIX_HEADER] + [
            [f"u0{u}", str(w * 900_000), str((u + w) % 2), str(60 + u + w), str(w % 3)]
            for u in range(1, 4) for w in range(4)]))
    return run_cli(["explain", "--model", path, "--matrix", matrix, "--max-rows", "2",
                    "--background", "4", "--out", os.path.join(tmp, "x")])


PYTHON_TYPE_NAME = re.compile(r"got (NoneType|dict|list|str|int|float|bool)\b")


@settings(max_examples=150, deadline=None)
@given(doc=st.sampled_from(sorted(DOCUMENTS)), pick=st.integers(0, 10**6),
       how=st.sampled_from(CORRUPTIONS))
def test_a_corrupt_document_value_is_named_by_its_json_type(doc, pick, how):
    """An error about a document's value names its JSON type (null, a list,
    an object...), never the Python type it was decoded to."""
    paths = list(document_paths(DOCUMENTS[doc]))
    text = corrupt_document(DOCUMENTS[doc], paths[pick % len(paths)], how)
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = run_on_document(doc, text, tmp)
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA), (rc, err)
    assert not PYTHON_TYPE_NAME.search(err), err
