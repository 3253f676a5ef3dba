"""CLI commands: exit codes, artifacts, manifests, idempotence."""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressmon import cli
from stressmon.dataset import read_matrix_csv, write_matrix_csv
from stressmon.hrv import HRV_FEATURE_NAMES


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "n_users": 5, "days": 1, "seed": 11,
        "participants": {"stress_bpm_delta": 9.0,
                         "baseline_bpm_range": [60.0, 84.0]},
    }))
    return path


@pytest.fixture(scope="module")
def sim_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("simout")
    assert cli.main(["simulate", "--config", str(config_path),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def matrix_path(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat") / "matrix.csv"
    assert cli.main(["featurize", "--data", str(sim_dir),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def eval_dir(matrix_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    assert cli.main(["train-eval", "--matrix", str(matrix_path), "--model", "rf",
                     "--depth", "4", "--select-top", "5", "--folds", "3",
                     "--seed", "1", "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_outputs_and_manifest(self, sim_dir):
        names = os.listdir(sim_dir)
        for required in ("bursts.jsonl", "context.jsonl", "ema.csv",
                          "triggers.jsonl", "latent.csv"):
            assert required in names
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 11
        assert len(manifest["outputs"]) >= 5

    def test_missing_config_nonzero(self, capsys, tmp_path):
        rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_rerun_identical_hashes(self, config_path, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(out2)]) == 0
        for name in ("bursts.jsonl", "context.jsonl", "ema.csv",
                      "triggers.jsonl", "latent.csv"):
            assert sha(sim_dir / name) == sha(out2 / name), name

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate"])  # missing required flags
        assert err.value.code == cli.EXIT_USAGE
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--config", "config.json", "--out", "out",
                      "--seed", "-1"])
        assert err.value.code == cli.EXIT_USAGE

    def test_bad_config_exits_3_naming_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_users": 2,
                                      "per_user": {"u02": {"invert_contxt": True}}}))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "'u02'" in err and "'invert_contxt'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw,named", [
        ({"n_users": 2.7}, "n_users"), ({"days": True}, "days"), ({"seed": "5"}, "seed"),
        ({"tz_offset_ms": 0.5}, "tz_offset_ms"), ({"n_users": [2]}, "n_users"),
        ({"zones": [{"code": 0.9, "lat": 0, "lon": 0, "radius_m": 1}]}, "zone code"),
        ({"zones": [{"code": True, "lat": 0, "lon": 0, "radius_m": 1}]}, "zone code"),
        ({"network": {"wifi_outages_ms": [[0, 1_800_000.5]]}}, "wifi outage bound"),
    ])
    def test_non_integer_config_value_exits_3_naming_key(self, tmp_path, capsys, raw, named):
        # int() would truncate these to 2 users, 1 day, seed 5, offset 0 and zone 0 or 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{named} must be an integer" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw,named", [
        ({"zones": [{"code": 0, "lat": 33.64, "lon": -117.84, "radius_m": float("nan")}]},
         "zone radius_m must be a finite number"),
        ({"zones": []}, "zones must list at least one zone"),
    ], ids=["nan_radius", "no_zones"])
    def test_bad_zones_exit_3_naming_key(self, tmp_path, capsys, raw, named):
        # unchecked, a NaN radius writes NaN locations and an empty list fails on zones[0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("raw,reason", [
        ({"n_users": 0}, "n_users and days must be >= 1"),
        ({"n_users": 2, "bogus": 1}, "unknown config key 'bogus'"),
        ({"n_users": "2"}, "n_users must be an integer"),
        ({"per_user": {"u09": {}}}, "per_user 'u09': no such user"),
        ({"network": {"wifi_outages_ms": [5]}}, "wifi_outages_ms must be a list"),
        ({"network": {"wifi_outages_ms": 5}}, "wifi_outages_ms must be a list"),
        ({"participants": {"baseline_bpm_range": 5}}, "baseline_bpm_range must be two"),
        ({"zones": [5]}, "zone 0 must be an object"),
        ({"zones": [{"code": 0}]}, "zone 0 lacks lat, lon, radius_m"),
    ], ids=["no_users", "unknown_key", "string_users", "unknown_user", "outage_not_a_pair",
            "outages_not_a_list", "bpm_range_not_a_list", "zone_not_an_object",
            "zone_lacking_fields"])
    def test_config_error_names_file_and_key(self, tmp_path, capsys, raw, reason):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(raw))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: bad simulation config: {reason}"), err
        assert not (tmp_path / "o").exists()

    def test_manifest_counts_what_was_written(self, sim_dir):
        counts = json.loads((sim_dir / "manifest.json").read_text())["counts"]
        lines = {name: (sim_dir / name).read_text().splitlines()
                 for name in ("bursts.jsonl", "context.jsonl", "ema.csv", "triggers.jsonl")}
        decisions = [json.loads(line)["decision"] for line in lines["triggers.jsonl"]]
        assert counts == {"bursts": len(lines["bursts.jsonl"]),
                          "snapshots": len(lines["context.jsonl"]),
                          "emas": len(lines["ema.csv"]) - 1,  # less the header
                          "evaluations": len(decisions),
                          "prompts": decisions.count("trigger")}
        assert counts["prompts"] > 0

    def test_manifest_times_the_two_passes(self, sim_dir):
        timings = json.loads((sim_dir / "manifest.json").read_text())["timings"]
        assert set(timings) == {"total_s", "context_s", "bursts_s"}
        assert all(0 <= timings[key] <= timings["total_s"] for key in ("context_s", "bursts_s"))

    @pytest.mark.parametrize("raw,reason", [
        ({"network": None}, "network must be an object, got null"),
        ({"participants": "x"}, "participants must be an object, got a string"),
        ({"per_user": [1]}, "per_user must be an object, got a list"),
        ({"per_user": {"u01": True}}, "per_user 'u01' must be an object, got a boolean"),
        ({"zones": {"code": 0}}, "zones must be a list, got an object"),
    ], ids=["network_null", "participants_a_string", "per_user_a_list",
            "override_a_boolean", "zones_an_object"])
    def test_config_error_names_json_type(self, tmp_path, capsys, raw, reason):
        # the reason names the value's JSON type, never a Python one such as NoneType
        config = tmp_path / "c.json"
        config.write_text(json.dumps(raw))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {config}: bad simulation config: {reason}\n"

    def test_negative_config_seed_exits_3(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_users": 1, "seed": -1}))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {config}: bad simulation config: seed must be non-negative\n")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        # --seed 9 writes what a config whose seed is 9 writes, and the manifest says 9
        manifests = []
        for name, seed, flag in (("flag", 11, ["--seed", "9"]), ("config", 9, [])):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"n_users": 1, "days": 1, "seed": seed}))
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                             *flag]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        flagged, configured = manifests
        assert flagged["seed"] == configured["seed"] == 9
        assert flagged["outputs"] == configured["outputs"]
        assert len(flagged["outputs"]) == 6


class TestFeaturize:
    def test_matrix_written(self, matrix_path):
        matrix = read_matrix_csv(matrix_path)
        assert matrix.n_rows > 50
        assert len(matrix.columns) == 24
        assert (matrix_path.parent / "manifest.json").exists()
        assert json.loads((str(matrix_path) + ".meta.json") and
                          open(str(matrix_path) + ".meta.json").read())

    def test_far_apart_records_give_only_occupied_windows(self, tmp_path, capsys):
        # two accelerometer bursts a year apart: the EMA just after the second
        # labels its slot alone, not also the 31 empty slots of the 8-hour
        # label horizon before it
        year = 365 * 86_400_000
        (tmp_path / "bursts.jsonl").write_text("".join(
            json.dumps({"user_id": "u01", "channel": "accel_x", "start_time_ms": t,
                        "rate_hz": 4.0, "samples": [0.0] * 240}) + "\n"
            for t in (0, year)))
        (tmp_path / "ema.csv").write_text(
            f"timestamp_ms,user_id,stress_level\n{year + 60_000},u01,3\n")
        out = tmp_path / "matrix.csv"
        assert cli.main(["featurize", "--data", str(tmp_path), "--out", str(out)]) == 0
        matrix = read_matrix_csv(out)
        assert matrix.window_starts.tolist() == [year]
        assert "featurized 1 labeled windows" in capsys.readouterr().out

    def test_empty_dir_header_only(self, tmp_path, capsys):
        # an empty (or misspelled) directory is an error naming each missing file
        out = tmp_path / "matrix.csv"
        rc = cli.main(["featurize", "--data", str(tmp_path), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bursts.jsonl" in err and "ema.csv" in err
        assert not out.exists()

    def test_context_optional(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        out = tmp_path / "matrix.csv"
        assert cli.main(["featurize", "--data", str(tmp_path), "--out", str(out)]) == 0
        matrix = read_matrix_csv(out)
        assert matrix.n_rows == 0 and len(matrix.columns) == 24

    def test_missing_ema_named(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").write_text("")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "ema.csv" in err and "bursts.jsonl" not in err

    def test_gyro_record_fails_with_location(self, tmp_path, capsys):
        # the watch records no gyroscope, so a gyro record is not a burst record
        (tmp_path / "bursts.jsonl").write_text(json.dumps(
            {"user_id": "u01", "channel": "gyro", "start_time_ms": 0, "rate_hz": 4.0,
             "samples": [0.0] * 240}) + "\n")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bursts.jsonl:1:" in err and "gyro" in err

    def test_corrupt_line_fails_with_location(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").write_text("{broken\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert ":1:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json", "", "{}", "[1]", '[{"code": 0, "lat": 1.0}]',
        '[{"code": 5, "lat": 0, "lon": 0, "radius_m": 1}]',
        '[{"code": 0, "lat": 1%s, "lon": 0, "radius_m": 1}]' % ("0" * 400),
        '[{"code": 0, "lat": 33.64, "lon": -117.84, "radius_m": NaN}]',
        '[{"code": 0, "lat": 1e400, "lon": 0, "radius_m": 1}]',
        '[{"code": 0, "lat": "33.6", "lon": 0, "radius_m": 1}]',
        '[{"code": 0, "lat": 0, "lon": true, "radius_m": 1}]',
    ], ids=["bad_json", "empty", "object", "not_objects", "missing_key",
            "bad_code", "float_overflow", "nan_radius", "infinite_lat", "string_lat",
            "bool_lon"])
    def test_malformed_zones_exits_3_naming_file(self, tmp_path, capsys, text):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        (tmp_path / "zones.json").write_text(text)
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert "zones.json" in capsys.readouterr().err

    @pytest.mark.parametrize("code", ["1.5", "true", '"1"'])
    def test_non_integer_zone_code_exits_3(self, tmp_path, capsys, code):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        (tmp_path / "zones.json").write_text(
            '[{"code": %s, "lat": 0, "lon": 0, "radius_m": 1}]' % code)
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "zones.json" in err and "zone code must be an integer" in err


    @pytest.mark.parametrize("text,reason", [
        ("[5]", "zone 0 must be an object"),
        ('[{"code": 0}]', "zone 0 lacks lat, lon, radius_m"),
        ('[{"code": 0, "lat": 0, "lon": 0, "radius_m": 1}, [1]]', "zone 1 must be an object"),
        ('[{"code": 0, "lat": 0, "lon": 0, "radius_m": 1}, {"code": 7, "lat": 0, "lon": 0,'
         ' "radius_m": 1}]', "zone 1: zone code must be 0..2"),
    ], ids=["zone_not_an_object", "zone_lacking_fields", "second_zone_a_list",
            "second_zone_code"])
    def test_zone_shape_named(self, tmp_path, capsys, text, reason):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        zones = tmp_path / "z.json"
        zones.write_text(text)
        rc = cli.main(["featurize", "--data", str(tmp_path), "--zones", str(zones),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {zones}: bad zone config: {reason}")

    def test_zones_directory_exits_3_naming_it(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        zones = tmp_path / "zones_dir"
        zones.mkdir()
        rc = cli.main(["featurize", "--data", str(tmp_path), "--zones", str(zones),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert "zones_dir" in capsys.readouterr().err

    def test_bursts_directory_exits_3_naming_it(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").mkdir()
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert "bursts.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("ema", [None, "timestamp_ms,user_id,stress_level\n0,u01,9\n"],
                             ids=["ema_missing", "ema_malformed"])
    @pytest.mark.parametrize("bad", ["bursts.jsonl", "context.jsonl"])
    def test_bad_line_reported_before_ema_error(self, tmp_path, capsys, bad, ema):
        # ema.csv is read first, but its error waits until every burst and
        # context line is checked, as when the files were read in that order
        good = {"bursts.jsonl": json.dumps(
                    {"user_id": "u01", "channel": "accel_x", "start_time_ms": 0,
                     "rate_hz": 4.0, "samples": [0.0] * 240}) + "\n",
                "context.jsonl": json.dumps(
                    {"user_id": "u01", "timestamp_ms": 0, "sensor": "speed",
                     "payload": 1.0}) + "\n"}
        for name, text in good.items():
            (tmp_path / name).write_text(text + ("{broken\n" if name == bad else ""))
        if ema is not None:
            (tmp_path / "ema.csv").write_text(ema)
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "ema.csv" not in err

    def test_malformed_ema_reported_before_missing_bursts(self, tmp_path, capsys):
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n0,u01,9\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "ema.csv:2:" in err and "bursts.jsonl" not in err

    def test_manifest_counts(self, sim_dir, matrix_path):
        manifest = json.loads((matrix_path.parent / "manifest.json").read_text())
        counts = manifest["counts"]
        lines = {name: sum(1 for _ in open(sim_dir / name))
                 for name in ("bursts.jsonl", "context.jsonl", "ema.csv")}
        assert counts["records"] == dict(lines, **{"ema.csv": lines["ema.csv"] - 1})
        assert counts["labeled_windows"] == read_matrix_csv(matrix_path).n_rows
        assert 0 < counts["off_wrist_bursts"] < counts["labeled_windows"]
        assert counts["labeled_without_ppg"] == 0
        assert set(manifest["timings"]) == {"total_s", "read_s", "filter_hrv_s", "assemble_s"}

    @pytest.mark.parametrize("bad", ["bursts.jsonl", "context.jsonl", "ema.csv"])
    @pytest.mark.parametrize("time_ms", [10 ** 30, 2 ** 63, -1])
    def test_time_out_of_range_exits_3_with_line(self, tmp_path, capsys, bad, time_ms):
        # the matrix stores window starts as int64: a time must be in 0..2**63-1
        def at(name):
            return time_ms if name == bad else 0
        (tmp_path / "bursts.jsonl").write_text(json.dumps(
            {"user_id": "u01", "channel": "accel_x", "start_time_ms": at("bursts.jsonl"),
             "rate_hz": 4.0, "samples": [0.0] * 240}) + "\n")
        (tmp_path / "context.jsonl").write_text(json.dumps(
            {"user_id": "u01", "timestamp_ms": at("context.jsonl"), "sensor": "speed",
             "payload": 1.0}) + "\n")
        (tmp_path / "ema.csv").write_text(
            f"timestamp_ms,user_id,stress_level\n{at('ema.csv')},u01,3\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        line = 2 if bad == "ema.csv" else 1
        assert f"{bad}:{line}: bad " in capsys.readouterr().err

    @pytest.mark.parametrize("user_id", ["u01", 7])
    def test_unknown_context_sensor_exits_3_with_line(self, tmp_path, capsys, user_id):
        # the user id is checked before the sensor, so a line bad in both names user_id
        records = [{"user_id": "u01", "timestamp_ms": 0, "sensor": "speed", "payload": 1.0},
                   {"user_id": user_id, "timestamp_ms": 60_000, "sensor": "heartbeat",
                    "payload": 1.0}]
        (tmp_path / "context.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "context.jsonl:2:" in err
        if user_id == "u01":
            assert "unknown context sensor 'heartbeat'" in err
        else:
            assert "user_id" in err and "unknown context sensor" not in err

    def test_ppg_rate_off_design_exits_3_with_line(self, tmp_path, capsys):
        accel = {"user_id": "u01", "channel": "accel_x", "start_time_ms": 0,
                 "rate_hz": 4.0, "samples": [0.0] * 240}
        ppg = {"user_id": "u01", "channel": "ppg", "start_time_ms": 0,
               "rate_hz": 25.0, "samples": [0.0] * 3000}
        (tmp_path / "bursts.jsonl").write_text(
            json.dumps(accel) + "\n" + json.dumps(ppg) + "\n")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert "bursts.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [["1.5", "2"], [True, False], [1.5, True]],
                             ids=["strings", "bools", "number_and_bool"])
    def test_burst_samples_not_json_numbers_exit_3_with_line(self, tmp_path, capsys, samples):
        # numpy would read each of these as floats
        accel = {"user_id": "u01", "channel": "accel_x", "start_time_ms": 0,
                 "rate_hz": 4.0, "samples": [0.0] * 240}
        (tmp_path / "bursts.jsonl").write_text(
            json.dumps(accel) + "\n" + json.dumps(dict(accel, samples=samples)) + "\n")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert "bursts.jsonl:2: bad burst record: samples must be a list of JSON numbers" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [
        ("36_000_000,u01,3", "timestamp_ms"), (" 36000000,u01,3", "timestamp_ms"),
        ("+36000000,u01,3", "timestamp_ms"), ("\uff13\uff16000000,u01,3", "timestamp_ms"),
        ("36000000,u01, 3", "stress_level"), ("36000000,u01,+3", "stress_level"),
        ("36000000,u01,3 ", "stress_level"), ("36000000,u01,\u0663", "stress_level"),
    ], ids=["underscore", "lead_blank", "plus", "fullwidth", "blank_level", "plus_level",
            "trail_blank", "arabic_indic_level"])
    def test_ema_integer_not_ascii_digits_exits_3_with_line(self, tmp_path, capsys, line,
                                                              named):
        # int() reads every one of these; the EMA writer writes ASCII digits only
        (tmp_path / "bursts.jsonl").write_text(json.dumps(
            {"user_id": "u01", "channel": "accel_x", "start_time_ms": 36_000_000,
             "rate_hz": 4.0, "samples": [0.0] * 240}) + "\n")
        (tmp_path / "ema.csv").write_text(
            f"timestamp_ms,user_id,stress_level\n36000000,u01,3\n{line}\n", encoding="utf-8")
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"ema.csv:3: bad EMA record: {named} must be ASCII digits" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("text,expected", [
        ("timestamp_ms,user_id,stress_level\n36000000,u01,3\n36000000,u01,3,9\n",
         "ema.csv:3: bad EMA record: 4 cells, the header has 3"),
        ("timestamp_ms,user_id,stress_level\n36000000,u01,3\n36000000,u01\n",
         "ema.csv:3: bad EMA record: 2 cells, the header has 3"),
        ("timestamp_ms,user_id\n36000000,u01\n",
         "ema.csv:1: bad EMA record: header must name stress_level once"),
        ("timestamp_ms,user_id,user_id,stress_level\n36000000,u01,u02,3\n",
         "ema.csv:1: bad EMA record: header must name user_id once"),
    ], ids=["long_line", "short_line", "short_header", "repeated_header"])
    def test_ema_shape_exits_3_with_line(self, tmp_path, capsys, text, expected):
        # each row has the header's cells, and the header names each field once
        (tmp_path / "bursts.jsonl").write_text(json.dumps(
            {"user_id": "u01", "channel": "accel_x", "start_time_ms": 36_000_000,
             "rate_hz": 4.0, "samples": [0.0] * 240}) + "\n")
        (tmp_path / "ema.csv").write_text(text)
        rc = cli.main(["featurize", "--data", str(tmp_path),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("text,reason", [
        ('{"code": 0}', "zones must be a list, got an object"),
        ("null", "zones must be a list, got null"),
        ('[{"code": 0, "lat": 0, "lon": 0, "radius_m": 0}]',
         "zone 0: zone radius must be positive"),
        ('[{"code": 0, "lat": 0, "lon": 0, "radius_m": -1.5}]',
         "zone 0: zone radius must be positive"),
    ], ids=["object", "null", "zero_radius", "negative_radius"])
    def test_zones_rejected_with_reason(self, tmp_path, capsys, text, reason):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        zones = tmp_path / "z.json"
        zones.write_text(text)
        rc = cli.main(["featurize", "--data", str(tmp_path), "--zones", str(zones),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {zones}: bad zone config: {reason}\n"
        assert not (tmp_path / "m.csv").exists()


def _rejected_by_float(value):
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return True
    return False


_VALID_CONTEXT = [
    {"sensor": "speed", "payload": 1.5},
    {"sensor": "battery_level", "payload": None},
    {"sensor": "screen_status", "payload": 2},
    {"sensor": "weather", "payload": "rain"},
    {"sensor": "weather", "payload": 7},
    {"sensor": "location", "payload": [33.64, -117.84, 12.0]},
]
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=8).filter(_rejected_by_float),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just(10 ** 400))
_BAD_PAYLOADS = st.one_of(
    st.tuples(st.sampled_from(["speed", "battery_level", "device_off", "wind_speed",
                               "battery_adaptor", "screen_status"]),
              _NOT_A_NUMBER),
    st.tuples(st.just("location"), st.one_of(
        st.none(), st.floats(allow_nan=False), st.text(max_size=8),
        st.lists(st.floats(allow_nan=False), max_size=1),
        st.lists(_NOT_A_NUMBER, min_size=2, max_size=3))))


@settings(max_examples=60, deadline=None)
@given(valid=st.lists(st.sampled_from(_VALID_CONTEXT), max_size=4),
       bad=_BAD_PAYLOADS)
def test_malformed_context_payload_exits_3_with_line(valid, bad):
    sensor, payload = bad
    records = [dict(rec, user_id="u01", timestamp_ms=60_000 * i)
               for i, rec in enumerate(valid)]
    records.append({"user_id": "u01", "timestamp_ms": 0, "sensor": sensor,
                    "payload": payload})
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "context.jsonl"), "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(["featurize", "--data", tmp,
                               "--out", os.path.join(tmp, "m.csv")])
        except Exception as exc:  # a traceback instead of an exit code
            rc = repr(exc)
    assert rc == cli.EXIT_DATA
    assert f":{len(records)}:" in err.getvalue()


class TestTrainEval:
    def test_report_written(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        assert len(report["folds"]) == 3
        assert 0.0 <= report["mean_f1"] <= 1.0
        assert (eval_dir / "report.csv").exists()
        assert (eval_dir / "model.json").exists()

    def test_manifest_timings_and_node_count(self, eval_dir, matrix_path, tmp_path):
        def walk(node):
            return 1 if node.get("leaf") else 1 + walk(node["left"]) + walk(node["right"])

        manifest = json.loads((eval_dir / "manifest.json").read_text())
        assert set(manifest["timings"]) == {"total_s", "grouped_cv_s", "final_fit_s"}
        assert 0 <= manifest["timings"]["final_fit_s"] <= manifest["timings"]["total_s"]
        model = json.loads((eval_dir / "model.json").read_text())
        nodes = sum(walk(tree) for tree in model["trees"])
        assert nodes > len(model["trees"])
        assert manifest["counts"] == {"final_model_nodes": nodes}
        out = tmp_path / "knn"
        assert cli.main(["train-eval", "--matrix", str(matrix_path), "--model", "knn",
                         "--folds", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"final_model_nodes": 0}

    def test_selected_features_count(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        for fold in report["folds"]:
            assert len(fold["selected_features"]) == 5

    def test_too_many_folds(self, matrix_path, capsys, tmp_path):
        rc = cli.main(["train-eval", "--matrix", str(matrix_path),
                       "--folds", "50", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA

    def test_ppg_only_restricts_columns(self, matrix_path, tmp_path):
        out = tmp_path / "ppg"
        assert cli.main(["train-eval", "--matrix", str(matrix_path),
                         "--model", "rf", "--depth", "3", "--folds", "3",
                         "--features", "ppg", "--seed", "2",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for fold in report["folds"]:
            assert set(fold["selected_features"]) <= set(HRV_FEATURE_NAMES)

    def test_auto_selection_reaches_model(self, matrix_path, tmp_path):
        # the final model keeps the features auto-selection picks on all rows
        from stressmon.dataset import knn_impute
        from stressmon.learn import ModelSpec
        from stressmon.learn.evaluate import _auto_select
        out = tmp_path / "auto"
        assert cli.main(["train-eval", "--matrix", str(matrix_path),
                         "--model", "rf", "--depth", "3", "--n-trees", "10",
                         "--select-top", "auto", "--folds", "3", "--seed", "5",
                         "--out", str(out)]) == 0
        matrix = cli._restrict_features(read_matrix_csv(matrix_path), "all")
        labeled = matrix.labeled()
        completed = knn_impute(labeled)
        spec = ModelSpec(kind="rf", depth=3, n_trees=10, select_top="auto")
        cols = _auto_select(completed.values, completed.labels.astype(int),
                            completed.groups, spec, 5)
        model = json.loads((out / "model.json").read_text())
        assert model["feature_names"] == [completed.columns[i] for i in cols]

    @pytest.mark.parametrize("edit", ["short_row", "label_2", "label_half", "start_10**30",
                                      "start_2**63", "start_-5", "start_underscore",
                                      "start_plus", "start_blank", "cell_underscore",
                                      "cell_blank", "cell_tab", "cell_arabic_indic"])
    def test_bad_matrix_row_exits_3_with_line(self, matrix_path, tmp_path, capsys,
                                              edit):
        lines = matrix_path.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines[1:], start=2)
                      if line.split(",")[2] != "" and line.split(",")[3] != "")
        cells = lines[lineno - 1].split(",")
        start, cell = cells[1], cells[3]
        if edit == "short_row":
            cells = cells[:-2]
        elif edit.startswith("start_"):  # window starts are int64 epoch times in ASCII digits
            cells[1] = {"start_10**30": str(10 ** 30), "start_2**63": str(2 ** 63),
                        "start_-5": "-5", "start_underscore": f"{start[:-1]}_{start[-1]}",
                        "start_plus": "+" + start, "start_blank": start + " "}[edit]
        elif edit.startswith("cell_"):  # float() reads these; write_matrix_csv writes none
            cells[3] = {"cell_underscore": f"{cell[0]}_{cell[1:]}", "cell_blank": " " + cell,
                        "cell_tab": cell + "\t", "cell_arabic_indic": "\u0667\u0660.5"}[edit]
        else:
            cells[2] = "2" if edit == "label_2" else "0.5"
        lines[lineno - 1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(["train-eval", "--matrix", str(bad), "--folds", "3",
                       "--n-trees", "5", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert f"bad.csv:{lineno}: bad matrix CSV: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-eval", "explain"])
    def test_repeated_column_name_exits_3(self, matrix_path, eval_dir, tmp_path, capsys,
                                          command):
        header, rest = matrix_path.read_text().split("\n", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text(header.replace(",ibi,", ",bpm,") + "\n" + rest)
        argv = (["train-eval", "--folds", "3", "--n-trees", "5"] if command == "train-eval"
                else ["explain", "--model", str(eval_dir / "model.json")])
        rc = cli.main(argv + ["--matrix", str(bad), "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {bad}:1: bad matrix CSV: column names repeated: ['bpm']\n")

    @pytest.mark.parametrize("command", ["train-eval", "explain"])
    def test_empty_column_named(self, matrix_path, eval_dir, tmp_path, capsys, command):
        matrix = read_matrix_csv(matrix_path)
        speed = matrix.columns.index("speed")
        matrix.values[:, speed] = np.nan
        empty = tmp_path / "empty_speed.csv"
        write_matrix_csv(matrix, empty)
        argv = (["train-eval", "--folds", "3", "--n-trees", "5"] if command == "train-eval"
                else ["explain", "--model", str(eval_dir / "model.json")])
        rc = cli.main(argv + ["--matrix", str(empty), "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert "column 'speed' has no observed values" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,code", [
        (["--depth", "0"], 2), (["--k", "0"], 2), (["--n-trees", "0"], 2),
        (["--rounds", "-3"], 2), (["--folds", "0"], 2), (["--folds", "1"], 2),
        (["--model", "boosted", "--learning-rate", "0"], 2),
        (["--model", "boosted", "--learning-rate", "nan"], 2),
        (["--select-top", "abc"], 2), (["--select-top", "0"], 2),
        (["--seed", "-1"], 2), (["--select-top", "99"], 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_invalid_model_flag(self, matrix_path, tmp_path, capsys, flags, code):
        argv = ["train-eval", "--matrix", str(matrix_path), "--folds", "3",
                *flags, "--out", str(tmp_path / "e")]
        try:
            rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code
        assert rc == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == cli.EXIT_DATA:
            assert "99" in err and "24" in err

    @pytest.mark.parametrize("header", ["window_start_ms,user_id,label", "user_id,label",
                                        "user,window_start_ms,label", ""],
                             ids=["swapped", "no_start", "renamed", "empty"])
    def test_bad_matrix_header_exits_3_with_line(self, matrix_path, tmp_path, capsys, header):
        first, rest = matrix_path.read_text().split("\n", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text(first.replace("user_id,window_start_ms,label", header, 1) + "\n" + rest)
        rc = cli.main(["train-eval", "--matrix", str(bad), "--folds", "3",
                       "--n-trees", "5", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:1: bad matrix CSV: unexpected header ")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("rate", ["abc", "0", "-0.1", "nan", "inf"])
    def test_learning_rate_not_above_zero_is_usage_error(self, matrix_path, tmp_path, capsys,
                                                         rate):
        with pytest.raises(SystemExit) as err:
            cli.main(["train-eval", "--matrix", str(matrix_path), "--model", "boosted",
                      "--learning-rate", rate, "--out", str(tmp_path / "e")])
        assert err.value.code == cli.EXIT_USAGE
        assert "--learning-rate" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_learning_rate_accepted(self, matrix_path, tmp_path):
        out = tmp_path / "e"
        assert cli.main(["train-eval", "--matrix", str(matrix_path), "--model", "boosted",
                         "--rounds", "3", "--depth", "2", "--learning-rate", "0.1",
                         "--folds", "3", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["model"]["learning_rate"] == 0.1
        assert json.loads((out / "model.json").read_text())["tree_weights"] == [0.1] * 3

    def test_knn_model_runs(self, matrix_path, tmp_path):
        out = tmp_path / "knn"
        assert cli.main(["train-eval", "--matrix", str(matrix_path),
                         "--model", "knn", "--k", "7", "--folds", "3",
                         "--seed", "3", "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["kind"] == "knn"


class TestExplain:
    def test_ranking_and_beeswarm(self, eval_dir, matrix_path, tmp_path):
        out = tmp_path / "explain"
        assert cli.main(["explain", "--model", str(eval_dir / "model.json"),
                         "--matrix", str(matrix_path), "--max-rows", "6",
                         "--background", "24", "--out", str(out)]) == 0
        ranking = json.loads((out / "shap_ranking.json").read_text())
        assert len(ranking) == 5
        values = [r["mean_abs_shap"] for r in ranking]
        assert values == sorted(values, reverse=True)
        beeswarm = (out / "beeswarm.csv").read_text().strip().splitlines()
        assert beeswarm[0] == "row,feature,shap,feature_value"
        assert len(beeswarm) == 1 + 6 * 5
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts == {"rows_explained": 6, "background_rows": 24, "features": 5}
        assert counts["rows_explained"] * counts["features"] == len(beeswarm) - 1

    def test_manifest_times_each_stage(self, eval_dir, matrix_path, tmp_path):
        out = tmp_path / "explain"
        assert cli.main(["explain", "--model", str(eval_dir / "model.json"),
                         "--matrix", str(matrix_path), "--max-rows", "2",
                         "--background", "8", "--out", str(out)]) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        stages = ("load_s", "read_s", "impute_s", "shap_s", "write_s")
        assert set(timings) == {"total_s", *stages}
        assert all(timings[key] >= 0 for key in stages)
        # the times are whole milliseconds, so compare them as such
        assert sum(round(timings[key] * 1000) for key in stages) \
            <= round(timings["total_s"] * 1000)

    def test_too_many_features_exit(self, matrix_path, tmp_path, capsys):
        # a model over all 24 columns cannot be explained exactly
        out = tmp_path / "wide"
        assert cli.main(["train-eval", "--matrix", str(matrix_path),
                         "--model", "rf", "--depth", "3", "--folds", "3",
                         "--seed", "4", "--out", str(out)]) == 0
        rc = cli.main(["explain", "--model", str(out / "model.json"),
                       "--matrix", str(matrix_path),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_DATA

    def test_default_model_too_wide_names_model_before_imputing(self, matrix_path, tmp_path,
                                                                capsys, monkeypatch):
        from stressmon import dataset
        out = tmp_path / "default"
        assert cli.main(["train-eval", "--matrix", str(matrix_path), "--out", str(out)]) == 0
        capsys.readouterr()

        def no_fit(self, values, missing):
            raise AssertionError("imputer fitted for a model that cannot be explained")

        monkeypatch.setattr(dataset.KnnImputer, "fit", no_fit)
        model = out / "model.json"
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{model}: 24 features > 16; train with --select-top 16 or fewer" in err

    def test_dummy_feature_zero_in_ranking(self, matrix_path, tmp_path):
        # hand-build a stump that never touches 'ibi'; its mean |shap| is 0
        from stressmon.learn import TreeEnsembleModel, TreeNode
        from stressmon.cli import save_model_json
        stump = TreeNode(feature_index=0, threshold=75.0, impurity_decrease=0.2,
                         sample_fraction=1.0,
                         left=TreeNode(class_counts=(8, 2), value=0.2,
                                       sample_fraction=0.5),
                         right=TreeNode(class_counts=(2, 8), value=0.8,
                                        sample_fraction=0.5))
        model = TreeEnsembleModel(kind="random_forest", trees=[stump],
                                  tree_weights=[1.0],
                                  feature_names=["bpm", "ibi"],
                                  hyperparameters={}, seed=0)
        model_path = tmp_path / "stump.json"
        save_model_json(model_path, model)
        out = tmp_path / "exp"
        assert cli.main(["explain", "--model", str(model_path),
                         "--matrix", str(matrix_path), "--max-rows", "5",
                         "--background", "16", "--out", str(out)]) == 0
        ranking = {r["feature"]: r["mean_abs_shap"]
                   for r in json.loads((out / "shap_ranking.json").read_text())}
        assert ranking["ibi"] == 0.0

    def test_no_labeled_rows_exit(self, tmp_path, capsys):
        (tmp_path / "bursts.jsonl").write_text("")
        (tmp_path / "ema.csv").write_text("timestamp_ms,user_id,stress_level\n")
        matrix = tmp_path / "m.csv"
        assert cli.main(["featurize", "--data", str(tmp_path), "--out", str(matrix)]) == 0
        from stressmon.learn import TreeEnsembleModel, TreeNode
        leaf = TreeNode(class_counts=(1, 1), value=0.5, sample_fraction=1.0)
        model = TreeEnsembleModel(kind="random_forest", trees=[leaf], tree_weights=[1.0],
                                  feature_names=["bpm"], hyperparameters={}, seed=0)
        cli.save_model_json(tmp_path / "leaf.json", model)
        rc = cli.main(["explain", "--model", str(tmp_path / "leaf.json"),
                       "--matrix", str(matrix), "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert "no labeled rows" in capsys.readouterr().err

    def test_each_row_explained_once(self, eval_dir, matrix_path, tmp_path,
                                     monkeypatch):
        from stressmon import explain
        rows = []
        explain_rows = explain.explain_rows

        def counting(model, explained, background):
            rows.extend(np.asarray(row).tobytes() for row in explained)
            return explain_rows(model, explained, background)

        monkeypatch.setattr(explain, "explain_rows", counting)
        assert cli.main(["explain", "--model", str(eval_dir / "model.json"),
                         "--matrix", str(matrix_path), "--max-rows", "6",
                         "--background", "24", "--out", str(tmp_path / "e")]) == 0
        assert len(rows) == 6 and len(set(rows)) == 6

    def test_imputes_only_sampled_rows(self, eval_dir, matrix_path, tmp_path,
                                       monkeypatch):
        # the sampled rows get the values a full imputation of every labeled
        # row gives them, but no other row is imputed
        from stressmon import dataset, explain
        seen, transformed = [], []
        explain_rows = explain.explain_rows
        transform = dataset.KnnImputer.transform

        def recording_explain(model, rows, background):
            seen.extend((np.array(row), np.array(background)) for row in rows)
            return explain_rows(model, rows, background)

        def recording_transform(self, values, missing, exclude=None):
            transformed.append(len(values))
            return transform(self, values, missing, exclude)

        monkeypatch.setattr(explain, "explain_rows", recording_explain)
        monkeypatch.setattr(dataset.KnnImputer, "transform", recording_transform)
        assert cli.main(["explain", "--model", str(eval_dir / "model.json"),
                         "--matrix", str(matrix_path), "--max-rows", "6",
                         "--background", "24", "--seed", "3",
                         "--out", str(tmp_path / "e")]) == 0
        assert transformed and max(transformed) <= 30

        monkeypatch.setattr(dataset.KnnImputer, "transform", transform)
        names = json.loads((eval_dir / "model.json").read_text())["feature_names"]
        matrix = read_matrix_csv(matrix_path)
        labeled = matrix.labeled()
        labeled = dataset.drop_rows_missing_block(labeled, HRV_FEATURE_NAMES)
        view = dataset.knn_impute(labeled).select_columns(names)
        rng = np.random.default_rng([3, 11])
        n = view.n_rows
        background = view.values[np.sort(rng.choice(n, size=min(24, n), replace=False))]
        rows = view.values[np.sort(rng.choice(n, size=min(6, n), replace=False))]
        assert len(seen) == len(rows)
        for (row, bg), expect in zip(seen, rows):
            assert np.array_equal(row, expect) and np.array_equal(bg, background)

    @pytest.mark.parametrize("flag,value", [("--max-rows", "0"), ("--max-rows", "-1"),
                                            ("--background", "0"), ("--seed", "-1")])
    def test_count_below_one_is_usage_error(self, eval_dir, matrix_path, tmp_path,
                                            flag, value):
        with pytest.raises(SystemExit) as err:
            cli.main(["explain", "--model", str(eval_dir / "model.json"),
                      "--matrix", str(matrix_path), flag, value,
                      "--out", str(tmp_path / "e")])
        assert err.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("text", ["notjson", "{}", "[]", '{"kind": "svm"}',
                                      '{"kind": "random_forest"}'],
                             ids=["not_json", "no_kind", "not_object", "unknown_kind",
                                  "missing_trees"])
    def test_bad_model_file_exits_3_naming_it(self, matrix_path, tmp_path, capsys,
                                              text):
        model = tmp_path / "bad_model.json"
        model.write_text(text)
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert "bad_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["feature_index_99", "string_threshold",
                                      "names_shorter_than_trees", "leaf_without_output",
                                      "leaf_output_under_value", "weights_not_one_per_tree",
                                      "no_feature_names", "feature_name_repeated", "no_trees",
                                      "knn_kind"])
    def test_unusable_trees_exit_3_naming_the_model(self, eval_dir, matrix_path, tmp_path,
                                                     capsys, case):
        rec = json.loads((eval_dir / "model.json").read_text())
        nodes = [node for tree in rec["trees"] for node in _walk(tree)]
        splits = [node for node in nodes if not node.get("leaf")]
        if case == "feature_index_99":
            splits[0]["feature_index"] = 99
        elif case == "string_threshold":
            splits[0]["threshold"] = "0.5"
        elif case == "names_shorter_than_trees":
            rec["feature_names"] = rec["feature_names"][
                :max(node["feature_index"] for node in splits)]
        elif case == "no_feature_names":
            # one leaf reads no feature, so only the empty names are at fault
            rec.update(feature_names=[], trees=[{"leaf": True, "probability": 0.5}],
                       tree_weights=[1.0])
        elif case == "feature_name_repeated":
            rec["feature_names"][1] = rec["feature_names"][0]
        elif case == "no_trees":
            rec.update(trees=[], tree_weights=[])
        elif case == "knn_kind":
            rec["kind"] = "knn"
        elif case == "leaf_without_output":
            leaf = next(node for node in nodes if node.get("leaf"))
            leaf.pop("probability", None)
            leaf.pop("value", None)
        elif case == "leaf_output_under_value":
            # a forest leaf's output is read from its "probability" key only
            leaf = next(node for node in nodes if node.get("leaf"))
            leaf["value"] = leaf.pop("probability")
        else:
            rec["tree_weights"].pop()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(rec))
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--max-rows", "2", "--background", "4", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {model}: bad model file: ")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case,reason", [
        ("trees_a_number", "trees must be a list"),
        ("tree_a_number", "a tree node must be an object"),
        ("child_missing", "left is missing"),
        ("hyperparameters_a_list", "hyperparameters must be an object"),
        ("feature_names_a_number", "feature_names must be a list"),
        ("tree_weights_null", "tree_weights must be a list"),
        ("class_counts_a_number", "class_counts must be a list"),
        ("seed_missing", "seed is missing"),
        ("model_a_list", "a model must be an object"),
    ], ids=["trees_a_number", "tree_a_number", "child_missing", "hyperparameters_a_list",
            "feature_names_a_number", "tree_weights_null", "class_counts_a_number",
            "seed_missing", "model_a_list"])
    def test_model_shape_named(self, eval_dir, matrix_path, tmp_path, capsys, case, reason):
        rec = json.loads((eval_dir / "model.json").read_text())
        split = rec["trees"][0]
        leaf = next(node for node in _walk(split) if node.get("leaf"))
        if case == "trees_a_number":
            rec["trees"] = 5
        elif case == "tree_a_number":
            rec["trees"][0] = 5
        elif case == "child_missing":
            del split["left"]
        elif case == "hyperparameters_a_list":
            rec["hyperparameters"] = [1]
        elif case == "feature_names_a_number":
            rec["feature_names"] = 5
        elif case == "tree_weights_null":
            rec["tree_weights"] = None
        elif case == "class_counts_a_number":
            leaf["class_counts"] = 5
        elif case == "seed_missing":
            del rec["seed"]
        else:
            rec = [1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(rec))
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--max-rows", "2", "--background", "4", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {model}: bad model file: {reason}")

    def test_matrix_with_some_hrv_columns(self, tmp_path, capsys):
        # the HRV-less rows are those missing every HRV column the matrix holds
        leaf = {"leaf": True, "sample_fraction": 0.5}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "kind": "random_forest", "feature_names": ["bpm", "speed"], "hyperparameters": {},
            "seed": 0, "tree_weights": [1.0],
            "trees": [{"feature_index": 0, "threshold": 62.5, "impurity_decrease": 0.1,
                       "sample_fraction": 1.0, "left": dict(leaf, probability=0.25),
                       "right": dict(leaf, probability=0.75)}]}))
        matrix = tmp_path / "m.csv"
        matrix.write_text("user_id,window_start_ms,label,bpm,speed\n" + "".join(
            f"u0{u},{w * 900_000},{(u + w) % 2},{60 + u + w if w else ''},{w % 3}\n"
            for u in range(1, 4) for w in range(4)))
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_OK, capsys.readouterr().err
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["counts"]["background_rows"] == 9  # the 3 rows without bpm dropped

    def test_matrix_lacking_model_columns_named(self, eval_dir, matrix_path, tmp_path,
                                                capsys):
        model = eval_dir / "model.json"
        names = json.loads(model.read_text())["feature_names"]
        header, rest = matrix_path.read_text().split("\n", 1)
        cells = header.split(",")
        for name in names[:2]:
            cells[cells.index(name)] = name + "_renamed"
        bad = tmp_path / "renamed.csv"
        bad.write_text(",".join(cells) + "\n" + rest)
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(bad),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {bad}: the model {model} needs columns the matrix lacks: "
            f"{names[0]}, {names[1]}\n")

    def test_knn_model_exit(self, matrix_path, tmp_path, capsys):
        out = tmp_path / "knn"
        assert cli.main(["train-eval", "--matrix", str(matrix_path),
                         "--model", "knn", "--folds", "3", "--out", str(out)]) == 0
        rc = cli.main(["explain", "--model", str(out / "model.json"),
                       "--matrix", str(matrix_path), "--max-rows", "2",
                       "--background", "4", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "tree" in err
        assert err.startswith(f"error: {out / 'model.json'}: bad model file: ")

    @pytest.mark.parametrize("case,reason", [
        ("trees_a_string", "trees must be a list, got a string"),
        ("model_null", "a model must be an object, got null"),
        ("tree_a_list", "a tree node must be an object, got a list"),
        ("class_counts_a_boolean", "class_counts must be a list, got a boolean"),
        ("hyperparameters_a_number", "hyperparameters must be an object, got a number"),
    ], ids=["trees_a_string", "model_null", "tree_a_list", "class_counts_a_boolean",
            "hyperparameters_a_number"])
    def test_model_error_names_json_type(self, eval_dir, matrix_path, tmp_path, capsys,
                                         case, reason):
        rec = json.loads((eval_dir / "model.json").read_text())
        if case == "trees_a_string":
            rec["trees"] = "x"
        elif case == "model_null":
            rec = None
        elif case == "tree_a_list":
            rec["trees"][0] = [1]
        elif case == "class_counts_a_boolean":
            leaf = next(node for node in _walk(rec["trees"][0]) if node.get("leaf"))
            leaf["class_counts"] = True
        else:
            rec["hyperparameters"] = 1.5
        model = tmp_path / "model.json"
        model.write_text(json.dumps(rec))
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--max-rows", "2", "--background", "4", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {model}: bad model file: {reason}\n"

    @pytest.mark.parametrize("field,value,reason", [
        ("leaf", "True", "leaf must be a boolean, got a string"),
        ("leaf", [True], "leaf must be a boolean, got a list"),
        ("leaf", 1, "leaf must be a boolean, got a number"),
        ("class_counts", [[3, 1]], "class_counts must list two counts, got 1"),
        ("class_counts", [3, 1, 0], "class_counts must list two counts, got 3"),
        ("class_counts", [3, "1"], "class_counts must list non-negative integers, got a string"),
        ("class_counts", [3, -1], "class_counts must list non-negative integers, got -1"),
        ("class_counts", [3, 1.5], "class_counts must list non-negative integers, got 1.5"),
        ("class_counts", None, "class_counts must be a list, got null"),
    ], ids=["leaf_a_string", "leaf_a_list", "leaf_a_number", "counts_a_nested_list",
            "three_counts", "count_a_string", "count_negative", "count_fractional",
            "counts_null"])
    def test_leaf_fields_checked_strictly(self, eval_dir, matrix_path, tmp_path, capsys,
                                          field, value, reason):
        rec = json.loads((eval_dir / "model.json").read_text())
        leaf = next(node for node in _walk(rec["trees"][0]) if node.get("leaf"))
        leaf[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(rec))
        rc = cli.main(["explain", "--model", str(model), "--matrix", str(matrix_path),
                       "--max-rows", "2", "--background", "4", "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {model}: bad model file: {reason}\n"

    #: sha256 of shap_ranking.json and beeswarm.csv as the per-coalition
    #: predict_proba loop wrote them, for 6 rows over 24 background rows.
    @pytest.mark.parametrize("flags,digests", [
        (["--model", "rf", "--select-top", "8", "--depth", "3"],
         ("840826b9e98ec49f78c34e0bbab1ac18ae697d416b80ecc19ff5449f09322b1d",
          "6a973a5fdb8bde4917f83d123d7616eda57c0acbb83e914f0fec62a738d2ca36")),
        (["--model", "boosted", "--select-top", "6"],
         ("409a4a01d45eb68b847fbb6ab7f24ef842139b26320ec46cfdbdec47d8e4b34a",
          "ec220d46b9293db1e4a46b401fb6e70263ccfd64b942f74a345794a07e1c7783")),
        (["--model", "rf", "--select-top", "14", "--depth", "5"],
         ("ced6ced53f1279a90a4cb22fc6fd1fc6ab1e5674dea45540c5e6c709c3614040",
          "f6c2cae1ec693bc579d31ed843d24e292f96c81152538061b90984253a2e40f9")),
    ], ids=["rf_top8_depth3", "boosted_top6", "rf_top14_depth5"])
    def test_outputs_keep_their_digests(self, matrix_path, tmp_path, flags, digests):
        model_dir, out = tmp_path / "eval", tmp_path / "explain"
        assert cli.main(["train-eval", "--matrix", str(matrix_path), *flags, "--folds", "3",
                         "--seed", "1", "--out", str(model_dir)]) == 0
        assert cli.main(["explain", "--model", str(model_dir / "model.json"),
                         "--matrix", str(matrix_path), "--max-rows", "6",
                         "--background", "24", "--out", str(out)]) == 0
        assert (sha(out / "shap_ranking.json"), sha(out / "beeswarm.csv")) == digests


def _walk(node):
    """Every node of a model file's tree, the root first."""
    yield node
    if not node.get("leaf"):
        yield from _walk(node["left"])
        yield from _walk(node["right"])


class TestPersonalize:
    def test_report_schema(self, matrix_path, tmp_path):
        out = tmp_path / "pers"
        assert cli.main(["personalize", "--matrix", str(matrix_path),
                         "--user", "u02", "--model", "rf", "--depth", "5",
                         "--seed", "1", "--out", str(out)]) == 0
        rec = json.loads((out / "personalization.json").read_text())
        assert set(rec) == {"user", "f1_before", "f1_after"}
        assert rec["user"] == "u02"

    def test_unknown_user(self, matrix_path, tmp_path, capsys):
        rc = cli.main(["personalize", "--matrix", str(matrix_path),
                       "--user", "nobody", "--out", str(tmp_path / "p")])
        assert rc == cli.EXIT_DATA

    def test_only_user_exits_3(self, matrix_path, tmp_path, capsys):
        matrix = read_matrix_csv(matrix_path)
        alone = tmp_path / "u01.csv"
        write_matrix_csv(matrix.select_rows(
            [i for i, user in enumerate(matrix.groups) if user == "u01"]), alone)
        rc = cli.main(["personalize", "--matrix", str(alone), "--user", "u01",
                       "--out", str(tmp_path / "p")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "error: user 'u01' is the only user with labeled windows; "
            "no other user's are left to train on\n")


class TestIdempotence:
    def test_train_eval_rerun_identical(self, matrix_path, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["train-eval", "--matrix", str(matrix_path),
                             "--model", "rf", "--depth", "3", "--folds", "3",
                             "--seed", "9", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("report.json", "report.csv", "model.json"):
            assert sha(outs[0] / name) == sha(outs[1] / name), name
