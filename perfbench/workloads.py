"""The benchmark's workloads: which stressmon commands run, and how to check them.

Every workload is a closed loop in one process and one thread: each
command starts when the previous one ends.  A workload has set-up steps,
whose outputs feed the timed steps, and named groups of timed steps whose
summed time is reported as one metric.  The workload seed replaces the
simulation seed.

* ``collect``: simulate a cohort, then featurize it.  Simulation, JSONL
  write and read, band-pass, peak detection, HRV and context binning do all
  the work; no model is fitted.
* ``study``: set-up simulates and featurizes a cohort; the timed part runs
  grouped CV with the random forest (all features, PPG only) and k-NN, and
  boosted-tree personalization for the three users with personal habits.
  Imputation and both tree learners do the work; no signal processing runs.
* ``explain``: set-up simulates, featurizes and trains an 8-feature forest;
  the timed part is `explain`, i.e. 2^8 coalitions x 24 background rows
  through `predict_proba` per explained row.  Nothing is fitted.
"""
from __future__ import annotations

import bisect
import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass

DEFAULT_SEED = 2021

# The three users with personal habits from the acceptance study (u09..u11
# there); they are the last three users of the collect and study cohorts.
HABIT_PROFILES = (
    {"invert_context": True, "stress_bpm_delta": 0.0, "baseline_bpm": 98.0},
    {"neutral_context": True, "screen_coupled": True, "stress_bpm_delta": 0.0,
     "baseline_bpm": 102.0},
    {"neutral_context": True, "device_on_coupled": True, "stress_bpm_delta": 0.0,
     "baseline_bpm": 106.0},
)
PARTICIPANTS = {"stress_bpm_delta": 9.0, "baseline_bpm_range": [60.0, 84.0]}
MAX_ROWS = 6
BACKGROUND = 24
SELECT_TOP = 8
WINDOW_MS = 15 * 60_000
LABEL_HORIZON_MS = 8 * 3600 * 1000


def cohort_config(n_users, days, seed, wifi_outages_ms=(), habits=True):
    """Simulation config; with `habits`, the last three users get the profiles."""
    per_user = dict(zip(habit_users(n_users), HABIT_PROFILES)) if habits else {}
    return {"n_users": n_users, "days": days, "seed": seed,
            "participants": dict(PARTICIPANTS),
            "network": {"wifi_outages_ms": [list(w) for w in wifi_outages_ms]},
            "per_user": per_user}


def habit_users(n_users):
    return [f"u{i + 1:02d}" for i in range(n_users - len(HABIT_PROFILES), n_users)]


@dataclass
class Step:
    """One `stressmon` command; argv entries may hold ``{setup}``/``{out}``."""

    argv: list
    group: str | None = None     # timed metric this step's time adds to


@dataclass
class Workload:
    name: str
    config: dict
    setup: list
    timed: list

    @property
    def groups(self) -> tuple:
        """Timed metric names, in the order their steps run."""
        return tuple(dict.fromkeys(step.group for step in self.timed))


# Cohort sizes keep one timed pass near 4-5 s on a 2-core x86 host, so a
# 15-second run measures three passes.  Five users are the fewest that
# fill five CV folds.  The forest's node count sets the time of `explain`,
# so its cohort has no habit profiles (a habit user's fixed heart rate lets
# the forest isolate them in pure leaves) and its trees are shallow: the
# node count of depth-5 forests spread by 12% across seeds (quartile
# distance over median), that of depth-3 forests by 3%.
COLLECT_USERS, STUDY_USERS, EXPLAIN_USERS = 4, 5, 5
STUDY_TREES, STUDY_ROUNDS = 30, 30
EXPLAIN_TREES, EXPLAIN_DEPTH = 45, 3


def workload(name, seed) -> Workload:
    sim = ["simulate", "--config", "{setup}/config.json", "--seed", str(seed)]
    if name == "collect":
        return Workload(
            name, cohort_config(COLLECT_USERS, 1, seed), setup=[],
            timed=[Step(sim + ["--out", "{out}/sim"], "simulate_s"),
                   Step(["featurize", "--data", "{out}/sim", "--out",
                         "{out}/matrix.csv"], "featurize_s")])
    if name == "study":
        matrix = "{setup}/matrix.csv"
        rf = ["train-eval", "--matrix", matrix, "--model", "rf", "--depth", "5",
              "--n-trees", str(STUDY_TREES), "--seed", "7"]
        timed = [Step(rf + ["--features", "all", "--out", "{out}/rf_all"], "train_eval_rf_s"),
                 Step(rf + ["--features", "ppg", "--out", "{out}/rf_ppg"], "train_eval_rf_s"),
                 Step(["train-eval", "--matrix", matrix, "--model", "knn", "--seed", "7",
                       "--out", "{out}/knn"], "train_eval_knn_s")]
        for user in habit_users(STUDY_USERS):
            timed.append(Step(["personalize", "--matrix", matrix, "--user", user,
                               "--model", "boosted", "--rounds", str(STUDY_ROUNDS),
                               "--depth", "4", "--seed", "7",
                               "--out", f"{{out}}/personalize_{user}"], "personalize_s"))
        return Workload(
            name, cohort_config(STUDY_USERS, 1, seed),
            setup=[Step(sim + ["--out", "{setup}/sim"]),
                   Step(["featurize", "--data", "{setup}/sim", "--out", matrix])],
            timed=timed)
    if name == "explain":
        # As the test suite's small study: no habit profiles, one Wi-Fi outage
        # 10:00-14:00 on day 1.
        return Workload(
            name, cohort_config(EXPLAIN_USERS, 1, seed, ((36_000_000, 50_400_000),),
                          habits=False),
            setup=[Step(sim + ["--out", "{setup}/sim"]),
                   Step(["featurize", "--data", "{setup}/sim", "--out",
                         "{setup}/matrix.csv"]),
                   Step(["train-eval", "--matrix", "{setup}/matrix.csv", "--model", "rf",
                         "--depth", str(EXPLAIN_DEPTH), "--n-trees", str(EXPLAIN_TREES),
                         "--select-top", str(SELECT_TOP), "--folds", "2", "--seed", "7",
                         "--out", "{setup}/eval"])],
            timed=[Step(["explain", "--model", "{setup}/eval/model.json",
                         "--matrix", "{setup}/matrix.csv", "--max-rows", str(MAX_ROWS),
                         "--background", str(BACKGROUND), "--seed", "7",
                         "--out", "{out}/explain"], "explain_s")])
    raise KeyError(name)


WORKLOADS = ("collect", "study", "explain")


def expand(argv, setup_dir, out_dir):
    return [a.format(setup=setup_dir, out=out_dir) for a in argv]


# -- output checks ----------------------------------------------------------

def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_digests(directory) -> dict:
    """sha256 of every file the program wrote under `directory`.

    ``manifest.json`` holds timings and paths, and ``config.json`` is the
    benchmark's own input, so both are left out.
    """
    found = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if name in ("manifest.json", "config.json"):
                continue
            path = os.path.join(base, name)
            found[os.path.relpath(path, directory).replace(os.sep, "/")] = sha256(path)
    return dict(sorted(found.items()))


def digest_mismatches(found: dict, expected: dict) -> list:
    """Relative paths whose digest differs from, or is missing in, `expected`."""
    return sorted(p for p in set(found) | set(expected) if found.get(p) != expected.get(p))


_RECORD_HEAD = re.compile(r'"user_id":"([^"]*)".*?"(?:start_time_ms|timestamp_ms)":(\d+)')


def count_labeled_windows(sim_dir) -> int:
    """Windows that an EMA labels, counted from the raw simulation files.

    Each user's 15-minute grid spans the slots of their first and last
    burst or context record; a window is labeled when the same user
    answered an EMA at or after its start and within eight hours.
    """
    span = {}
    for name in ("bursts.jsonl", "context.jsonl"):
        with open(os.path.join(sim_dir, name), encoding="utf-8") as fh:
            for line in fh:
                m = _RECORD_HEAD.search(line, 0, 200)
                if m is None:
                    continue
                user, t = m.group(1), int(m.group(2))
                lo, hi = span.get(user, (t, t))
                span[user] = (min(lo, t), max(hi, t))
    answers = {}
    with open(os.path.join(sim_dir, "ema.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            answers.setdefault(row["user_id"], []).append(int(row["timestamp_ms"]))
    labeled = 0
    for user, (lo, hi) in span.items():
        times = sorted(answers.get(user, ()))
        for start in range((lo // WINDOW_MS) * WINDOW_MS, hi + 1, WINDOW_MS):
            i = bisect.bisect_left(times, start)
            if i < len(times) and times[i] - start <= LABEL_HORIZON_MS:
                labeled += 1
    return labeled


def _matrix_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_step(argv, run_dir) -> list:
    """Invariants of one finished command's outputs; returns the problems."""
    command = argv[0]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    problems = []
    if command == "featurize":
        header, rows = _matrix_rows(opt["--out"])
        expected = count_labeled_windows(opt["--data"])
        if len(rows) != expected or not rows:
            problems.append(f"matrix has {len(rows)} rows, {expected} labeled windows")
        if any(r[2] not in ("0", "1") for r in rows):
            problems.append("matrix row without a 0/1 label")
    elif command == "train-eval":
        with open(os.path.join(opt["--out"], "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        f1s = [fold["f1"] for fold in report["folds"]] + [report["mean_f1"]]
        if not all(0.0 <= f <= 1.0 for f in f1s):
            problems.append(f"F1 outside [0, 1]: {f1s}")
    elif command == "personalize":
        with open(os.path.join(opt["--out"], "personalization.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if not all(0.0 <= result[k] <= 1.0 for k in ("f1_before", "f1_after")):
            problems.append(f"F1 outside [0, 1]: {result}")
    elif command == "explain":
        with open(opt["--model"], encoding="utf-8") as fh:
            features = json.load(fh)["feature_names"]
        with open(os.path.join(opt["--out"], "shap_ranking.json"), encoding="utf-8") as fh:
            ranked = [entry["feature"] for entry in json.load(fh)]
        with open(os.path.join(opt["--out"], "beeswarm.csv"), newline="",
                  encoding="utf-8") as fh:
            n_records = sum(1 for _ in csv.reader(fh)) - 1
        if sorted(ranked) != sorted(features):
            problems.append(f"ranking names {ranked}, model has {features}")
        if n_records != int(opt["--max-rows"]) * len(features):
            problems.append(f"beeswarm has {n_records} rows, expected "
                            f"{opt['--max-rows']} x {len(features)}")
    return problems
