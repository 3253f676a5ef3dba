"""Benchmark of the stressmon pipeline: one workload, or all three in turn.

    python3 perfbench/run.py --workload collect|study|explain|all \\
        [--seed 2021] [--seconds 15] [--trace 0|1]

Run from the repository root.  A workload's set-up runs several times,
each in a fresh child process; then one fresh child runs the timed part
as a closed loop of passes for ``--seconds`` seconds.  Every child is
single-threaded: the BLAS/OpenMP thread counts are set to 1.  Outputs are
checked against recorded sha256 digests for the default seed and against
invariants for any other seed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one extra traced pass with ``--trace 1``; with
``--workload all`` each metric name starts with its workload.  The lines
before it print every metric by name and unit, and the full record goes
to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: (metric, unit) of the end-to-end metrics in the result line.  ``wall_ref``
#: is a pass's wall time over the reference kernel's time around it (see
#: `worker.reference_seconds`): it follows the program, less the host's drift.
END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run worker.py with `args`; (seconds from start to exit, its report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[0]} ran past the time limit") from None
    seconds = time.perf_counter() - start
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return seconds, json.loads(lines[-1])


def steal_ticks():
    """Host-wide CPU steal ticks (the 8th field of /proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def commands_of(report):
    if "passes" not in report:
        return report["commands"]
    passes = report["passes"] + ([report["traced"]] if "traced" in report else [])
    return [c for p in passes for c in p["commands"]]


def run_workload(name, seed, seconds, trace, work):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    for k in range(SETUP_REPEATS):
        setups.append(run_child(["setup", "--workload", name, "--seed", str(seed),
                                 "--dir", os.path.join(work, f"setup{k}")], deadline))
    timed_s, timed = run_child(
        ["timed", "--workload", name, "--seed", str(seed),
         "--setup-dir", os.path.join(work, "setup0"), "--work-dir", os.path.join(work, "run"),
         "--seconds", str(seconds), "--trace", str(trace)], deadline)

    commands = [c for _, rep in setups for c in rep["commands"]] + commands_of(timed)
    problems = [f"{' '.join(c['argv'][:1])}: {p}" for c in commands for p in c["problems"]]
    if any(rep["digests"] != setups[0][1]["digests"] for _, rep in setups):
        problems.append("set-up outputs differ between repeats")
        commands[0]["problems"].append("set-up outputs differ between repeats")
    failed = sum(1 for c in commands if c["problems"])

    passes = timed["passes"]
    groups = workloads.workload(name, seed).groups
    e2e = {"wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in passes),
           "setup_s": statistics.median(s for s, _ in setups),
           "peak_rss_mb": timed["peak_rss_mb"]}
    per_command = {key: statistics.median(p[key] for p in passes)
                   for key in ("wall_s", "ref_s")}
    per_command.update((g, statistics.median(p["groups"][g] for p in passes)) for g in groups)
    checks = timed.get("trace_checks", {})
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(commands), "failed": failed, "error_rate": failed / len(commands),
        "problems": problems,
        "end_to_end": e2e, "per_command": per_command,
        "samples": {"passes": len(passes), "setups": len(setups),
                    "wall_s": [p["wall_s"] for p in passes],
                    "ref_s": [p["ref_s"] for p in passes],
                    "setup_s": [s for s, _ in setups], "timed_process_s": timed_s},
        "per_layer": timed.get("per_layer"), "trace_checks": checks,
        "fates": timed.get("fates"), "imputed_cells": timed.get("imputed_cells"),
        "layer_self_s": timed.get("layer_self_s"), "versions": timed["versions"],
    }


def measure(name, args):
    """Run one workload, add the host facts and write its record file."""
    work = os.path.join(OUT, f"work-{name}-{args.seed}-{os.getpid()}")
    load_before, steal_before = os.getloadavg()[0], steal_ticks()
    try:
        record = run_workload(name, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal_after = steal_ticks()
    record["host"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": record["versions"]["numpy"], "loadavg_1m": load_before,
        "steal_ticks": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "thread_env": SINGLE_THREAD}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


def print_record(record):
    """Every metric of one workload by name and unit, then the failures."""
    print(f"workload {record['workload']}, seed {record['seed']}: "
          f"{record['samples']['passes']} passes in {record['seconds']:g} s, "
          f"{record['samples']['setups']} set-ups; medians")
    for metric, unit in END_TO_END:
        print(f"  {metric:<20} {record['end_to_end'][metric]:12.4f} {unit}")
    for metric, value in record["per_command"].items():
        print(f"  {metric:<20} {value:12.4f} s")
    print(f"  {'error_rate':<20} {record['error_rate']:12.4f} ratio")
    for check, ok in record["trace_checks"].items():
        print(f"  trace check {check}: {'ok' if ok else 'FAILED'}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("host " + json.dumps(record["host"]))


def result_metrics(record):
    if record["trace"]:
        return {m: {"value": record["per_layer"][m], "unit": u} for m, u in tracing.PER_LAYER}
    return {m: {"value": record["end_to_end"][m], "unit": u} for m, u in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stressmon", "cli.py")):
        print(f"error: no stressmon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            records.append(measure(name, args))
        except BenchError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print_record(records[-1])

    if len(records) == 1:
        metrics = result_metrics(records[0])
    else:   # all workloads: metric names get the workload as a prefix
        metrics = {f"{r['workload']}.{m}": v for r in records
                   for m, v in result_metrics(r).items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
