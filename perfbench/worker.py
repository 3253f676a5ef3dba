"""One benchmark process: a workload's set-up, or its timed closed loop.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py timed --workload W --seed N --setup-dir D \\
        --work-dir D2 --seconds S --trace 0|1

Each command is `stressmon.cli.main(argv)`, called in process as a user's
shell would call the `stressmon` entry point.  The process prints one JSON
object as its last stdout line; the program's own stdout is kept apart.
`run.py` starts this script in a fresh single-threaded child process.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads
from stressmon import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
MIN_PASSES = 3     # a median needs three samples; later passes must fit the budget


def run_command(argv):
    """(exit code, seconds, program stdout) of one in-process CLI call."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as stop:           # argparse usage errors
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception:                    # a crash counts as a failed command
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, time.perf_counter() - start, captured.getvalue()


def owner_of(path, steps, base):
    """Index of the step whose ``--out`` wrote the artifact `path`."""
    for i, argv in enumerate(steps):
        out = os.path.relpath(argv[argv.index("--out") + 1], base).replace(os.sep, "/")
        if path == out or path.startswith(out + "/") or path.startswith(out + "."):
            return i
    return len(steps) - 1


def check_outputs(steps, codes, base, expected):
    """Per-step problems: exit code, invariants and, if given, digests."""
    problems = [[] for _ in steps]
    for i, (argv, code) in enumerate(zip(steps, codes)):
        if code != 0:
            problems[i].append(f"exit code {code}")
            continue
        try:
            problems[i].extend(workloads.check_step(argv, base))
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems[i].append(f"output check failed: {err!r}")
    digests = workloads.artifact_digests(base)
    if expected is not None:
        for path in workloads.digest_mismatches(digests, expected):
            problems[owner_of(path, steps, base)].append(f"sha256 differs: {path}")
    return problems, digests


def expected_digests(name, part, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[name][part]


def describe(steps, codes, problems):
    return [{"argv": argv, "exit": code, "problems": p}
            for argv, code, p in zip(steps, codes, problems)]


def do_setup(args):
    wl = workloads.workload(args.workload, args.seed)
    os.makedirs(args.dir, exist_ok=True)
    with open(os.path.join(args.dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(wl.config, fh, indent=2)
    steps = [workloads.expand(s.argv, args.dir, args.dir) for s in wl.setup]
    codes = [run_command(argv)[0] for argv in steps]
    problems, digests = check_outputs(steps, codes, args.dir,
                                      expected_digests(wl.name, "setup", args.seed))
    return {"commands": describe(steps, codes, problems), "digests": digests}


def run_pass(wl, setup_dir, out_dir, expected, tracer=None):
    """One timed pass of the workload, then its output checks (untimed).

    With a tracer, the commands run inside one root span.
    """
    os.makedirs(out_dir)
    steps = [workloads.expand(s.argv, setup_dir, out_dir) for s in wl.timed]
    groups = dict.fromkeys(wl.groups, 0.0)
    codes = []
    root = tracer.open(tracing.ROOT_SPAN) if tracer else None
    start = time.perf_counter()
    for step, argv in zip(wl.timed, steps):
        code, seconds, _ = run_command(argv)
        codes.append(code)
        groups[step.group] += seconds
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    problems, _ = check_outputs(steps, codes, out_dir, expected)
    shutil.rmtree(out_dir)
    return {"wall_s": wall, "groups": groups,
            "commands": describe(steps, codes, problems)}


_REFERENCE_JSON = json.dumps(
    [round(float(v), 3) for v in np.random.default_rng(0).normal(size=200_000)])


def reference_seconds():
    """Time of a fixed kernel that runs no stressmon code.

    It mixes what the pipeline spends its time on: parsing a large JSON
    list of floats into a numpy array and sorting it, a Python loop of
    arithmetic and dict updates, and boolean indexing of small numpy
    arrays.  The host's speed drifts by tens of percent over minutes, and
    a pass's time divided by the kernel's time around it cancels most of
    that drift.
    """
    start = time.perf_counter()
    for _ in range(4):
        np.sort(np.asarray(json.loads(_REFERENCE_JSON)))
    counts = {}
    for i in range(300_000):
        key = str(i * 7919 % 10_007)
        counts[key] = counts.get(key, 0) + i
    x = np.arange(2_000.0)
    for _ in range(3_000):
        x[np.flatnonzero(x > 1_000.0)].sum()
    return time.perf_counter() - start


def do_timed(args):
    wl = workloads.workload(args.workload, args.seed)
    expected = expected_digests(wl.name, "timed", args.seed)
    passes = []
    ref_before = reference_seconds()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + statistics.median(
            p["wall_s"] + p["ref_s"] for p in passes) <= args.seconds:
        passes.append(run_pass(wl, args.setup_dir,
                               os.path.join(args.work_dir, f"pass{len(passes)}"), expected))
        ref_after = reference_seconds()
        passes[-1]["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
    report = {"passes": passes}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, args.setup_dir, os.path.join(args.work_dir, "traced"),
                              expected, tracer)
        finally:
            tracer.uninstall()
        untraced = statistics.median(p["wall_s"] for p in passes)
        report["traced"] = traced
        report["per_layer"] = tracing.layer_metrics(tracer, traced["wall_s"] - untraced)
        report["trace_checks"] = tracing.trace_checks(tracer)
        report["imputed_cells"] = dict(sorted(tracer.imputed.cells.items()))
        report["fates"] = dict(tracer.fates.counts)
        report["layer_self_s"] = tracing.layer_self_times(tracer)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "timed"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir")
    parser.add_argument("--setup-dir")
    parser.add_argument("--work-dir")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    report = do_setup(args) if args.mode == "setup" else do_timed(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
