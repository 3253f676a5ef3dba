"""Record the sha256 of every artifact each workload writes at the default seed.

    python3 perfbench/record_digests.py

Runs each workload's set-up and one timed pass in this process and writes
``perfbench/digests.json``, which the benchmark compares every
default-seed run against.  Re-record only at a commit whose outputs are
meant to change, and say why in the change that does so.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402  (needs HERE on sys.path)
from worker import DIGESTS, run_command  # noqa: E402


def record(name, work):
    wl = workloads.workload(name, workloads.DEFAULT_SEED)
    setup_dir, out_dir = os.path.join(work, "setup"), os.path.join(work, "pass")
    os.makedirs(setup_dir)
    with open(os.path.join(setup_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(wl.config, fh, indent=2)
    for step in wl.setup + wl.timed:
        argv = workloads.expand(step.argv, setup_dir, out_dir)
        code = run_command(argv)[0]
        if code != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} exited with {code}")
    return {"setup": workloads.artifact_digests(setup_dir),
            "timed": workloads.artifact_digests(out_dir)}


def main():
    work = os.path.join(ROOT, ".perfbench-out", "record-digests")
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = {name: record(name, os.path.join(work, name))
                   for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
