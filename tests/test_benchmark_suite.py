"""The benchmark's own tests, run as part of this suite.

perfbench traces the pipeline from outside: it wraps functions by name and
reads what they return.  A change under ``src`` can therefore break the
benchmark while every test here passes.  Its tests run in a child process,
so their import-path setup stays apart from this suite's.
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
