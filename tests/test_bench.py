"""Smoke test of the benchmark harness in bench/.

The harness's tracer wraps srdkit's public functions by name and counts DFS
nodes through ``SearchStats``, so renaming or reshaping those breaks it.
Its self-test runs a small slice of every workload, writes only under
bench/.out and bench/.work, and asserts nothing about wall-clock time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
