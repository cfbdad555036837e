"""Smoke test of the benchmark harness: every workload once at tiny
sizes, traced and untraced, outputs checked, every metric named in
BENCHMARK.json reported.

    python3 -m pytest perfbench/test_smoke.py
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
