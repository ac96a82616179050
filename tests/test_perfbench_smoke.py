"""Smoke test of the solve benchmark's self-check.

The benchmark wraps solver layers by module-level name and counts trials as
``fvs_trial`` calls made directly by ``solve``; its self-check compares those
counts with ``SolveResult`` on every workload.  Running it here keeps a
solver change from silently breaking that contract.  Shape and answers only,
never timings; it takes about 20 s.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines()
          if line.startswith("perfbench self-check:") and line.endswith(" ok")]
    assert len(ok) == 4, proc.stdout
