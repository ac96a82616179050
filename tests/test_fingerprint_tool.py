"""Smoke test of ``tools/fingerprint.py``, which compares the seeded answers
of two checkouts.  Run twice on this checkout, it must print the same line
count and hash; no hash is pinned, since a change of behaviour moves it on
purpose.  Takes about 8 s."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_is_reproducible(tmp_path):
    outs = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, "tools/fingerprint.py", str(ROOT), str(tmp_path / f"fp{i}.txt")],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # 4 workloads x 6 instances x (manifest, witness, refute) + 40 solves + 80 decisions
    assert outs[0].startswith("192 lines sha256 ")
    lines = (tmp_path / "fp0.txt").read_text().splitlines()
    assert len(lines) == 192 and (tmp_path / "fp1.txt").read_text().splitlines() == lines
