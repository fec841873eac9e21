"""The benchmark harness runs every workload at tiny size with checked outputs.

No timing gate: tiny inputs give meaningless numbers.  This only keeps the
harness (and the program paths it drives) working.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes_every_workload():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for name in workloads:
        for trace in (0, 1):
            assert any(line.split()[:3] == ["ok", name, f"trace={trace}"] for line in lines), done.stdout
