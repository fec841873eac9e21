"""The benchmark harness runs every workload at tiny size with checked outputs.

No timing gate: tiny inputs give meaningless numbers.  This only keeps the
harness (and the program paths it drives) working.  The names the tracer
rebinds are also checked on their own, so that a deletion in `src/` fails
at once, naming what is missing.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import gradualpi.cli
import gradualpi.runtime

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


def test_every_name_the_tracer_rebinds_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in ((gradualpi.cli, tracer.CLI_NAMES), (gradualpi.runtime, tracer.RUNTIME_NAMES)):
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__} lacks {missing}"
