"""Smoke check: every workload at tiny size, untraced and traced, outputs checked.

    python3 perfbench/smoke.py

Exits 0 when every run is correct.  There is no timing gate: the numbers
from tiny inputs mean nothing.  Takes a few seconds.
"""

from __future__ import annotations

import sys

import run
import workloads


def main() -> int:
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.run(name, seed=1, seconds=0, trace=trace, scale="tiny")
            ok = record["correct"] and record["failed"] == 0 and record["attempted"] > 0
            print(f"{'ok  ' if ok else 'FAIL'} {name:<16} trace={int(trace)} commands={record['attempted']}")
            for problem in record["problems"]:
                print(f"     {problem}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
