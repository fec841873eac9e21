"""Compare benchmark results of two commits.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py wrote to perfbench/_results/ on one
commit (copy the directory away before switching commits).  Runs are paired
by workload and seed.  For each workload and end-to-end metric this prints
both medians, both quartile ranges, the ratio of the medians (change over
parent), and the pairs the change won, then a verdict:

* gain        -- the change won at least 9 in 10 pairs and the medians differ
                 by more than the parent's own quartile range;
* regression  -- the change's median is worse than the parent's by more than
                 the metric's bound in BENCHMARK.json;
* unresolved  -- the parent's quartile range exceeds that bound, so neither
                 can be shown (unless every change run beats every parent run);
* same        -- otherwise.

It also reports seeds whose outputs differ between the two commits, and the
per-layer medians of the traced runs side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path) -> dict[tuple[str, int, bool], dict]:
    records = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        records[(record["workload"], record["seed"], record["trace"])] = record
    return records


def verdict(parent: list[float], change: list[float], won: int, pairs: int, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    all_better = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    if all_better:
        return "gain (every change run beats every parent run)"
    if (q3 - q1) > bound * abs(p_med):
        return "unresolved (parent spread exceeds bound)"
    if pairs and won >= 0.9 * pairs and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (_load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted({w for w, _, _ in parent} & {w for w, _, _ in change})
    for workload in workloads:
        before = {s: r for (w, s, t), r in parent.items() if w == workload and not t}
        after = {s: r for (w, s, t), r in change.items() if w == workload and not t}
        if not before or not after:
            continue
        paired = sorted(set(before) & set(after))
        print(f"== {workload}: {len(before)} parent runs, {len(after)} change runs, {len(paired)} pairs")
        differing = [s for s in paired if before[s]["digest"] != after[s]["digest"]]
        if differing:
            print(f"   outputs differ between the commits on seeds {differing}")
        failed = sum(r["failed"] for r in after.values()), sum(r["failed"] for r in before.values())
        print(f"   failed commands: change {failed[0]}, parent {failed[1]}")
        print(f"   {'metric':<16} {'unit':<5} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'ratio':>7} {'won':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["end_to_end"][name] for r in before.values()]
            c = [r["end_to_end"][name] for r in after.values()]
            pairs = [(before[s]["end_to_end"][name], after[s]["end_to_end"][name]) for s in paired]
            sign = 1 if metric["better"] == "higher" else -1
            won = sum(sign * (b - a) > 0 for a, b in pairs)
            pq, cq = quartiles(p), quartiles(c)
            p_text = f"{statistics.median(p):.5g} [{pq[0]:.5g}, {pq[1]:.5g}]"
            c_text = f"{statistics.median(c):.5g} [{cq[0]:.5g}, {cq[1]:.5g}]"
            ratio = statistics.median(c) / statistics.median(p)
            print(
                f"   {name:<16} {metric['unit']:<5} {p_text:>34} {c_text:>34} {ratio:>7.3f} {won:>3}/{len(pairs):<2}"
                f"  {verdict(p, c, won, len(pairs), metric['better'], metric['bound'])}"
            )
        traced_before = [r["per_layer"] for (w, _, t), r in parent.items() if w == workload and t]
        traced_after = [r["per_layer"] for (w, _, t), r in change.items() if w == workload and t]
        if traced_before and traced_after:
            print(f"   per layer (medians of {len(traced_before)} and {len(traced_after)} traced runs):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                a = statistics.median(r[name] for r in traced_before)
                b = statistics.median(r[name] for r in traced_after)
                if a or b:
                    ratio = f"{b / a:7.3f}" if a else "      -"
                    print(f"     {name:<36} {a:>12.5g} {b:>12.5g} {ratio} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
