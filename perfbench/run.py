"""The gradualpi benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs from
the seed under perfbench/_work/, times whole passes over the workload in a
fresh interpreter (untraced with --trace 0; untraced then traced with
--trace 1), times set-up in several more fresh interpreters before and after
the passes, checks every output, prints a table of metrics, writes the full
record to perfbench/_results/, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced passes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 10  # fresh interpreters timed for setup_s, half before the passes and half after
DEADLINE_S = 170  # the whole run, generation and checks included
DIGESTS = BENCH / "digests.json"

# Reduction steps (calls of runtime.step) the breadth-first explorer makes on
# the race at depth 40, as measured at the commit that defined the benchmark.
# The count is a property of the input, fixed so that an explorer that prunes
# interleavings shows as a faster rate, not a slower one.
RACE_REFERENCE_STEPS = {2: 54, 4: 14144}


class BenchmarkError(Exception):
    """The run could not be completed; no result is printed."""


def _worker(workdir: Path, mode: str, seconds: float, deadline: float) -> dict:
    out = workdir / f"{mode}.json"
    command = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), "--workdir", str(workdir)]
    command += ["--mode", mode, "--seconds", str(seconds), "--out", str(out)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker did not finish in time") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} worker failed (exit {done.returncode}):\n{done.stderr.strip()}")
    return json.loads(out.read_text())


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method; exact for one value)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _steps_per_pass(work: workloads.Workload, results: list) -> int:
    """The unit of work each workload repeats; see README, "Metrics"."""
    if work.name == "frontend_corpus":
        return sum(len(p.commands) for p in work.programs)
    server_steps = sum(line.startswith("#") for line in results[0][1].splitlines())
    return server_steps + RACE_REFERENCE_STEPS[work.programs[1].expect]


def count_failures(work: workloads.Workload, report: dict, recorded: str | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every pass."""
    ops_per_pass = sum(len(p.commands) for p in work.programs)
    passes = report["passes"]
    attempted = ops_per_pass * len(passes)
    if recorded is not None and passes[0]["digest"] != recorded:
        return attempted, attempted, ["outputs differ from those recorded for this seed in digests.json"]
    problems, bad_ops, k = [], set(), 0
    for program in work.programs:
        found = workloads.check_program(program, report["results"][k : k + len(program.commands)])
        if found:
            problems += [f"{program.file}: {p}" for p in found]
            bad_ops.update(range(k, k + len(program.commands)))
        k += len(program.commands)
    failed = 0
    for number, p in enumerate(passes):
        mismatched = set(p["mismatched_ops"])
        if mismatched:
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"{kind} pass {number}: {len(mismatched)} commands printed other output than pass 0")
        failed += len(bad_ops | mismatched)
    return attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def latencies_ms(passes: list[dict]) -> list[float]:
    """Each program's 90th-percentile time over the passes, in ms."""
    return [_quantile(list(times), 90) for times in zip(*(p["samples_ms"] for p in passes))]


def _end_to_end(work: workloads.Workload, setups: list[float], report: dict) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of the untraced passes, and their sample counts and quartiles.

    A program's latency is its 90th-percentile time over the passes, and
    `wall_s` is the sum of those latencies: on a shared machine the speed
    swings under a run, and the slow end of each program's times repeats
    from run to run better than its mean or median (README, "Noise").
    """
    untraced = [p for p in report["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    latencies = latencies_ms(untraced)
    wall = sum(latencies) / 1000
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "programs_per_s": len(work.programs) / wall,
        "program_p50_ms": statistics.median(latencies),
        "program_p99_ms": _quantile(latencies, 99),
        "steps_per_s": _steps_per_pass(work, report["results"]) / wall,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    spread = {
        "setup_samples": len(setups),
        "setup_quartiles_s": quartiles(setups),
        "passes": len(walls),
        "pass_quartiles_s": quartiles(walls),
        "programs": len(latencies),
        "program_quartiles_ms": quartiles(latencies),
    }
    return metrics, spread


def _per_layer(report: dict, untraced_wall: float) -> tuple[dict[str, float], list[str]]:
    layers = report["trace"]["layers"]
    times = {name: statistics.median(t[name] for t, _ in layers) for name in layers[0][0]}
    counts = layers[0][1]
    problems = [f"trace count {name} differs between traced passes" for name in counts if len({c[name] for _, c in layers}) > 1]
    traced_wall = sum(latencies_ms([p for p in report["passes"] if p["traced"]])) / 1000
    keys = counts["runtime.keys"]
    metrics = {
        **times,
        **counts,
        "runtime.dedup_ratio": counts["runtime.states_distinct"] / keys if keys else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics, problems


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Build, time and check one run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gradualpi" / "cli.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'gradualpi'} is missing")
    workdir = BENCH / "_work" / f"{name}-{seed}-{scale}-{os.getpid()}"
    try:
        work = workloads.build(name, seed, scale, workdir)
        (workdir / "manifest.json").write_text(json.dumps(work.manifest()))
        _worker(workdir, "setup", 0, deadline)  # warm-up: byte-compiles the program on a fresh checkout
        setups = [_worker(workdir, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        report = _worker(workdir, "traced" if trace else "untraced", seconds, deadline)
        setups += [_worker(workdir, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROBES - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if scale == "full" else None
    attempted, failed, problems = count_failures(work, report, recorded)
    end_to_end, spread = _end_to_end(work, setups + [report["setup_s"]], report)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "digest": report["passes"][0]["digest"],
        "end_to_end": end_to_end,
        "end_to_end_spread": spread,
        "setup_samples_s": setups + [report["setup_s"]],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "digest")} for p in report["passes"]],
    }
    if trace:
        per_layer, trace_problems = _per_layer(report, end_to_end["wall_s"])
        record["problems"] += trace_problems
        record["per_layer"] = per_layer
        record["spans"] = report["trace"]["spans"]
        record["growth"] = report["trace"]["growth"]
        record["depths"] = report["trace"]["depths"]
    record["correct"] = not record["problems"]
    return record


def _fmt(pair) -> str:
    return f"[{pair[0]:.5g}, {pair[1]:.5g}]"


def print_report(record: dict, units: dict[str, str]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  python {record['python']}  cpus {record['cpus']}")
    print(f"checked {record['attempted']} commands, {record['failed']} failed (fail_ratio {record['fail_ratio']:.4f})")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    print("end-to-end (untraced passes; each program at its 90th-percentile pass):")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    spread = record["end_to_end_spread"]
    print(
        f"  samples: {spread['setup_samples']} set-ups, quartiles {_fmt(spread['setup_quartiles_s'])} s;"
        f" {spread['passes']} passes, quartiles {_fmt(spread['pass_quartiles_s'])} s;"
        f" {spread['programs']} programs, quartiles {_fmt(spread['program_quartiles_ms'])} ms"
    )
    if "per_layer" not in record:
        return
    print("per layer (traced passes, medians; counts repeat exactly):")
    for name, value in record["per_layer"].items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print("waiting time: none in any layer (one thread, no queues); every span is busy time")
    print("spans (first traced pass):")
    print(f"  {'span':<30} {'parent':<30} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for row in record["spans"]:
        print(f"  {row['span']:<30} {row['parent']:<30} {row['count']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    if any(row["steps"] for row in record["growth"]):
        print("growth: enumerate_redexes + step time by configuration thread count")
        for row in record["growth"]:
            print(
                f"  threads {row['threads']:>9}  enumerate {row['enumerate_calls']:>6}  steps {row['steps']:>6}"
                f"  {row['seconds']:>8.4f} s  {row['ms_per_step']:>8.4f} ms/step"
            )
    if record["depths"]:
        print("exploration: keys computed and states first seen per depth")
        for row in record["depths"]:
            print(f"  depth {row['depth']:>3}  keys {row['keys']:>7}  new states {row['states_new']:>6}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(record, units)
    chosen = (spec["per_layer"], record["per_layer"]) if args.trace else (spec["end_to_end"], record["end_to_end"])
    metrics = {m["name"]: {"value": chosen[1][m["name"]], "unit": m["unit"]} for m in chosen[0]}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
