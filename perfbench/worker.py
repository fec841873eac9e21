"""Runs one workload's commands in a fresh interpreter and reports timings.

Usage (started by run.py, not by hand):

    python3 worker.py --root DIR --workdir DIR --mode setup|untraced|traced --seconds S --out FILE

Every command goes through `gradualpi.cli.main(argv)` in this process, with
stdout and stderr captured.  `setup` only imports the program and reads the
input files; the other modes time whole passes over the workload until
`--seconds` is used up.  `traced` first times untraced passes, then installs
the tracer and times at least two traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

MIN_UNTRACED_PASSES = 3
MIN_TRACED_PASSES = 2


def load_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import gradualpi.cli as cli
    import gradualpi.runtime as runtime

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gradualpi was imported from {cli.__file__}, not from {src}")
    return cli, runtime


def run_pass(call, programs: list[list[list[str]]]):
    """One pass over every program; returns seconds, per-program ms, results."""
    samples, results = [], []
    clock = time.perf_counter
    for commands in programs:
        begin = clock()
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(argv)
            except Exception:  # an escaped exception is a failed operation, not a benchmark crash
                code = None
                err.write(traceback.format_exc())
            results.append((code, out.getvalue(), err.getvalue()))
        samples.append(1000 * (clock() - begin))
    return sum(samples) / 1000, samples, results


def op_digest(result) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def pass_digest(op_digests: list[str]) -> str:
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    manifest = json.loads((args.workdir / "manifest.json").read_text())

    # Set-up: what a fresh interpreter pays before its first command.
    start = time.perf_counter()
    cli, runtime = load_program(args.root)
    for name in manifest["files"]:
        (args.workdir / name).read_bytes()
    setup_s = time.perf_counter() - start
    report: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        args.out.write_text(json.dumps(report))
        return

    # Commands name their files relative to the work directory, so outputs
    # (which quote file names) do not depend on where the checkout lives.
    os.chdir(args.workdir)
    programs = manifest["programs"]
    passes: list[dict] = []
    reference: list[str] = []
    first_results = None

    def timed_pass(call, traced: bool) -> None:
        nonlocal first_results, reference
        gc.collect()
        wall, samples, results = run_pass(call, programs)
        digests = [op_digest(r) for r in results]
        if first_results is None:
            first_results, reference = results, digests
        passes.append(
            {
                "traced": traced,
                "wall_s": wall,
                "samples_ms": samples,
                "digest": pass_digest(digests),
                "mismatched_ops": [k for k, (a, b) in enumerate(zip(digests, reference)) if a != b],
            }
        )

    def walls(traced: bool) -> list[float]:
        return [p["wall_s"] for p in passes if p["traced"] == traced]

    began = time.perf_counter()
    untraced_budget = args.seconds / 3 if args.mode == "traced" else args.seconds
    min_untraced = 1 if args.mode == "traced" else MIN_UNTRACED_PASSES
    while True:
        timed_pass(cli.main, traced=False)
        done = walls(False)
        spent = time.perf_counter() - began
        if len(done) >= min_untraced and spent + statistics.median(done) > untraced_budget:
            break

    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(cli, runtime)
        layers, tables = [], None
        while True:
            tracer.reset()
            timed_pass(lambda argv: tracer.call_main(cli.main, argv), traced=True)
            layers.append(tracer.layer_metrics())
            if tables is None:
                tables = {"spans": tracer.span_table(), "growth": tracer.growth_table(), "depths": tracer.depth_table()}
            done = walls(True)
            spent = time.perf_counter() - began
            if len(done) >= MIN_TRACED_PASSES and spent + statistics.median(done) > args.seconds:
                break
        report["trace"] = {"layers": layers, **tables}

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["passes"] = passes
    report["results"] = first_results
    args.out.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
