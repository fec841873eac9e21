"""Per-layer spans, recorded from outside the program.

`Tracer.install` rebinds the public names that `gradualpi.cli` and
`gradualpi.runtime` look up in their own module namespaces with timing
wrappers, so every call one layer makes into another opens a span.  Spans
are aggregated in memory as (name, parent) -> count, total time and self
time, where self time is the total minus the time of the span's children.
A few wrappers also count the work their call did (bytes parsed, redexes
offered, cast rules applied, keys computed).

The program is single-threaded and has no queues, so no span ever waits:
each span's time is busy time.
"""

from __future__ import annotations

import time
from collections import defaultdict

CLI_NAMES = {
    "parse": "parser.parse",
    "check": "typecheck.check",
    "check_static": "typecheck.check_static",
    "insert_casts": "castinsert.insert_casts",
    "print_cast": "parser.print_cast",
    "normalize": "runtime.normalize",
    "run": "runtime.run",
    "format_trace": "runtime.format_trace",
}
RUNTIME_NAMES = {
    "enumerate_redexes": "runtime.enumerate_redexes",
    "step": "runtime.step",
    "configuration_key": "runtime.configuration_key",
    "resolve_output_casts": "runtime.resolve_output_casts",
    "resolve_input_casts": "runtime.resolve_input_casts",
    "free_names": "syntax.free_names",
    "substitute": "syntax.substitute",
    "canonical": "syntax.canonical",
    "print_cast": "parser.print_cast",
}
ROOT = "cli.main"
CAST_RULES = ("c-out-expand", "c-out-succeed", "c-out-fail", "c-in-expand", "c-in-succeed", "c-in-fail")
GROWTH_BUCKET = 50  # threads per row of the growth table


class Tracer:
    def __init__(self) -> None:
        # (name, parent) -> [count, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        # thread-count bucket -> [enumerate calls, step calls, seconds in both]
        self.growth: dict[int, list] = defaultdict(lambda: [0, 0, 0.0])
        # exploration depth -> [keys computed, states first seen]
        self.depths: dict[int, list] = defaultdict(lambda: [0, 0])
        self._stack: list[list] = [["", 0.0]]  # [name, seconds spent in children]
        self._seen_keys: set[str] = set()
        self._depth_of: dict[int, int] = {}

    def reset(self) -> None:
        """Forget every span and count; installed wrappers keep recording."""
        for table in (self.spans, self.counts, self.growth, self.depths, self._seen_keys, self._depth_of):
            table.clear()
        self._stack[:] = [["", 0.0]]

    # -- wrapping ------------------------------------------------------------

    def install(self, cli_module, runtime_module) -> None:
        for module, names in ((cli_module, CLI_NAMES), (runtime_module, RUNTIME_NAMES)):
            for attr, span in names.items():
                setattr(module, attr, self._wrap(getattr(module, attr), span, self._hooks.get(span)))

    def call_main(self, main, argv):
        """Run `cli.main(argv)` as the root span; exploration state is per call."""
        self._seen_keys.clear()
        self._depth_of.clear()
        return self._wrap(main, ROOT, None)(argv)

    def _wrap(self, fn, name: str, hook):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record = spans[(name, parent[0])]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters --------------------------------------------------------------

    def _on_parse(self, args, result, elapsed) -> None:
        self.counts["parser.bytes"] += len(args[0].encode())

    def _on_check(self, args, result, elapsed) -> None:
        self.counts["typecheck.consistency_checks"] += len(result.checks)
        self.counts["typecheck.rejected"] += not result.ok

    def _on_insert(self, args, result, elapsed) -> None:
        self.counts["castinsert.sites"] += len(result.sites)
        self.counts["castinsert.nontrivial_sites"] += sum(not site.trivial for site in result.sites)

    def _on_enumerate(self, args, result, elapsed) -> None:
        threads = len(args[0].threads)
        self.counts["runtime.redexes_offered"] += len(result)
        self.counts["runtime.threads_peak"] = max(self.counts["runtime.threads_peak"], threads)
        row = self.growth[threads // GROWTH_BUCKET]
        row[0] += 1
        row[2] += elapsed

    def _on_step(self, args, result, elapsed) -> None:
        row = self.growth[len(args[0].threads) // GROWTH_BUCKET]
        row[1] += 1
        row[2] += elapsed
        # The explorer passes the trace length as the event index, so the
        # successor sits one level below it.
        index = args[2] if len(args) > 2 else 0
        self._depth_of[id(result[0])] = index + 1

    def _on_resolve(self, args, result, elapsed) -> None:
        for rule in result[1]:
            self.counts[f"runtime.cast_rules.{rule}"] += 1

    def _on_key(self, args, result, elapsed) -> None:
        row = self.depths[self._depth_of.pop(id(args[0]), 0)]
        row[0] += 1
        if result not in self._seen_keys:
            self._seen_keys.add(result)
            row[1] += 1
            self.counts["runtime.states_distinct"] += 1

    _hooks = {
        "parser.parse": _on_parse,
        "typecheck.check": _on_check,
        "typecheck.check_static": _on_check,
        "castinsert.insert_casts": _on_insert,
        "runtime.enumerate_redexes": _on_enumerate,
        "runtime.step": _on_step,
        "runtime.resolve_output_casts": _on_resolve,
        "runtime.resolve_input_casts": _on_resolve,
        "runtime.configuration_key": _on_key,
    }

    # -- reporting -------------------------------------------------------------

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(r[1] for (n, p), r in self.spans.items() if n == name and (parent is None or p == parent))

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer times (seconds) and counts for one traced pass."""
        parse_s = self.total("parser.parse")
        times = {
            "cli.self_s": sum(r[2] for (n, _), r in self.spans.items() if n == ROOT),
            "parser.parse_s": parse_s,
            "parser.bytes_per_s": self.counts["parser.bytes"] / parse_s if parse_s else 0.0,
            "parser.print_cast_s": self.total("parser.print_cast"),
            "parser.print_cast.cli_s": self.total("parser.print_cast", ROOT),
            "parser.print_cast.step_s": self.total("parser.print_cast", "runtime.step"),
            "parser.print_cast.key_s": self.total("parser.print_cast", "runtime.configuration_key"),
            "typecheck.check_s": self.total("typecheck.check"),
            "typecheck.check_static_s": self.total("typecheck.check_static"),
            "castinsert.insert_s": self.total("castinsert.insert_casts"),
            "runtime.normalize_s": self.total("runtime.normalize"),
            "runtime.enumerate_s": self.total("runtime.enumerate_redexes"),
            "runtime.step_s": self.total("runtime.step"),
            "runtime.resolve_s": self.total("runtime.resolve_output_casts") + self.total("runtime.resolve_input_casts"),
            "runtime.key_s": self.total("runtime.configuration_key"),
            "runtime.format_trace_s": self.total("runtime.format_trace"),
            "syntax.free_names_s": self.total("syntax.free_names"),
            "syntax.canonical_s": self.total("syntax.canonical"),
            "syntax.substitute_s": self.total("syntax.substitute"),
        }
        counts = {
            "typecheck.consistency_checks": self.counts["typecheck.consistency_checks"],
            "typecheck.rejected": self.counts["typecheck.rejected"],
            "castinsert.sites": self.counts["castinsert.sites"],
            "castinsert.nontrivial_sites": self.counts["castinsert.nontrivial_sites"],
            "runtime.redexes_offered": self.counts["runtime.redexes_offered"],
            "runtime.threads_peak": self.counts["runtime.threads_peak"],
            "runtime.steps": self.calls("runtime.step"),
            "runtime.keys": self.calls("runtime.configuration_key"),
            "runtime.states_distinct": self.counts["runtime.states_distinct"],
            "syntax.free_names_calls": self.calls("syntax.free_names"),
        }
        counts.update({f"runtime.cast_rules.{rule}": self.counts[f"runtime.cast_rules.{rule}"] for rule in CAST_RULES})
        return times, counts

    def span_table(self) -> list[dict]:
        rows = [
            {"span": n, "parent": p or "-", "count": r[0], "total_s": r[1], "self_s": r[2]}
            for (n, p), r in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row["total_s"])

    def growth_table(self) -> list[dict]:
        return [
            {
                "threads": f"{b * GROWTH_BUCKET}-{(b + 1) * GROWTH_BUCKET - 1}",
                "enumerate_calls": r[0],
                "steps": r[1],
                "seconds": r[2],
                "ms_per_step": 1000 * r[2] / r[1] if r[1] else 0.0,
            }
            for b, r in sorted(self.growth.items())
        ]

    def depth_table(self) -> list[dict]:
        return [{"depth": d, "keys": r[0], "states_new": r[1]} for d, r in sorted(self.depths.items())]
