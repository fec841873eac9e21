"""Command-line front end: `check`, `compile`, and `run` over `.gpi` files.

Exit codes: 0 success or normal-stuck run, 1 type-check rejection,
2 run-time type error, 3 parse error, 4 usage error (including an aborted
interactive session), 5 step or depth budget exceeded, 70 internal error
(a broken run-time invariant such as a malformed cast, a channel type
nested deeper than the recursion limit or an exhaustive run over a term
that deep, or any other unexpected exception), 141 stdout closed early
(128 + SIGPIPE, as a shell reports a process that SIGPIPE killed).

`run` accepts several files: each is checked and compiled under its own
declarations, then the compiled processes execute in parallel.  This is
how separately typed parties (a server and its clients, say) are composed.
Interactive prompts go to stderr so the machine-readable trace on stdout
stays clean.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .castinsert import CompilationOutput, insert_casts
from .parser import GpiParseError, Program, parse, print_cast
from .runtime import (
    Configuration,
    Exhaustive,
    InteractiveAbort,
    Interactive,
    Redex,
    Seeded,
    Status,
    format_trace,
    normalize,
    run,
)
from .syntax import CPar, CastProcess
from .typecheck import check, check_static

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_TYPE_ERROR = 2
EXIT_PARSE_ERROR = 3
EXIT_USAGE = 4
EXIT_EXCEEDED = 5
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_STATUS_EXIT = {
    Status.NORMAL_STUCK: EXIT_OK,
    Status.TYPE_ERROR: EXIT_TYPE_ERROR,
    Status.MAX_STEPS: EXIT_EXCEEDED,
    Status.DEPTH_EXCEEDED: EXIT_EXCEEDED,
}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _budget(text: str) -> int:
    """A step or depth budget: an int, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


@functools.cache  # built on the first call, not at import; parse_args keeps no state
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="gradualpi", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type check a .gpi file")
    p_check.add_argument("path")
    p_check.add_argument(
        "--static",
        action="store_true",
        help="use the equality-based reference checker instead of consistency",
    )

    p_compile = sub.add_parser("compile", help="insert casts and print the compiled process")
    p_compile.add_argument("path")
    p_compile.add_argument(
        "--show-sites",
        action="store_true",
        help="also list every cast site, including elided trivial ones",
    )

    p_run = sub.add_parser("run", help="compile one or more files and execute them in parallel")
    p_run.add_argument("paths", nargs="+", help=".gpi files; each is typed under its own declarations")
    p_run.add_argument(
        "--mode",
        choices=("seeded", "exhaustive", "interactive"),
        default="seeded",
        help="scheduling policy (default: seeded)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="seed for the seeded scheduler")
    p_run.add_argument("--max-steps", type=_budget, default=1000, help="step budget for seeded/interactive runs")
    p_run.add_argument("--depth", type=_budget, default=20, help="exploration bound for exhaustive runs")
    p_run.add_argument("--trace", action="store_true", help="print one line per reduction step")
    return parser


def _load(path: str) -> Program:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        error = GpiParseError(f"not valid UTF-8: {exc.reason}", 0, 0)
        error.source = path
        raise error from exc
    try:
        return parse(text, source=path)
    except GpiParseError as exc:
        exc.source = path
        raise


def _checked(program: Program, static: bool = False):
    result = (check_static if static else check)(program.env, program.proc)
    if not result.ok:
        for diagnostic in result.diagnostics:
            print(diagnostic.render(program.source or "<input>"))
    return result


def cmd_check(args) -> int:
    program = _load(args.path)
    result = _checked(program, args.static)
    if not result.ok:
        return EXIT_REJECTED
    print("ok")
    return EXIT_OK


def _compile_checked(path: str) -> Optional[CompilationOutput]:
    program = _load(path)
    if not _checked(program).ok:
        return None
    return insert_casts(program.env, program.proc)


def cmd_compile(args) -> int:
    compiled = _compile_checked(args.path)
    if compiled is None:
        return EXIT_REJECTED
    print(print_cast(compiled.proc))
    if args.show_sites:
        for site in compiled.sites:
            print(site.render())
    return EXIT_OK


def _interactive_chooser(cfg: Configuration, redexes: tuple[Redex, ...]) -> Optional[int]:
    print("choose a redex:", file=sys.stderr)
    for k, redex in enumerate(redexes, 1):
        print(f"  {k}. {redex.describe()}", file=sys.stderr)
    while True:
        print("> ", end="", file=sys.stderr, flush=True)
        line = sys.stdin.readline()
        if not line:
            return None
        line = line.strip()
        if line.isdigit() and 1 <= int(line) <= len(redexes):
            return int(line) - 1
        print(f"enter a number between 1 and {len(redexes)}", file=sys.stderr)


def cmd_run(args) -> int:
    programs = [_load(path) for path in args.paths]
    compiled: list[CastProcess] = []
    for program in programs:
        if not _checked(program).ok:
            return EXIT_REJECTED
        compiled.append(insert_casts(program.env, program.proc).proc)
    composed = functools.reduce(CPar, compiled)
    # The parser rejects undeclared names, so the declarations cover every free name.
    protected = frozenset(name for program in programs for name, _ in program.env.bindings)
    cfg = normalize(composed, protected)

    if args.mode == "exhaustive":
        report = run(cfg, Exhaustive(args.depth))
        print("TERMINALS: " + " ".join(s.value for s in report.statuses()))
        for outcome in report.outcomes:
            print(f"--- witness: {outcome.status.value}")
            for line in format_trace(outcome):
                print(line)
        statuses = set(report.statuses())
        if Status.TYPE_ERROR in statuses:
            return EXIT_TYPE_ERROR
        if Status.DEPTH_EXCEEDED in statuses:
            return EXIT_EXCEEDED
        return EXIT_OK

    # Without --trace no step is recorded, and only the HALT line is printed.
    if args.mode == "interactive":
        try:
            report = run(cfg, Interactive(_interactive_chooser, args.max_steps), trace=args.trace)
        except InteractiveAbort:
            print("aborted", file=sys.stderr)
            return EXIT_USAGE
    else:
        report = run(cfg, Seeded(args.seed, args.max_steps), trace=args.trace)

    outcome = report.outcomes[0]
    for line in format_trace(outcome):
        print(line)
    return _STATUS_EXIT[outcome.status]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = {"check": cmd_check, "compile": cmd_compile, "run": cmd_run}[args.command]
        code = command(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at interpreter exit
        return code
    except BrokenPipeError:
        # Later flushes, at exit too, write to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"gradualpi: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GpiParseError as exc:
        source = getattr(exc, "source", "<input>")
        print(f"{source}:{exc.line}:{exc.col}: parse error: {exc.message}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except Exception as exc:  # MalformedCastError, RecursionError, ...: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"gradualpi: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
