"""Seeded inputs for the two benchmark workloads, and the checks on their outputs.

Nothing here imports gradualpi: the inputs are written as `.gpi` text from a
small AST of the benchmark's own, and the expected verdicts come from a
reference checker over that AST, so the checks do not trust the code under
test.

AST nodes are tuples: ("nil",), ("in", a, ((x, T), ...), P),
("out", a, (x, ...), P), ("rout", a, (x, ...), P), ("par", P, Q),
("choice", P, Q), ("new", x, T, P), ("rep", P).  Types are "dyn" or
(cap, (T, ...)) with cap "i" or "o".
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("frontend_corpus", "server_and_race")

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is the smoke
# check's.  Every size stays well under the recursion limits of the program
# (prefix chains of about 330 actions, `|` about 985 wide, printing about 600
# top-level `|`): those are a known defect the benchmark does not measure.
SIZES = {
    "full": {"programs": 2000, "long_share": 0.02, "chain_pairs": 80, "clients": 400, "racers": 4},
    "tiny": {"programs": 40, "long_share": 0.05, "chain_pairs": 6, "clients": 6, "racers": 2},
}

RACE_DEPTH = 40


# --------------------------------------------------------------------------
# Types and rendering
# --------------------------------------------------------------------------

DYN = "dyn"
_VALUE_TYPES = (("o", ()), ("i", ()), ("o", (("o", ()),)))


def show_type(t) -> str:
    if t == DYN:
        return DYN
    cap, args = t
    return f"{cap}({', '.join(show_type(a) for a in args)})"


def show(p) -> str:
    kind = p[0]
    if kind == "nil":
        return "0"
    if kind == "in":
        _, a, binders, body = p
        inner = ", ".join(f"{x}:{show_type(t)}" for x, t in binders)
        return f"{a}?({inner}).{show(body)}"
    if kind in ("out", "rout"):
        _, a, args, body = p
        bang = "!" if kind == "out" else "!!"
        return f"{a}{bang}<{', '.join(args)}>.{show(body)}"
    if kind == "par":
        return f"({show(p[1])} | {show(p[2])})"
    if kind == "choice":
        return f"({show(p[1])} + {show(p[2])})"
    if kind == "new":
        _, x, t, body = p
        return f"new ({x}:{show_type(t)}) {show(body)}"
    if kind == "rep":
        return f"!{show(p[1])}"
    raise ValueError(kind)


def show_program(env, proc) -> str:
    """Program text; the top-level `|` spine is written flat, as it parses."""
    decls = "".join(f"chan {n} : {show_type(t)};\n" for n, t in env)
    threads = []
    while proc[0] == "par":
        threads.append(show(proc[1]))
        proc = proc[2]
    threads.append(show(proc))
    return f"{decls}run {' | '.join(threads)}\n"


# --------------------------------------------------------------------------
# Reference judgement (independent of gradualpi)
# --------------------------------------------------------------------------


def _consistent(t, s) -> bool:
    if t == DYN or s == DYN:
        return True
    return t[0] == s[0] and len(t[1]) == len(s[1]) and all(map(_consistent, t[1], s[1]))


def _has_dyn(t) -> bool:
    return t == DYN or any(map(_has_dyn, t[1]))


def _reverse(t):
    return t if t == DYN else ("o" if t[0] == "i" else "i", t[1])


@dataclass(frozen=True)
class Verdict:
    gradual_diags: int  # failing comparisons under consistency
    static_diags: int  # failing comparisons under equality
    sites: int  # cast sites compilation logs (one per prefix)
    nontrivial_sites: int  # sites whose cast is not elided
    dyn_free: bool  # no dyn in any declaration or annotation


def judge(env, proc) -> Verdict:
    counts = {"gradual": 0, "static": 0, "sites": 0, "nontrivial": 0}
    annotations = [t for _, t in env]

    def compare(got, want, target) -> None:
        counts["gradual"] += not _consistent(got, want)
        counts["static"] += got != want
        counts["sites"] += 1
        counts["nontrivial"] += got != target

    def walk(scope: dict, p) -> None:
        kind = p[0]
        if kind == "nil":
            return
        if kind in ("par", "choice"):
            walk(scope, p[1])
            walk(scope, p[2])
        elif kind == "new":
            annotations.append(p[2])
            walk({**scope, p[1]: p[2]}, p[3])
        elif kind == "rep":
            walk(scope, p[1])
        elif kind == "in":
            _, a, binders, body = p
            want = ("i", tuple(t for _, t in binders))
            compare(scope[a], want, want)
            annotations.extend(want[1])
            walk({**scope, **dict(binders)}, body)
        else:
            _, a, args, body = p
            types = tuple(scope[x] for x in args)
            target = ("o", tuple(map(_reverse, types)) if kind == "rout" else types)
            compare(scope[a], ("o", types), target)
            walk(scope, body)

    walk(dict(env), proc)
    dyn_free = not any(map(_has_dyn, annotations))
    return Verdict(counts["gradual"], counts["static"], counts["sites"], counts["nontrivial"], dyn_free)


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


def _random_type(rng: random.Random, depth: int, allow_dyn: bool):
    if allow_dyn and rng.random() < 0.25:
        return DYN
    cap = rng.choice("io")
    if depth == 0:
        return (cap, ())
    arity = rng.choice((0, 0, 1, 1, 2))
    return (cap, tuple(_random_type(rng, depth - 1, allow_dyn) for _ in range(arity)))


def _fresh(rng: random.Random, taken) -> str:
    while True:
        name = rng.choice("xyzuv") + rng.choice(("", "", "", "1", "2"))
        if name not in taken:
            return name


def random_party(rng: random.Random, fuel: int = 6):
    """A well-typed party over a small world of shared channels.

    Some world channels are declared dyn and then used in both polarities;
    outputs are sometimes reverse outputs.  Mirrors `random_party` in the
    test generators.
    """
    world = {f"w{k}": tuple(rng.choice(_VALUE_TYPES) for _ in range(rng.choice((0, 1, 1, 2)))) for k in range(3)}
    values = {f"v{k}": t for k, t in enumerate(_VALUE_TYPES)}
    decls = {c: DYN if rng.random() < 0.4 else (rng.choice("io"), payload) for c, payload in world.items()}
    used: set[str] = set()

    def value_arg(ty, scope):
        local = sorted(n for n, t in scope.items() if t == ty)
        if local and rng.random() < 0.5:
            return rng.choice(local)
        for name, t in values.items():
            if t == ty:
                decls.setdefault(name, t)
                used.add(name)
                return name
        return None

    def gen(fuel: int, scope: dict):
        if fuel <= 0:
            return ("nil",)
        roll = rng.random()
        if roll < 0.10:
            return ("nil",)
        if roll < 0.28:
            return (rng.choice(("par", "choice")), gen(fuel // 2, scope), gen(fuel // 2, scope))
        if roll < 0.33:
            return ("rep", gen(fuel - 1, scope))
        channel = rng.choice(sorted(world))
        payload = world[channel]
        declared = decls[channel]
        want_input = rng.random() < 0.5 if declared == DYN else declared[0] == "i"
        used.add(channel)
        if want_input:
            taken = set(scope) | set(decls) | set(values)
            binders = []
            for ty in payload:
                name = _fresh(rng, taken)
                taken.add(name)
                binders.append((name, ty))
            return ("in", channel, tuple(binders), gen(fuel - 1, {**scope, **dict(binders)}))
        args = []
        for ty in payload:
            arg = value_arg(ty, scope)
            if arg is None:
                return ("nil",)
            args.append(arg)
        kind = "rout" if rng.random() < 0.3 else "out"
        return (kind, channel, tuple(args), gen(fuel - 1, scope))

    proc = gen(fuel, {})
    env = tuple(sorted((n, t) for n, t in decls.items() if n in used))
    return env, proc


def random_program(rng: random.Random, dyn_free: bool):
    """Arbitrary declared program, usually ill-typed (as `random_program` in the tests)."""
    names = list("abcde"[: rng.randint(2, 5)])
    env = tuple((n, _random_type(rng, 2, not dyn_free)) for n in names)

    def gen(fuel: int, scope: list):
        if fuel <= 0:
            return ("nil",)
        roll = rng.random()
        pool = names + scope
        if roll < 0.15:
            return ("nil",)
        if roll < 0.30:
            return (rng.choice(("par", "choice")), gen(fuel // 2, scope), gen(fuel // 2, scope))
        if roll < 0.38:
            name = _fresh(rng, set(pool))
            return ("new", name, _random_type(rng, 2, not dyn_free), gen(fuel - 1, scope + [name]))
        if roll < 0.44:
            return ("rep", gen(fuel - 1, scope))
        if roll < 0.72:
            taken = set(pool)
            binders = []
            for _ in range(rng.choice((0, 1, 1, 2))):
                name = _fresh(rng, taken)
                taken.add(name)
                binders.append((name, _random_type(rng, 2, not dyn_free)))
            body = gen(fuel - 1, scope + [n for n, _ in binders])
            return ("in", rng.choice(pool), tuple(binders), body)
        args = tuple(rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 2))))
        return ("out", rng.choice(pool), args, gen(fuel - 1, scope))

    return env, gen(rng.randint(1, 6), [])


def prefix_chain(rng: random.Random, pairs: int):
    """`a?(x:dyn).x!<m>. ...` with `pairs` input/output pairs on a dyn channel."""
    env = (("a", DYN), ("m", ("o", ())), ("n", ("o", ())))
    proc = ("nil",)
    for _ in range(pairs):
        x = rng.choice("xyz") + str(rng.randrange(4))
        proc = ("in", "a", ((x, DYN),), ("out", x, (rng.choice("mn"),), proc))
    return env, proc


# --------------------------------------------------------------------------
# Workload construction
# --------------------------------------------------------------------------


@dataclass
class Program:
    """One input file and the CLI commands run on it."""

    file: str
    commands: list[list[str]]
    kind: str
    expect: object = None  # Verdict for front-end programs; the size for runs


@dataclass
class Workload:
    name: str
    programs: list[Program] = field(default_factory=list)

    def manifest(self) -> dict:
        return {"programs": [p.commands for p in self.programs], "files": [p.file for p in self.programs]}


def build(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    """Write the workload's input files into `workdir` and describe its commands."""
    size = SIZES[scale]
    rng = random.Random(f"{name}:{seed}")
    work = Workload(name)
    workdir.mkdir(parents=True, exist_ok=True)

    def add(file: str, env, proc, commands, kind, expect) -> None:
        (workdir / file).write_text(show_program(env, proc))
        work.programs.append(Program(file, commands, kind, expect))

    if name == "frontend_corpus":
        total = size["programs"]
        long_at = set(rng.sample(range(total), round(total * size["long_share"])))
        for k in range(total):
            file = f"p{k:05d}.gpi"
            if k in long_at:
                kind, (env, proc) = "chain", prefix_chain(rng, size["chain_pairs"])
            elif rng.random() < 0.2:
                kind, (env, proc) = "program", random_program(rng, dyn_free=rng.random() < 0.5)
            else:
                kind, (env, proc) = "party", random_party(rng)
            verdict = judge(env, proc)
            if kind != "program" and verdict.gradual_diags:
                raise AssertionError(f"generated {kind} is ill-typed: {show_program(env, proc)}")
            commands = [["check", file, "--static"], ["compile", file, "--show-sites"]]
            add(file, env, proc, commands, kind, verdict)
    elif name == "server_and_race":
        # Two runs that use the runtime in different ways: one long seeded
        # path over a growing configuration, and an exhaustive search that
        # hashes every state it reaches.
        n = size["clients"]
        env = (("p", DYN), ("m", ("o", ())))
        server = ("rep", ("in", "p", (("j", ("o", ())),), ("nil",)))
        proc = _par([server] + [("out", "p", ("m",), ("nil",))] * n)
        command = ["run", "server.gpi", "--mode", "seeded", "--seed", str(seed), "--max-steps", str(100 * n), "--trace"]
        add("server.gpi", env, proc, [command], "server", n)
        k = size["racers"]
        env = (("a", DYN),) + tuple((f"v{i}", ("o", ())) for i in range(k))
        threads = [("out", "a", (f"v{i}",), ("nil",)) for i in range(k)]
        threads += [("in", "a", (("s", ("o", ())),), ("nil",))] * k
        rng.shuffle(threads)
        proc = _par(threads)
        command = ["run", "race.gpi", "--mode", "exhaustive", "--depth", str(RACE_DEPTH)]
        add("race.gpi", env, proc, [command], "race", k)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return work


def _par(threads: list):
    """Right-nested parallel composition, as `|` parses."""
    proc = threads[-1]
    for thread in reversed(threads[:-1]):
        proc = ("par", thread, proc)
    return proc


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

_DIAG = re.compile(r"^(?P<file>[^:]+):\d+:\d+: \[(t-in|t-out|env-lookup)\] ")
_SITE = re.compile(r"^\d+:\d+: \S+ : .+ => .+$")
_STEP = re.compile(r"^#(\d+) \[([a-z-]+)(?:: ([a-z, -]+))?\] .* --> .*$")
_RESOLVE_OK = {"c-out-expand", "c-out-succeed", "c-in-expand", "c-in-succeed"}


def check_program(program: Program, results: list) -> list[str]:
    """Problems with one program's command results [(exit, stdout, stderr), ...]."""
    problems = [f"stderr: {err.strip()[:200]}" for _, _, err in results if err]
    if problems:
        return problems
    if program.kind == "server":
        return _check_server(program.expect, results[0])
    if program.kind == "race":
        return _check_race(program.expect, results[0])
    return _check_frontend(program, results)


def _check_frontend(program: Program, results) -> list[str]:
    v: Verdict = program.expect
    problems = []
    (static_code, static_out, _), (compile_code, compile_out, _) = results
    if static_code != (1 if v.static_diags else 0):
        problems.append(f"check --static exit {static_code}, reference verdict {v.static_diags} failing comparisons")
    elif static_code == 0 and static_out != "ok\n":
        problems.append(f"check --static accepted but printed {static_out[:80]!r}")
    elif static_code == 1:
        problems += _check_diags(program.file, static_out, v.static_diags)
    if compile_code != (1 if v.gradual_diags else 0):
        problems.append(f"compile exit {compile_code}, reference verdict {v.gradual_diags} failing comparisons")
    elif compile_code == 1:
        problems += _check_diags(program.file, compile_out, v.gradual_diags)
    else:
        lines = compile_out.splitlines()
        sites = lines[1:]
        if len(sites) != v.sites or not all(_SITE.match(s) for s in sites) or not lines[0]:
            problems.append(f"compile printed {len(sites)} site lines, expected {v.sites}")
        nontrivial = sum(not s.endswith("(elided-trivial)") for s in sites)
        if nontrivial != v.nontrivial_sites:
            problems.append(f"{nontrivial} non-trivial casts, expected {v.nontrivial_sites}")
    # Paper criterion 6: on dyn-free programs both judgements agree.
    if v.dyn_free and (static_code == 0) != (compile_code == 0):
        problems.append("check --static and the gradual checker disagree on a dyn-free program")
    return problems


def _check_diags(file: str, out: str, expected: int) -> list[str]:
    lines = out.splitlines()
    if len(lines) != expected or not all((m := _DIAG.match(s)) and m["file"] == file for s in lines):
        return [f"expected {expected} diagnostics, got {out[:200]!r}"]
    return []


def _steps(lines: list[str]) -> tuple[list[tuple[str, tuple[str, ...]]], list[str]]:
    steps, problems = [], []
    for k, line in enumerate(lines):
        m = _STEP.match(line)
        if not m or int(m[1]) != k:
            problems.append(f"bad trace line {k}: {line[:120]!r}")
            break
        steps.append((m[2], tuple(m[3].split(", ")) if m[3] else ()))
    return steps, problems


def _check_server(n: int, result) -> list[str]:
    code, out, _ = result
    lines = out.splitlines()
    if code != 0 or not lines or lines[-1] != "HALT: normal-stuck":
        return [f"exit {code}, last line {lines[-1:]!r}; expected exit 0 and HALT: normal-stuck"]
    steps, problems = _steps(lines[:-1])
    rules = [rule for rule, _ in steps]
    if rules.count("comm") != n:
        problems.append(f"{rules.count('comm')} comm steps, expected {n}")
    if rules.count("replicate") < n:
        problems.append(f"{rules.count('replicate')} replicate steps, expected at least {n}")
    if set(rules) - {"comm", "replicate", "c-solve"}:
        problems.append(f"unexpected rules {sorted(set(rules))}")
    if any(set(detail) - _RESOLVE_OK for rule, detail in steps if rule == "c-solve"):
        problems.append("a cast resolution failed")
    return problems


def _check_race(k: int, result) -> list[str]:
    code, out, _ = result
    lines = out.splitlines()
    expected_head = ["TERMINALS: normal-stuck", "--- witness: normal-stuck"]
    if code != 0 or lines[:2] != expected_head or lines[-1:] != ["HALT: normal-stuck"]:
        return [f"exit {code}, output {out[:200]!r}; expected one normal-stuck witness"]
    steps, problems = _steps(lines[2:-1])
    rules = [rule for rule, _ in steps]
    # The shortest witness resolves and then fires each payer/reader pair once.
    if sorted(rules) != sorted(["c-solve", "comm"] * k):
        problems.append(f"witness rules {rules}, expected {k} c-solve and {k} comm")
    return problems
