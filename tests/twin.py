"""An independent plain pi-calculus engine over surface processes.

This is the differential oracle for operational conservativity: cast-free
compiled programs must produce byte-identical seeded traces to this engine.
It reimplements substitution, normalization, redex enumeration, and
stepping from scratch on the surface AST (no casts anywhere), sharing only
the pretty-printer conventions with the real runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from gradualpi.parser import print_surface
from gradualpi.syntax import (
    Choice,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Replicate,
    Restrict,
    SurfaceProcess,
    Type,
)


def _free(p: SurfaceProcess) -> frozenset[Name]:
    match p:
        case Nil():
            return frozenset()
        case Input(a, binders, body):
            return frozenset((a,)) | (_free(body) - {n for n, _ in binders})
        case Output(a, args, body):
            return frozenset((a, *args)) | _free(body)
        case Par(l, r) | Choice(l, r):
            return _free(l) | _free(r)
        case Restrict(x, _, body):
            return _free(body) - {x}
        case Replicate(body):
            return _free(body)
    raise TypeError(f"twin engine cannot handle {p!r}")


def _fresh(like: Name, avoid: set[Name]) -> Name:
    k = like.index + 1
    while Name(like.base, k) in avoid:
        k += 1
    return Name(like.base, k)


def _subst(p: SurfaceProcess, mapping: dict[Name, Name]) -> SurfaceProcess:
    if not mapping:
        return p

    def name(n: Name) -> Name:
        return mapping.get(n, n)

    match p:
        case Nil():
            return p
        case Output(a, args, body):
            return Output(name(a), tuple(name(x) for x in args), _subst(body, mapping))
        case Par(l, r):
            return Par(_subst(l, mapping), _subst(r, mapping))
        case Choice(l, r):
            return Choice(_subst(l, mapping), _subst(r, mapping))
        case Replicate(body):
            return Replicate(_subst(body, mapping))
        case Input(a, binders, body):
            inner = {k: v for k, v in mapping.items() if k not in {n for n, _ in binders}}
            clashes = set(inner.values())
            out = []
            for n, t in binders:
                if n in clashes:
                    avoid = set(_free(body)) | clashes | set(inner) | {m for m, _ in binders} | {m for m, _ in out}
                    renamed = _fresh(n, avoid)
                    body = _subst(body, {n: renamed})
                    out.append((renamed, t))
                else:
                    out.append((n, t))
            return Input(name(a), tuple(out), _subst(body, inner) if inner else body)
        case Restrict(x, t, body):
            inner = {k: v for k, v in mapping.items() if k != x}
            if x in set(inner.values()):
                avoid = set(_free(body)) | set(inner.values()) | set(inner)
                renamed = _fresh(x, avoid)
                body = _subst(body, {x: renamed})
                x = renamed
            return Restrict(x, t, _subst(body, inner) if inner else body)
    raise TypeError(f"twin engine cannot handle {p!r}")


@dataclass(frozen=True)
class TwinConfig:
    restrictions: tuple[tuple[Name, Type], ...]
    threads: tuple[SurfaceProcess, ...]
    protected: frozenset[Name]


def _flatten(term, restrictions, threads, avoid):
    match term:
        case Nil():
            return
        case Par(l, r):
            _flatten(l, restrictions, threads, avoid)
            _flatten(r, restrictions, threads, avoid)
        case Restrict(x, t, body):
            if x in avoid:
                renamed = _fresh(x, avoid)
                body = _subst(body, {x: renamed})
                x = renamed
            avoid.add(x)
            restrictions.append((x, t))
            _flatten(body, restrictions, threads, avoid)
        case _:
            threads.append(term)


def normalize_twin(procs: list[SurfaceProcess], protected: frozenset[Name]) -> TwinConfig:
    avoid = set(protected)
    for p in procs:
        avoid |= _free(p)
    restrictions: list = []
    threads: list = []
    for p in procs:
        _flatten(p, restrictions, threads, avoid)
    return TwinConfig(tuple(restrictions), tuple(threads), protected)


def _rebuild(cfg: TwinConfig, replacements: dict[int, list[SurfaceProcess]]) -> TwinConfig:
    avoid = set(cfg.protected) | {n for n, _ in cfg.restrictions}
    for i, t in enumerate(cfg.threads):
        if i not in replacements:
            avoid |= _free(t)
    for items in replacements.values():
        for item in items:
            avoid |= _free(item)
    restrictions = list(cfg.restrictions)
    threads: list = []
    for i, t in enumerate(cfg.threads):
        if i in replacements:
            for item in replacements[i]:
                _flatten(item, restrictions, threads, avoid)
        else:
            threads.append(t)
    return TwinConfig(tuple(restrictions), tuple(threads), cfg.protected)


_KIND_ORDER = {"comm": 0, "choice-left": 1, "choice-right": 2, "replicate": 3}


def _heads(term, acc, scope={}):
    """Append the heads `(direction, channel, arity, sides)` of `term` to
    `acc`; a head's channel is its name if free, else a token made afresh
    for the `new` that binds it.  `sides` are the sides taken at the `+`s
    below that `new` and above the first `!` under it."""
    match term:
        case Nil():
            return
        case Input(a, binders, _):
            channel, sides, _ = scope.get(a, (a, frozenset(), False))
            acc.append(("in", channel, len(binders), sides))
        case Output(a, args, _):
            channel, sides, _ = scope.get(a, (a, frozenset(), False))
            acc.append(("out", channel, len(args), sides))
        case Par(l, r):
            _heads(l, acc, scope)
            _heads(r, acc, scope)
        case Choice(l, r):
            choice = object()
            for side, branch in enumerate((l, r)):
                _heads(branch, acc, {n: (c, s | {(choice, side)} if live else s, live) for n, (c, s, live) in scope.items()})
        case Restrict(x, _, body):
            _heads(body, acc, {**scope, x: (object(), frozenset(), True)})
        case Replicate(body):
            _heads(body, acc, {n: (c, s, False) for n, (c, s, _) in scope.items()})


def _unfold_useful(cfg: TwinConfig, index: int, thread: Replicate) -> bool:
    mine: list = []
    _heads(thread.body, mine)
    pool = list(mine)
    for k, other in enumerate(cfg.threads):
        if k != index:
            _heads(other, pool)
    for direction, base, arity, sides in mine:
        want = "in" if direction == "out" else "out"
        for d, b, n, other_sides in pool:
            if d == want and b == base and n == arity and not any((c, 1 - k) in other_sides for c, k in sides):
                return True
    return False


def enumerate_twin(cfg: TwinConfig):
    redexes = []
    for i, inp in enumerate(cfg.threads):
        if not isinstance(inp, Input):
            continue
        for j, out in enumerate(cfg.threads):
            if not isinstance(out, Output):
                continue
            if inp.subject != out.subject or len(inp.binders) != len(out.args):
                continue
            redexes.append(("comm", (i, j), inp.subject))
    for i, t in enumerate(cfg.threads):
        if isinstance(t, Choice):
            redexes.append(("choice-left", (i,), None))
            redexes.append(("choice-right", (i,), None))
        elif isinstance(t, Replicate) and _unfold_useful(cfg, i, t):
            redexes.append(("replicate", (i,), None))
    redexes.sort(
        key=lambda r: (
            r[1][0],
            _KIND_ORDER[r[0]],
            r[1][1:],
            r[2].base if r[2] else "",
            r[2].index if r[2] else -1,
        )
    )
    return redexes


def step_twin(cfg: TwinConfig, redex, index: int):
    kind, participants, _ = redex
    if kind == "comm":
        i, j = participants
        inp, out = cfg.threads[i], cfg.threads[j]
        mapping = {n: v for (n, _), v in zip(inp.binders, out.args)}
        results = {i: _subst(inp.body, mapping), j: out.body}
        lo, hi = sorted((i, j))
        before = f"{print_surface(cfg.threads[lo])} | {print_surface(cfg.threads[hi])}"
        after = f"{print_surface(results[lo])} | {print_surface(results[hi])}"
        return _rebuild(cfg, {i: [results[i]], j: [results[j]]}), f"#{index} [comm] {before} --> {after}"
    if kind in ("choice-left", "choice-right"):
        (i,) = participants
        side = "left" if kind == "choice-left" else "right"
        thread = cfg.threads[i]
        branch = thread.left if side == "left" else thread.right
        line = f"#{index} [choice: {side}] {print_surface(thread)} --> {print_surface(branch)}"
        return _rebuild(cfg, {i: [branch]}), line
    (i,) = participants
    thread = cfg.threads[i]
    after = f"{print_surface(thread.body)} | {print_surface(thread)}"
    line = f"#{index} [replicate] {print_surface(thread)} --> {after}"
    return _rebuild(cfg, {i: [thread.body, thread]}), line


def run_twin(procs: list[SurfaceProcess], protected: frozenset[Name], seed: int, max_steps: int):
    """Seeded run; returns (trace lines incl. HALT, status string)."""
    cfg = normalize_twin(procs, protected)
    rng = random.Random(seed)
    lines: list[str] = []
    while True:
        redexes = enumerate_twin(cfg)
        if not redexes:
            lines.append("HALT: normal-stuck")
            return lines, "normal-stuck"
        if len(lines) >= max_steps:
            lines.append("HALT: max-steps")
            return lines, "max-steps"
        cfg, line = step_twin(cfg, redexes[rng.randrange(len(redexes))], len(lines))
        lines.append(line)
