"""Test-only oracles kept independent of the production implementations.

The de Bruijn converter turns a process into a nested-tuple form in which
bound occurrences are indices; comparing those forms is an alternative
route to alpha-equivalence of threads, and, with a state's free names bound
outermost, a backtracking search decides whether a permutation of names
relates two states.  The reference printer renames nothing, so it
is what the printers must produce whenever no two names render alike.  The
printed state key, the runtime's earlier key up to alpha-equivalence,
keys the reference explorers' states, and the all-pairs redex enumeration
is the runtime's earlier one, kept as the reference for the single-pass
enumerator.  The character-loop lexer is the parser's
earlier lexer, kept as the reference for the single-regex one, and the
recursive-descent process parser is the parser's earlier one, kept as the
reference for the explicit-stack one.  The recursive free-name scans are
the reference for the explicit-stack ``free_occurrences``.  The
reference explorer is the runtime's earlier exhaustive search, which keys
every successor it builds up to alpha-equivalence, kept as the reference
for the move-table search up to name permutation.
"""

from __future__ import annotations

import string
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from gradualpi.parser import (
    DuplicateDeclarationError,
    GpiSyntaxError,
    Program,
    UndeclaredChannelError,
    _lex,
    _Parser,
    format_channel,
    print_cast,
)
from gradualpi.runtime import (
    _STATUS_ORDER,
    Configuration,
    Halt,
    Outcome,
    Redex,
    RunReport,
    Status,
    TraceEvent,
    _reduce,
    enumerate_redexes,
    step,
)
from gradualpi.syntax import (
    CastChannel,
    Choice,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
    CTypeError,
    CastProcess,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Process,
    Replicate,
    Restrict,
    ReverseOutput,
    Span,
    SurfaceProcess,
    Type,
    TypeEnv,
    canonical,
    substitute,
)


def free_names(p: Process) -> frozenset[Name]:
    """Names with at least one occurrence not bound by an input or restriction."""
    match p:
        case Nil() | CNil() | CTypeError():
            return frozenset()
        case Input(a, binders, body):
            return frozenset((a,)) | (free_names(body) - frozenset(n for n, _ in binders))
        case CInput(c, binders, body):
            return frozenset((c.base,)) | (free_names(body) - frozenset(n for n, _ in binders))
        case Output(a, args, body) | ReverseOutput(a, args, body):
            return frozenset((a, *args)) | free_names(body)
        case COutput(c, args, body):
            return frozenset((c.base, *(a.base for a in args))) | free_names(body)
        case Par(l, r) | Choice(l, r) | CPar(l, r) | CChoice(l, r):
            return free_names(l) | free_names(r)
        case Restrict(x, _, body) | CRestrict(x, _, body):
            return free_names(body) - frozenset((x,))
        case Replicate(body) | CReplicate(body):
            return free_names(body)
    raise TypeError(f"not a process: {p!r}")


def free_occurrence_order(p: CastProcess) -> Iterator[Name]:
    """Free name occurrences in traversal order (with repeats)."""

    def walk(term: CastProcess, bound: frozenset[Name]) -> Iterator[Name]:
        match term:
            case CNil() | CTypeError():
                return
            case CInput(c, binders, body):
                if c.base not in bound:
                    yield c.base
                yield from walk(body, bound | {n for n, _ in binders})
            case COutput(c, args, body):
                for n in (c.base, *(a.base for a in args)):
                    if n not in bound:
                        yield n
                yield from walk(body, bound)
            case CPar(l, r) | CChoice(l, r):
                yield from walk(l, bound)
                yield from walk(r, bound)
            case CRestrict(x, _, body):
                yield from walk(body, bound | {x})
            case CReplicate(body):
                yield from walk(body, bound)

    return walk(p, frozenset())


def _idx(name: Name, env: tuple[Name, ...]):
    for level, bound in enumerate(reversed(env)):
        if bound == name:
            return ("bound", level)
    return ("free", name.base, name.index)


def _chan(c: CastChannel, env: tuple[Name, ...]):
    return (_idx(c.base, env), tuple((str(s), str(t)) for s, t in c.casts))


def debruijn(p: Process, env: tuple[Name, ...] = ()):
    match p:
        case Nil() | CNil():
            return ("nil",)
        case CTypeError():
            return ("typeError",)
        case Input(a, binders, body):
            inner = env + tuple(n for n, _ in binders)
            return ("in", _idx(a, env), tuple(str(t) for _, t in binders), debruijn(body, inner))
        case CInput(c, binders, body):
            inner = env + tuple(n for n, _ in binders)
            return ("cin", _chan(c, env), tuple(str(t) for _, t in binders), debruijn(body, inner))
        case Output(a, args, body):
            return ("out", _idx(a, env), tuple(_idx(x, env) for x in args), debruijn(body, env))
        case ReverseOutput(a, args, body):
            return ("rout", _idx(a, env), tuple(_idx(x, env) for x in args), debruijn(body, env))
        case COutput(c, args, body):
            return ("cout", _chan(c, env), tuple(_chan(x, env) for x in args), debruijn(body, env))
        case Par(l, r) | CPar(l, r):
            return ("par", debruijn(l, env), debruijn(r, env))
        case Choice(l, r) | CChoice(l, r):
            return ("choice", debruijn(l, env), debruijn(r, env))
        case Restrict(x, t, body) | CRestrict(x, t, body):
            return ("res", str(t), debruijn(body, env + (x,)))
        case Replicate(body) | CReplicate(body):
            return ("repl", debruijn(body, env))
    raise TypeError(f"not a process: {p!r}")


def oracle_alpha_equal(p: Process, q: Process) -> bool:
    return debruijn(p) == debruijn(q)


def _shaped(thread: CastProcess, kinds: Mapping[Name, str]) -> tuple:
    """A thread's shape and its free names in first-use order: the shape is
    its de Bruijn form with those names bound outermost, in that order,
    and their kinds.  Threads have one shape iff a renaming of free names
    that keeps kinds maps one onto the other, and it maps the names in
    order."""
    names = tuple(dict.fromkeys(free_occurrence_order(thread)))
    return (debruijn(thread, names), tuple(kinds.get(n, "free") for n in names)), names


def _shaped_threads(cfg: Configuration) -> Counter:
    kinds = {n: f"new:{t}" for n, t in cfg.restrictions}
    return Counter(_shaped(t, kinds) for t in cfg.threads)


def permutation_invariant(cfg: Configuration):
    """What no renaming of names changes: the multiset of thread shapes,
    the types of unused restrictions and the halt status."""
    threads = _shaped_threads(cfg)
    used = {n for _, names in threads for n in names}
    unused = Counter(str(t) for n, t in cfg.restrictions if n not in used)
    shapes = Counter()
    for (shape, _), count in threads.items():
        shapes[shape, count] += 1
    return frozenset(shapes.items()), frozenset(unused.items()), cfg.halted and cfg.halted.status


def permutation_related(c1: Configuration, c2: Configuration) -> bool:
    """Whether a bijection of names, free onto free and restricted onto
    restricted of the same type, maps one state onto the other (up to
    alpha-equivalence), found by backtracking over matches of identical
    threads."""
    if permutation_invariant(c1) != permutation_invariant(c2):
        return False
    mine = list(_shaped_threads(c1).items())
    theirs: dict = {}
    for (shape, names), count in _shaped_threads(c2).items():
        theirs.setdefault((shape, count), []).append(names)
    used: set = set()

    def match(k: int, forward: dict, backward: dict) -> bool:
        if k == len(mine):
            return True
        (shape, names), count = mine[k]
        for other in theirs[shape, count]:
            if (shape, other) in used:
                continue
            f, b = dict(forward), dict(backward)
            if all(f.setdefault(x, y) == y and b.setdefault(y, x) == x for x, y in zip(names, other)):
                used.add((shape, other))
                if match(k + 1, f, b):
                    return True
                used.discard((shape, other))
        return False

    return match(0, {}, {})


def all_names(p: Process) -> set[Name]:
    """Every name in the term, free or bound."""
    match p:
        case Input(a, binders, body):
            return {a, *(n for n, _ in binders)} | all_names(body)
        case CInput(c, binders, body):
            return {c.base, *(n for n, _ in binders)} | all_names(body)
        case Output(a, args, body) | ReverseOutput(a, args, body):
            return {a, *args} | all_names(body)
        case COutput(c, args, body):
            return {c.base, *(x.base for x in args)} | all_names(body)
        case Par(l, r) | Choice(l, r) | CPar(l, r) | CChoice(l, r):
            return all_names(l) | all_names(r)
        case Restrict(x, _, body) | CRestrict(x, _, body):
            return {x} | all_names(body)
        case Replicate(body) | CReplicate(body):
            return all_names(body)
    return set()


def renders_injectively(p: Process) -> bool:
    names = all_names(p)
    return len({str(n) for n in names}) == len(names)


def reference_print(p: Process, want: int = 0) -> str:
    """Printer text with every name as `str(name)`; `want` is the loosest
    operator allowed unparenthesised (0 `|`, 1 `+`, 2 prefix)."""
    match p:
        case Nil() | CNil():
            text, level = "0", 2
        case CTypeError():
            text, level = "typeError", 2
        case Input(a, binders, body) | CInput(a, binders, body):
            subject = str(a) if isinstance(p, Input) else format_channel(a)
            inner = ", ".join(f"{n}:{t}" for n, t in binders)
            text, level = f"{subject}?({inner}).{reference_print(body, 2)}", 2
        case Output(a, args, body) | ReverseOutput(a, args, body):
            bang = "!" if isinstance(p, Output) else "!!"
            text, level = f"{a}{bang}<{', '.join(map(str, args))}>.{reference_print(body, 2)}", 2
        case COutput(c, args, body):
            inner = ", ".join(map(format_channel, args))
            text, level = f"{format_channel(c)}!<{inner}>.{reference_print(body, 2)}", 2
        case Par(l, r) | CPar(l, r):
            text, level = f"{reference_print(l, 1)} | {reference_print(r, 0)}", 0
        case Choice(l, r) | CChoice(l, r):
            text, level = f"{reference_print(l, 2)} + {reference_print(r, 1)}", 1
        case Restrict(x, t, body) | CRestrict(x, t, body):
            text, level = f"new ({x}:{t}) {reference_print(body, 2)}", 2
        case Replicate(body) | CReplicate(body):
            inner = reference_print(body, 2)
            text, level = "!" + (f"({inner})" if isinstance(body, (Replicate, CReplicate)) else inner), 2
    return f"({text})" if level < want else text


def printed_configuration_key(cfg: Configuration) -> str:
    """State key from sorted thread prints, restricted names numbered by
    first use over the threads ordered by (masked print, print)."""
    restricted = [name for name, _ in cfg.restrictions]
    mask = {name: CastChannel(Name("#r")) for name in restricted}
    masked = [print_cast(canonical(substitute(t, mask))) for t in cfg.threads]
    order = sorted(range(len(cfg.threads)), key=lambda k: (masked[k], print_cast(cfg.threads[k])))
    rename: dict[Name, CastChannel] = {}
    for k in order:
        for name in free_occurrence_order(cfg.threads[k]):
            if name in mask and name not in rename:
                rename[name] = CastChannel(Name("#r", len(rename)))
    types = dict(cfg.restrictions)
    reslist = sorted((rename[n].base.index, str(types[n])) for n in restricted if n in rename)
    unused = sorted(str(types[n]) for n in restricted if n not in rename)
    threads = sorted(print_cast(canonical(substitute(t, rename))) for t in cfg.threads)
    halted = cfg.halted.status.value if cfg.halted else ""
    return repr((reslist, unused, threads, halted))


def _id_key(cfg: Configuration, ids: Optional[tuple[int, ...]]):
    """The earlier explorer's key: sorted ids when unrestricted, else the printed key."""
    if ids is not None and not cfg.restrictions:
        return tuple(sorted(ids)), cfg.halted.status if cfg.halted else None
    return printed_configuration_key(cfg)


def _thread_ids(
    cfg: Configuration, known: Mapping[int, int], table: dict[CastProcess, int]
) -> Optional[tuple[int, ...]]:
    """Ids of the threads' canonical forms, numbered in ``table`` by arrival
    (none when restricted); ``known`` maps ``id()`` of live threads to ids."""
    if cfg.restrictions:
        return None
    return tuple(
        known[id(thread)] if id(thread) in known else table.setdefault(canonical(thread), len(table))
        for thread in cfg.threads
    )


def reference_explore(cfg0: Configuration, depth: int) -> RunReport:
    """Breadth-first search that builds and keys every successor, one
    witness per terminal status; a kept thread takes its parent's id by
    object identity."""
    witnesses: dict[Status, tuple[Halt, Optional[tuple]]] = {}
    table: dict[CastProcess, int] = {}
    ids0 = _thread_ids(cfg0, {}, table)
    seen = {_id_key(cfg0, ids0)}
    queue = deque([(cfg0, ids0, 0, None)])
    while queue:
        cfg, ids, d, path = queue.popleft()
        if cfg.halted is not None:
            witnesses.setdefault(cfg.halted.status, (cfg.halted, path))
            continue
        redexes = enumerate_redexes(cfg)
        if not redexes:
            witnesses.setdefault(Status.NORMAL_STUCK, (Halt(Status.NORMAL_STUCK), path))
            continue
        if d >= depth:
            witnesses.setdefault(Status.DEPTH_EXCEEDED, (Halt(Status.DEPTH_EXCEEDED), path))
            continue
        known = dict(zip(map(id, cfg.threads), ids or ()))
        for redex in redexes:
            succ = _reduce(cfg, redex)[0]
            succ_ids = _thread_ids(succ, known, table)
            key = _id_key(succ, succ_ids)
            if key not in seen:
                seen.add(key)
                queue.append((succ, succ_ids, d + 1, (path, redex)))
    outcomes = []
    for status in _STATUS_ORDER:
        if status in witnesses:
            halt, path = witnesses[status]
            outcomes.append(Outcome(status, halt, _replay(cfg0, path)))
    return RunReport(tuple(outcomes))


def _replay(cfg: Configuration, path: Optional[tuple]) -> tuple[TraceEvent, ...]:
    """The trace of the redexes on a `(parent, redex)` path, from `cfg`."""
    redexes: list[Redex] = []
    while path is not None:
        path, redex = path
        redexes.append(redex)
    events = []
    for index, redex in enumerate(reversed(redexes)):
        cfg, event = step(cfg, redex, index)
        events.append(event)
    return tuple(events)


def _heads(term: Process, scope: Mapping[Name, tuple] = {}) -> list[tuple]:
    """A term's heads `(direction, channel, arity, sides)`.  A head's
    channel is its name if free, else a token made afresh for the `new`
    that binds it, so heads under different `new`s, or in different calls,
    never share a channel.  `sides` are the sides taken at the `+`s below
    that `new` and above the first `!` under it: two heads under one `new`
    that take opposite sides of such a `+` never both occur."""
    match term:
        case CInput(c, items, _) | COutput(c, items, _):
            direction = "in" if isinstance(term, CInput) else "out"
            channel, sides, _ = scope.get(c.base, (c.base, frozenset(), False))
            return [(direction, channel, len(items), sides)]
        case CPar(l, r):
            return _heads(l, scope) + _heads(r, scope)
        case CChoice(l, r):
            choice = object()

            def taking(side):
                return {n: (c, s | {(choice, side)} if live else s, live) for n, (c, s, live) in scope.items()}

            return _heads(l, taking(0)) + _heads(r, taking(1))
        case CRestrict(x, _, body):
            return _heads(body, {**scope, x: (object(), frozenset(), True)})
        case CReplicate(body):
            return _heads(body, {n: (c, s, False) for n, (c, s, _) in scope.items()})
    return []


def _could_meet(head, other) -> bool:
    (d, c, n, sides), (d2, c2, n2, sides2) = head, other
    return d != d2 and c == c2 and n == n2 and not any((choice, 1 - side) in sides2 for choice, side in sides)


def naive_enumerate_redexes(cfg: Configuration) -> tuple[Redex, ...]:
    """Every input paired with every output, single-thread redexes, then sorted.

    A replica is unfolded when a head of its body has a partner among the
    body's heads or the other threads' heads.  A copy's restricted names
    are fresh, so a head on one can meet only a head under the same `new`,
    and not one on the other side of a `+` that no `!` below the `new`
    lets both sides of occur.
    """
    if cfg.halted is not None:
        return ()
    threads = list(enumerate(cfg.threads))
    redexes = [
        Redex("comm" if i.subject.is_bare and o.subject.is_bare else "c-solve", (k, j), i.subject.base)
        for k, i in threads if isinstance(i, CInput)
        for j, o in threads if isinstance(o, COutput)
        if i.subject.base == o.subject.base and len(i.binders) == len(o.args)
    ]
    for k, t in threads:
        if isinstance(t, CChoice):
            redexes += [Redex("choice-left", (k,)), Redex("choice-right", (k,))]
        elif isinstance(t, CReplicate):
            mine = _heads(t.body)
            pool = mine + [h for j, other in threads if j != k for h in _heads(other)]
            if any(_could_meet(head, other) for head in mine for other in pool):
                redexes.append(Redex("replicate", (k,)))
    rank = {"comm": 0, "c-solve": 0, "choice-left": 1, "choice-right": 2, "replicate": 3}
    return tuple(sorted(redexes, key=lambda r: (r.participants[0], rank[r.kind], r.participants[1:])))


_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = _IDENT_START | set(string.digits) | {"'"}
_KEYWORDS = {"chan", "run", "new", "dyn"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + len(self.text)


def reference_lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if c == "0" and (i + 1 >= n or text[i + 1] not in _IDENT_CONT):
            tokens.append(_Token("0", "0", line, col))
            i += 1
            col += 1
            continue
        if text.startswith("!!", i):
            tokens.append(_Token("!!", "!!", line, col))
            i += 2
            col += 2
            continue
        if c in "()<>:;,.!?+|":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise GpiSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _ReferenceParser(_Parser):
    """The process grammar by recursive descent: one call per prefix and
    per chain operand."""

    def parse_process(self) -> SurfaceProcess:
        return self.parse_chain("|", Par, self.parse_choice)

    def parse_choice(self) -> SurfaceProcess:
        return self.parse_chain("+", Choice, self.parse_prefix)

    def parse_chain(self, op: str, node, parse_operand) -> SurfaceProcess:
        starts = [self.peek()]
        operands = [parse_operand()]
        while self.peek().kind == op:
            self.next()
            starts.append(self.peek())
            operands.append(parse_operand())
        proc = operands.pop()
        while operands:
            proc = node(operands.pop(), proc, self._span(starts[len(operands)]))
        return proc

    def parse_prefix(self) -> SurfaceProcess:
        tok = self.peek()
        if tok.kind == "0":
            self.next()
            return Nil(Span(tok.line, tok.col, tok.line, tok.end_col))
        if tok.kind == "!":
            self.next()
            body = self.parse_prefix()
            return Replicate(body, self._span(tok))
        if tok.kind == "!!":
            self.next()
            body = self.parse_prefix()
            inner = Replicate(body, self._span(tok))
            return Replicate(inner, self._span(tok))
        if tok.kind == "new":
            self.next()
            self.expect("(")
            name_tok = self.expect("ident")
            self.expect(":")
            ty = self.parse_type()
            self.expect(")")
            body = self.parse_prefix()
            return Restrict(Name(name_tok.text), ty, body, self._span(tok))
        if tok.kind == "(":
            self.next()
            inner = self.parse_process()
            close = self.expect(")")
            return inner._replace(span=Span(tok.line, tok.col, close.line, close.end_col))
        if tok.kind == "ident":
            return self.parse_prefixed(tok)
        self.fail(("0", "!", "new", "(", "channel name"))
        raise AssertionError

    def parse_prefixed(self, start) -> SurfaceProcess:
        subject = Name(self.next().text)
        tok = self.peek()
        if tok.kind == "?":
            self.next()
            self.expect("(")
            binders: list[tuple[Name, Type]] = []
            seen: set[Name] = set()
            if self.peek().kind != ")":
                binders.append(self.parse_binder(seen))
                while self.peek().kind == ",":
                    self.next()
                    binders.append(self.parse_binder(seen))
            close = self.expect(")")
            body = self.parse_continuation(close)
            return Input(subject, tuple(binders), body, self._span(start))
        if tok.kind in ("!", "!!"):
            self.next()
            self.expect("<")
            args: list[Name] = []
            if self.peek().kind != ">":
                args.append(Name(self.expect("ident").text))
                while self.peek().kind == ",":
                    self.next()
                    args.append(Name(self.expect("ident").text))
            close = self.expect(">")
            body = self.parse_continuation(close)
            node = Output if tok.kind == "!" else ReverseOutput
            return node(subject, tuple(args), body, self._span(start))
        self.fail(("?", "!", "!!"))
        raise AssertionError

    def parse_continuation(self, close) -> SurfaceProcess:
        if self.peek().kind == ".":
            self.next()
            return self.parse_prefix()
        return Nil(Span(close.line, close.end_col, close.line, close.end_col))

    def _span(self, start) -> Span:
        prev = self.tokens[self.pos - 1]
        return Span(start.line, start.col, prev.line, prev.end_col)

    def parse_program(self, source: Optional[str]) -> Program:
        decls: list[tuple[Name, Type]] = []
        declared: set[Name] = set()
        while self.peek().kind == "chan":
            self.next()
            tok = self.expect("ident")
            name = Name(tok.text)
            if name in declared:
                raise DuplicateDeclarationError(name, tok.line, tok.col)
            declared.add(name)
            self.expect(":")
            ty = self.parse_type()
            self.expect(";")
            decls.append((name, ty))
        self.expect("run")
        proc = self.parse_process()
        self.expect("eof")
        _reference_check_declared(proc, frozenset(declared))
        return Program(TypeEnv(tuple(decls)), proc, source)


def _reference_check_declared(proc: SurfaceProcess, declared: frozenset[Name]) -> None:
    def walk(p: SurfaceProcess, bound: frozenset[Name]) -> None:
        def need(n: Name) -> None:
            if n not in bound and n not in declared:
                span = p.span
                line, col = (span.line, span.col) if span else (0, 0)
                raise UndeclaredChannelError(n, line, col)

        match p:
            case Par(l, r) | Choice(l, r):
                walk(l, bound)
                walk(r, bound)
            case Input(a, binders, body):
                need(a)
                walk(body, bound | {n for n, _ in binders})
            case Output(a, args, body) | ReverseOutput(a, args, body):
                need(a)
                for x in args:
                    need(x)
                walk(body, bound)
            case Restrict(x, _, body):
                walk(body, bound | {x})
            case Replicate(body):
                walk(body, bound)

    walk(proc, frozenset())


def reference_parse(text: str, source: Optional[str] = None) -> Program:
    """``parse`` by recursive descent, with the recursive declared-name check."""
    return _ReferenceParser(_lex(text)).parse_program(source)
