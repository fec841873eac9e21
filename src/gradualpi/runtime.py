"""Execution of cast-calculus configurations.

A configuration is the canonical form standing in for structural
congruence: restrictions hoisted to the top (freshened on the way up),
parallel compositions flattened into a thread list, nils dropped.  The
step relation has four redex kinds:

* ``comm``   -- both subjects bare, same channel: communicate.
* ``c-solve`` -- same channel, at least one subject cast: commit to the
  pair and resolve both subjects' casts in one big step (output side
  first), leaving a bare pair behind or halting with a type error.
* ``choice`` -- replace a choice thread by one branch (the scheduler, or
  a human in interactive mode, decides which).
* ``replicate`` -- lay down one copy of a replicated thread, offered only
  when the copy could take part in some communication.

Casts on an output's arguments never block anything; they are examined
only if the value is later used as a subject.

Enabled redexes have one order, planned from per-thread facts (``_plan``):
``redex_plan`` reads them off a configuration's threads, the exhaustive
explorer off its memo per canonical thread form.  A sequential run
(seeded or interactive) keeps its state in one ``threadindex.ThreadIndex``
instead, which each step updates from the threads it replaced: blocks of
about sqrt(n) threads with per-block counts, so counting the redexes,
finding the k-th and applying a step cost O(sqrt n) in the thread count n,
not O(n).  A step that hoists a restriction still scans every thread, in
O(n), for the names its fresh name must avoid.  An untraced run records no
trace events.

Cast terms are hash-consed (``syntax``): equal terms are one object, which
hashes in O(1).  So every per-term memo hits across steps and states: a
sequential run learns each move once (``ThreadIndex.step``), with its
flattened threads and trace sides unless it hoists, the explorer each move
once per id (``_learn_move``) and expands it once per state, and a trace
renders each distinct term once (``format_trace``).
"""

from __future__ import annotations

import enum
import functools
import random
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .parser import format_channel, print_cast
from .syntax import (
    Capability,
    CastChannel,
    CastProcess,
    ChanType,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
    CTypeError,
    DYN,
    Dyn,
    Name,
    Type,
    canonical,
    free_names,
    fresh_name,
    substitute,
)


class Status(enum.Enum):
    NORMAL_STUCK = "normal-stuck"
    TYPE_ERROR = "type-error"
    MAX_STEPS = "max-steps"
    DEPTH_EXCEEDED = "depth-exceeded"


class MalformedCastError(Exception):
    """A cast frame no resolution rule covers: an internal-invariant breach,
    deliberately distinct from a run-time typeError."""


class InteractiveAbort(Exception):
    """The interactive chooser gave up (end of input)."""


class Halt(NamedTuple):
    status: Status
    failing: Optional[CastChannel] = None
    rule: Optional[str] = None  # the failing cast rule: "c-out-fail" | "c-in-fail"

    def describe(self) -> str:
        if self.status is Status.TYPE_ERROR and self.failing is not None:
            return f"type-error({format_channel(self.failing)})"
        return self.status.value


class Configuration(NamedTuple):
    """Canonical run-time state: hoisted restrictions plus a thread list."""

    restrictions: tuple[tuple[Name, Type], ...]
    threads: tuple[CastProcess, ...]
    halted: Optional[Halt] = None
    protected: frozenset[Name] = frozenset()


class Redex(NamedTuple):
    kind: str  # "comm" | "c-solve" | "choice-left" | "choice-right" | "replicate"
    participants: tuple[int, ...]
    channel: Optional[Name] = None

    def describe(self) -> str:
        if self.kind in ("comm", "c-solve"):
            i, j = self.participants
            return f"{self.kind} on {self.channel} (threads {i}, {j})"
        return f"{self.kind} (thread {self.participants[0]})"


class TraceEvent(NamedTuple):
    """One step: the participants before it and what replaced them after it,
    each side in thread order.  The terms are rendered only by ``format``."""

    index: int
    rule: str  # "comm" | "c-solve" | "choice" | "replicate"
    detail: tuple[str, ...]
    before: tuple[CastProcess, ...]
    after: tuple[CastProcess, ...]

    def format(self, render: Optional[Callable[[CastProcess], str]] = None) -> str:
        """The trace line; ``render`` prints a term (``print_cast`` by default)."""
        return f"#{self.index} {_move_text(render or print_cast, *self[1:])}"


def _move_text(render: Callable[[CastProcess], str], rule, detail, before, after) -> str:
    """A trace line after its ``#<n> ``: the rule and its detail, then both sides."""
    label = rule if not detail else f"{rule}: {', '.join(detail)}"
    return f"[{label}] {' | '.join(map(render, before))} --> {' | '.join(map(render, after))}"


class Outcome(NamedTuple):
    status: Status
    halt: Halt
    trace: tuple[TraceEvent, ...]


class RunReport(NamedTuple):
    outcomes: tuple[Outcome, ...]

    def statuses(self) -> tuple[Status, ...]:
        return tuple(o.status for o in self.outcomes)


# --------------------------------------------------------------------------
# Normalization (structural congruence as a canonical form)
# --------------------------------------------------------------------------


def _flatten_into(
    term: CastProcess,
    restrictions: list[tuple[Name, Type]],
    threads: list[CastProcess],
    hoist: Callable[[Name], Name],
    halts: list[Halt],
) -> None:
    """Flatten ``term`` onto ``threads``, hoisting its restrictions.

    ``hoist`` gives the name a hoisted restriction takes, before it is
    appended to ``restrictions``; it is called only when one is hoisted.
    """
    stack = [term]
    while stack:
        term = stack.pop()
        match term:
            case CNil():
                pass
            case CPar(l, r):
                stack += (r, l)
            case CRestrict(x, t, body):
                renamed = hoist(x)
                if renamed is not x:
                    body = substitute(body, {x: CastChannel(renamed)})
                restrictions.append((renamed, t))
                stack.append(body)
            case CTypeError():
                halts.append(Halt(Status.TYPE_ERROR))
                threads.append(term)
            case _:
                threads.append(term)


def normalize(proc: CastProcess, protected: frozenset[Name] = frozenset()) -> Configuration:
    """Flatten a process into a configuration, extruding restrictions."""
    return _rebuild(Configuration((), (proc,), None, frozenset(protected)), {0: (proc,)})


def _rebuild(
    cfg: Configuration,
    replacements: Mapping[int, Sequence[CastProcess]],
    halted: Optional[Halt] = None,
) -> Configuration:
    """Replace threads by processes, flattened in place.

    Every other thread is kept as the same object, in the same relative
    order (the explorer's thread ids rely on it).
    """
    restrictions = list(cfg.restrictions)
    hoist = _fresh_names(cfg.protected, cfg.restrictions, cfg.threads, replacements)
    threads: list[CastProcess] = []
    halts: list[Halt] = []
    for i, thread in enumerate(cfg.threads):
        if i in replacements:
            for item in replacements[i]:
                _flatten_into(item, restrictions, threads, hoist, halts)
        else:
            threads.append(thread)
    final = halted or cfg.halted or (halts[0] if halts else None)
    return Configuration(tuple(restrictions), tuple(threads), final, cfg.protected)


def _fresh_names(
    protected: frozenset[Name],
    restrictions: Sequence[tuple[Name, Type]],
    threads: Iterable[CastProcess],
    replacements: Mapping[int, Sequence[CastProcess]],
) -> Callable[[Name], Name]:
    """The ``hoist`` callback of a step that replaces threads: a hoisted
    restriction keeps its name unless that name is in use, and then takes
    the least index bump of it that is not.  The (linear) scan for the
    names in use runs on the first hoist only (before that hoist adds to
    ``restrictions``), and the set it builds then grows with each hoisted
    name."""
    avoid: Optional[set[Name]] = None

    def hoist(x: Name) -> Name:
        nonlocal avoid
        if avoid is None:
            avoid = set(protected)
            avoid.update(name for name, _ in restrictions)
            for i, thread in enumerate(threads):
                if i not in replacements:
                    avoid |= free_names(thread)
            for items in replacements.values():
                for item in items:
                    avoid |= free_names(item)
        if x in avoid:
            x = fresh_name(x, avoid)
        avoid.add(x)
        return x

    return hoist


# --------------------------------------------------------------------------
# Redex enumeration
# --------------------------------------------------------------------------

_CHOICE_KINDS = ("choice-left", "choice-right")
_REPLICATE_KINDS = ("replicate",)
_OTHER, _IN, _OUT, _CHOICE, _REP = range(5)  # thread kinds, as the redex order reads them


def _facts(thread: CastProcess) -> tuple:
    """What the redex order reads of a thread: ``(kind, key, heads, paired)``.

    ``key`` is the channel key ``(base, index, arity)`` of an input or
    output; ``heads`` and ``paired`` are as ``_heads`` gives them.  A
    top-level subject is free, so alpha-equivalent threads have the same
    facts.
    """
    if isinstance(thread, CInput):
        kind, direction, arity = _IN, "in", len(thread.binders)
    elif isinstance(thread, COutput):
        kind, direction, arity = _OUT, "out", len(thread.args)
    else:
        heads, paired = _heads(thread)  # a replicated thread's heads are its body's
        kind = _CHOICE if isinstance(thread, CChoice) else _REP if isinstance(thread, CReplicate) else _OTHER
        return kind, None, heads, paired
    key = (thread.subject.base.base, thread.subject.base.index, arity)
    return kind, key, ((direction, *key),), False


class RedexPlan:
    """The enabled redexes of a configuration, counted without being built.

    Each entry is a thread that offers redexes, in emission order, with its
    options: the indices of its partner outputs for an input (one
    communication each), or the kinds of its single-thread redexes.  A
    redex is built only when asked for, by ``build``.
    """

    def __init__(self, threads: Sequence[CastProcess], entries: Sequence[tuple[int, Sequence]]):
        self._threads = threads
        self._entries = entries
        self._count = sum(len(options) for _, options in entries)

    def __len__(self) -> int:
        return self._count

    def redexes(self) -> tuple[Redex, ...]:
        return tuple(self.build(i, option) for i, option in self.options())

    def options(self) -> Iterator[tuple[int, Union[int, str]]]:
        """Each redex as ``(thread, option)``, in order, without building it."""
        for i, options in self._entries:
            for option in options:
                yield i, option

    def build(self, i: int, option: Union[int, str]) -> Redex:
        """The redex of thread ``i``'s ``option``."""
        if isinstance(option, str):
            return Redex(option, (i,))
        inp, out = self._threads[i], self._threads[option]
        bare = inp.subject.is_bare and out.subject.is_bare
        return Redex("comm" if bare else "c-solve", (i, option), inp.subject.base)


def redex_plan(cfg: Configuration) -> RedexPlan:
    """The enabled redexes in a fixed order (see ``_plan``)."""
    if cfg.halted is not None:
        return RedexPlan(cfg.threads, ())
    return _plan(cfg.threads, list(map(_facts, cfg.threads)))


def _plan(threads: Sequence[CastProcess], facts: Sequence[tuple]) -> RedexPlan:
    """The enabled redexes of threads with the given facts, in one pass.

    Redexes are ordered by thread index (the input's, for a pair), then
    kind (communication, choice-left, choice-right, replicate), then the
    partner output's index.  A replicated thread is offered when two heads
    under one ``new`` inside it could meet, or when one of its heads on a
    free name has a partner among all threads' heads on free names.
    Sequential runs pick by position in this order, kept by a
    ``ThreadIndex`` between steps.  The exhaustive explorer
    passes canonical forms as ``threads``: a plan reads only their subjects,
    to build a redex, and a form's subject is its thread's.
    """
    # Outputs by channel key; an input's entry shares the list, which the
    # rest of the pass may still extend.
    outputs: dict[tuple[str, int, int], list[int]] = {}
    pool: Optional[set[_Head]] = None
    entries: list[tuple[int, Sequence]] = []
    for i, (kind, key, heads, paired) in enumerate(facts):
        if kind == _OUT:
            partners = outputs.get(key)
            if partners is None:
                outputs[key] = [i]
            else:
                partners.append(i)
        elif kind == _IN:
            partners = outputs.get(key)
            if partners is None:
                partners = outputs[key] = []
            entries.append((i, partners))
        elif kind == _CHOICE:
            entries.append((i, _CHOICE_KINDS))
        elif kind == _REP:
            if pool is None and not paired:  # every thread's free heads: a copy can also pair with its original
                pool = {head for thread in facts for head in thread[2]}
            if paired or not pool.isdisjoint(_partner_heads(heads)):  # a fresh copy could meet a partner
                entries.append((i, _REPLICATE_KINDS))
    return RedexPlan(threads, [entry for entry in entries if entry[1]])


def enumerate_redexes(cfg: Configuration) -> tuple[Redex, ...]:
    """Every enabled redex, in the order of ``redex_plan``."""
    return redex_plan(cfg).redexes()


_Head = tuple[str, str, int, int]  # direction, channel base and index, arity
_PAR_JOIN, _CHOICE_JOIN = object(), object()  # ``_heads``' marks: both operands of a ``|`` or ``+`` are done


def _heads(term: CastProcess) -> tuple[tuple[_Head, ...], bool]:
    """Input/output prefixes reachable without consuming any prefix.

    Returns the heads on free names, each keyed by the name's fields (whose
    hashes are cheaper than a Name's), and whether two heads on a name
    restricted on the way, keyed by the ``new`` that binds it, could meet.
    Each copy of a replicated thread restricts fresh names, so a head on
    one can meet only heads under the same ``new`` in the same copy.  Two
    such heads are a pair where their paths part: at a ``|`` always, and
    at a ``+`` only if a ``!`` lies between their ``new`` and the ``+``, so
    that two copies can take opposite branches.  ``new``s are numbered in
    pre-order, so those above a node precede those below it.
    """
    free: set[_Head] = set()
    paired = False
    parts: list[set] = []  # each finished operand's heads on restricted names: (direction, new, arity)
    news = 0
    # (term or join mark, scope, the number of ``new``s entered before the nearest ``!`` above)
    stack: list[tuple] = [(term, {}, 0)]
    while stack:
        term, scope, replicated = stack.pop()
        if term is _PAR_JOIN or term is _CHOICE_JOIN:
            small, large = sorted((parts.pop(), parts.pop()), key=len)
            for d, new, n in small:
                partner = ("in" if d == "out" else "out", new, n)
                paired = paired or partner in large and (term is _PAR_JOIN or new < replicated)
            large |= small
            parts.append(large)
            continue
        match term:
            case CInput(CastChannel(name), items, _) | COutput(CastChannel(name), items, _):
                direction = "in" if isinstance(term, CInput) else "out"
                if name in scope:
                    parts.append({(direction, scope[name], len(items))})
                else:
                    free.add((direction, name.base, name.index, len(items)))
                    parts.append(set())
            case CPar(l, r) | CChoice(l, r):
                join = _PAR_JOIN if isinstance(term, CPar) else _CHOICE_JOIN
                stack += ((join, None, replicated), (r, scope, replicated), (l, scope, replicated))
            case CRestrict(x, _, body):
                stack.append((body, {**scope, x: news}, replicated))
                news += 1
            case CReplicate(body):
                stack.append((body, scope, news))
            case _:
                parts.append(set())
    return tuple(free), paired


def _partner_heads(heads: Iterable[_Head]) -> tuple[_Head, ...]:
    """The heads that could meet ``heads``: the same channels and arities,
    the other direction."""
    return tuple(("in" if d == "out" else "out", base, index, n) for d, base, index, n in heads)


# --------------------------------------------------------------------------
# Big-step cast resolution
# --------------------------------------------------------------------------


def _strip_casts(
    subject: CastChannel, cap: Capability, args: Sequence[CastChannel], binders: Optional[Sequence] = None
):
    """Pop ``subject``'s cast frames by the rules of the ``cap`` side.

    A dyn source is first expanded to ``cap`` with the target's arity; a
    source of the other capability is a run-time type error; otherwise the
    frame is popped and ``args`` are wrapped contravariantly (from the
    frame's target argument type back to its source argument type).  An
    input's ``binders`` must be annotated with each frame's target and are
    re-annotated with its source.  Returns the bare subject, arguments and
    binders (or the type-error ``Halt``), plus the rules applied, in order.
    """
    side = "out" if cap is Capability.OUT else "in"
    applied: list[str] = []
    while subject.casts:
        source, target = subject.casts[-1]
        if not (isinstance(target, ChanType) and target.cap is cap):
            raise MalformedCastError(
                f"{side}put subject cast does not end in an {side}put capability: {format_channel(subject)}"
            )
        if binders is not None and list(target.args) != [t for _, t in binders]:
            raise MalformedCastError(f"cast frame does not match the binder annotations: {format_channel(subject)}")
        if isinstance(source, Dyn):
            expanded = ChanType(cap, (DYN,) * len(target.args))
            frames = list(subject.casts)
            frames[-1] = (expanded, target)
            if len(frames) >= 2 and frames[-2][1] == source:
                frames[-2] = (frames[-2][0], expanded)
            subject = CastChannel(subject.base, tuple(frames))
            applied.append(f"c-{side}-expand")
            continue
        if source.cap is not cap:
            applied.append(f"c-{side}-fail")
            return Halt(Status.TYPE_ERROR, subject, applied[-1]), tuple(applied)
        if len(source.args) != len(target.args) or len(target.args) != len(args):
            what = "the output arguments" if binders is None else "the communication"
            raise MalformedCastError(f"cast frame arity does not match {what}: {format_channel(subject)}")
        args = [a.push(s, t) for a, s, t in zip(args, target.args, source.args)]
        if binders is not None:
            binders = [(n, t) for (n, _), t in zip(binders, source.args)]
        subject = CastChannel(subject.base, subject.casts[:-1])
        applied.append(f"c-{side}-succeed")
    return (subject, args, binders), tuple(applied)


def resolve_output_casts(
    out: COutput,
) -> tuple[Union[COutput, Halt], tuple[str, ...]]:
    """Strip the output subject's casts, distributing them to the arguments
    (rules ``c-out-*``); returns the bare-subject output or the type error."""
    result, applied = _strip_casts(out.subject, Capability.OUT, out.args)
    if isinstance(result, Halt):
        return result, applied
    subject, args, _ = result
    return COutput(subject, tuple(args), out.body), applied


def resolve_input_casts(
    inp: CInput, out: COutput
) -> tuple[Union[tuple[CInput, COutput], Halt], tuple[str, ...]]:
    """Strip the input subject's casts against a bare-subject output partner
    (rules ``c-in-*``); returns the resolved pair or the type error."""
    if not out.subject.is_bare:
        raise MalformedCastError("input casts are resolved against a bare-subject output")
    result, applied = _strip_casts(inp.subject, Capability.IN, out.args, inp.binders)
    if isinstance(result, Halt):
        return result, applied
    subject, args, binders = result
    return (CInput(subject, tuple(binders), inp.body), COutput(out.subject, tuple(args), out.body)), applied


# --------------------------------------------------------------------------
# The step relation
# --------------------------------------------------------------------------


def _effects(
    redex: Redex, participants: Sequence[CastProcess]
) -> tuple[str, tuple[str, ...], dict[int, list[CastProcess]], Optional[Halt]]:
    """What one redex does, given its participant threads (in participant
    order): the trace rule and its detail, the processes that replace each
    participant (what a trace event prints as its right-hand side), and the
    halt it causes, if any.  Nothing is flattened or rendered.
    """
    if redex.kind in ("comm", "c-solve"):
        (i, j), (inp, out) = redex.participants, participants
        if not (isinstance(inp, CInput) and isinstance(out, COutput)):
            raise ValueError(f"stale redex: {redex}")
        if redex.kind == "comm":
            mapping = {name: chan for (name, _), chan in zip(inp.binders, out.args)}
            return "comm", (), {i: [substitute(inp.body, mapping)], j: [out.body]}, None
        result, applied = resolve_output_casts(out)
        if not isinstance(result, Halt):
            result, in_applied = resolve_input_casts(inp, result)
            applied += in_applied
        if isinstance(result, Halt):
            return "c-solve", applied, {i: [CTypeError()], j: []}, result
        inp2, out2 = result
        return "c-solve", applied, {i: [inp2], j: [out2]}, None

    if redex.kind in ("choice-left", "choice-right"):
        (i,), (thread,) = redex.participants, participants
        if not isinstance(thread, CChoice):
            raise ValueError(f"stale redex: {redex}")
        side = "left" if redex.kind == "choice-left" else "right"
        return "choice", (side,), {i: [thread.left if side == "left" else thread.right]}, None

    if redex.kind == "replicate":
        (i,), (thread,) = redex.participants, participants
        if not isinstance(thread, CReplicate):
            raise ValueError(f"stale redex: {redex}")
        return "replicate", (), {i: [thread.body, thread]}, None

    raise ValueError(f"unknown redex kind: {redex.kind}")


def _reduce(
    cfg: Configuration, redex: Redex
) -> tuple[Configuration, str, tuple[str, ...], Mapping[int, Sequence[CastProcess]]]:
    """Apply one redex without rendering any text.

    Returns the new configuration, the trace rule and its detail, and the
    processes that replaced each participant.
    """
    if cfg.halted is not None:
        raise ValueError("cannot step a halted configuration")
    if any(k >= len(cfg.threads) for k in redex.participants):
        raise ValueError(f"stale redex: {redex}")
    rule, detail, results, halted = _effects(redex, [cfg.threads[k] for k in redex.participants])
    return _rebuild(cfg, results, halted), rule, detail, results


def step(cfg: Configuration, redex: Redex, index: int = 0) -> tuple[Configuration, TraceEvent]:
    """Apply one redex; returns the new configuration and its trace event,
    both sides in thread order."""
    cfg2, rule, detail, results = _reduce(cfg, redex)
    order = sorted(redex.participants)
    after = tuple(p for k in order for p in results[k])
    return cfg2, TraceEvent(index, rule, detail, tuple(cfg.threads[k] for k in order), after)


# --------------------------------------------------------------------------
# State hashing for exhaustive exploration
# --------------------------------------------------------------------------


class IdTable:
    """One search's ids for canonical thread forms, numbered by arrival.

    Each thread asked for is also mapped to its form's id, so no thread is
    put in canonical form twice.  A form's redex-order facts (``_facts``)
    are kept beside it; the search's state keys read the forms by id.
    """

    def __init__(self) -> None:
        from .symmetry import StateKeys  # compiled on the first exhaustive run only

        self._ids: dict[CastProcess, int] = {}
        self.forms: list[CastProcess] = []
        self.facts: list[tuple] = []
        self.keys = StateKeys(self.forms)

    def intern(self, thread: CastProcess) -> int:
        """The id of ``thread``'s canonical form."""
        found = self._ids.get(thread)
        if found is None:
            form = canonical(thread)
            found = self._ids[thread] = self._ids.setdefault(form, len(self.forms))
            if found == len(self.forms):
                self.forms.append(form)
                self.facts.append(_facts(form))
        return found


def configuration_key(ids: IdTable, thread_ids: Sequence[int], status: Optional[Status], restrictions) -> Hashable:
    """A key equal exactly for states related by a permutation of names:
    free names among themselves, restricted names among themselves and of
    one type.  A state is its threads' ids, halt status and restrictions.
    Exact, not merely sound, so that the explorer queues the first state of
    each orbit of the search up to alpha-equivalence (``_run_exhaustive``);
    computed once per distinct state of the search (``symmetry.StateKeys``)."""
    return ids.keys.key(thread_ids, status, restrictions)


# --------------------------------------------------------------------------
# Schedulers
# --------------------------------------------------------------------------


class Seeded(NamedTuple):
    seed: int = 0
    max_steps: int = 1000


class Exhaustive(NamedTuple):
    depth: int = 20


class Interactive(NamedTuple):
    choose: Callable[[Configuration, tuple[Redex, ...]], Optional[int]]
    max_steps: int = 1000


Scheduler = Union[Seeded, Exhaustive, Interactive]

_STATUS_ORDER = (Status.NORMAL_STUCK, Status.TYPE_ERROR, Status.DEPTH_EXCEEDED)


def run(cfg: Configuration, scheduler: Scheduler, trace: bool = True) -> RunReport:
    """Drive a configuration to a terminal status under the given policy.

    Without ``trace`` no step is recorded: each outcome's trace is empty.
    """
    if isinstance(scheduler, Seeded):
        rng = random.Random(scheduler.seed)
        pick = lambda index: index.redex(rng.randrange(len(index)))
        return RunReport((_run_sequential(cfg, pick, scheduler.max_steps, trace),))
    if isinstance(scheduler, Interactive):

        def pick(index) -> Optional[Redex]:
            redexes = index.redexes()
            choice = scheduler.choose(index.configuration(), redexes)
            return None if choice is None else redexes[choice]

        return RunReport((_run_sequential(cfg, pick, scheduler.max_steps, trace),))
    if isinstance(scheduler, Exhaustive):
        return _run_exhaustive(cfg, scheduler.depth, trace)
    raise TypeError(f"unknown scheduler: {scheduler!r}")


def _run_sequential(cfg: Configuration, pick, max_steps: int, trace: bool) -> Outcome:
    """One path: ``pick`` takes one redex of each state's ``ThreadIndex``,
    which each step updates in place."""
    from .threadindex import ThreadIndex  # compiled on the first sequential run only

    index = ThreadIndex(cfg)
    events: list[TraceEvent] = []
    steps = 0
    while True:
        if index.halted is not None:
            return Outcome(index.halted.status, index.halted, tuple(events))
        if not index:
            return Outcome(Status.NORMAL_STUCK, Halt(Status.NORMAL_STUCK), tuple(events))
        if steps >= max_steps:
            return Outcome(Status.MAX_STEPS, Halt(Status.MAX_STEPS), tuple(events))
        redex = pick(index)
        if redex is None:
            raise InteractiveAbort()
        move = index.step(redex)
        if trace:
            events.append(tuple.__new__(TraceEvent, (steps, *move)))  # the fields in order, built in C
        steps += 1


_HOISTED_BASE = "#r"  # '#' cannot appear in a parsed identifier


def _learn_move(table: IdTable, redex: Redex, forms: Sequence[CastProcess], restricted: int) -> tuple:
    """The move of ``redex`` from a state with ``restricted`` restrictions:
    the ids of the threads that replace each participant, flattened (in
    participant order), the restrictions it hoists and the successor's halt
    status.  These depend on the participants' alpha-classes alone, so
    ``forms`` may hold canonical forms.  A hoisted restriction is named
    ``#r<k>``, ``k`` its position in the successor's restrictions, and
    restrictions are hoisted in thread order, as ``_rebuild`` hoists them;
    so a search state's restrictions stand, position by position, for those
    of the configuration it stands for.  No name of a state is ``#r<k>`` for
    ``k`` past its last restriction (restrictions are never dropped), so the
    name is unused there."""
    _, _, results, halted = _effects(redex, [forms[k] for k in redex.participants])
    hoisted: list[tuple[Name, Type]] = []
    halts: list[Halt] = []
    flat: dict[int, list[CastProcess]] = {}
    hoist = lambda _: Name(_HOISTED_BASE, restricted + len(hoisted))
    for k in sorted(results):
        flat[k] = []
        for item in results[k]:
            _flatten_into(item, hoisted, flat[k], hoist, halts)
    halted = halted or (halts[0] if halts else None)
    replaced = tuple(tuple(map(table.intern, flat[k])) for k in redex.participants)
    return replaced, tuple(hoisted), halted.status if halted else None


class _Node:
    """A queued state of the explorer: its threads' ids in thread order, its
    restrictions and halt status, and how it was reached (the parent's
    thread ``i`` took ``option`` of the redex plan).  No configuration is
    kept: a witness's is rebuilt by ``_replay``."""

    __slots__ = ("ids", "restrictions", "status", "depth", "parent", "i", "option")

    def __init__(self, ids, restrictions, status, depth, parent=None, i=0, option=0):
        self.ids, self.restrictions, self.status, self.depth = ids, restrictions, status, depth
        self.parent, self.i, self.option = parent, i, option


def _run_exhaustive(cfg0: Configuration, depth: int, trace: bool) -> RunReport:
    """Breadth-first search over states, one witness per terminal status.

    A state is dropped when its key was seen before: under FIFO order the
    first push of a key is at its least depth.  Keys merge exactly the
    states a permutation of names relates (``configuration_key``), so the
    queue is the first state of each orbit in the queue of the search keyed
    up to alpha-equivalence, in order and with the same parents (the README
    argues it, and what it means for witnesses).  Every state is a ``_Node``:
    its threads' canonical forms interned to ids (one ``IdTable`` per run),
    its restrictions, halt status and a parent pointer.  Its redex plan is
    read from the facts memoised per id.  A step replaces each participant
    in place and keeps the other threads, in order, and the restrictions,
    to which it appends those it hoists; what replaces a participant
    depends on the participants' alpha-classes and, for the names of
    hoisted restrictions, on the number of restrictions alone.  So each move
    is learnt once per run from the participants' forms (``_learn_move``),
    and looked up by their ids (and, for one thread, its kind) and the
    restriction count; the successor's ids are spliced from its parent's.
    A hoisted restriction takes a name by position where the configuration
    takes a fresh one; the key does not read how a name is spelt.  No
    configuration is built while searching: the witnesses' traces and halts
    are read by replaying their paths from ``cfg0``.
    """
    witnesses: dict[Status, _Node] = {}
    table = IdTable()
    forms, facts = table.forms, table.facts
    moves: dict[tuple[int, Union[int, str], int], tuple] = {}
    status = cfg0.halted and cfg0.halted.status
    root = _Node(tuple(map(table.intern, cfg0.threads)), cfg0.restrictions, status, 0)
    seen = {configuration_key(table, root.ids, root.status, root.restrictions)}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        ids = node.ids
        if node.status is not None:
            witnesses.setdefault(node.status, node)
            continue
        threads = [forms[k] for k in ids]
        plan = _plan(threads, [facts[k] for k in ids])
        if not plan:
            witnesses.setdefault(Status.NORMAL_STUCK, node)
            continue
        if node.depth >= depth:
            witnesses.setdefault(Status.DEPTH_EXCEEDED, node)
            continue
        restricted = len(node.restrictions)
        expanded = set()
        for i, option in plan.options():
            # A pair's kind (comm or c-solve) follows from its threads.
            signature = (ids[i], option if isinstance(option, str) else ids[option], restricted)
            if signature in expanded:  # the same move: its successor has the key of the first's
                continue
            expanded.add(signature)
            move = moves.get(signature)
            if move is None:
                move = moves[signature] = _learn_move(table, plan.build(i, option), threads, restricted)
            # Each participant's id is replaced, in place, by the ids that replaced it.
            replaced, hoisted, status = move
            restrictions = node.restrictions + hoisted
            if isinstance(option, str):
                succ_ids = ids[:i] + replaced[0] + ids[i + 1 :]
            elif i < option:
                succ_ids = ids[:i] + replaced[0] + ids[i + 1 : option] + replaced[1] + ids[option + 1 :]
            else:
                succ_ids = ids[:option] + replaced[1] + ids[option + 1 : i] + replaced[0] + ids[i + 1 :]
            key = configuration_key(table, succ_ids, status, restrictions)
            if key not in seen:
                seen.add(key)
                queue.append(_Node(succ_ids, restrictions, status, node.depth + 1, node, i, option))
    outcomes = []
    for status in _STATUS_ORDER:
        if status in witnesses:
            events, halted = _replay(cfg0, witnesses[status])
            outcomes.append(Outcome(status, halted or Halt(status), events if trace else ()))
    return RunReport(tuple(outcomes))


def _replay(cfg: Configuration, node: _Node) -> tuple[tuple[TraceEvent, ...], Optional[Halt]]:
    """The trace of the steps on a node's path from ``cfg``, and the halt of
    the configuration they reach."""
    path: list[_Node] = []
    while node.parent is not None:
        path.append(node)
        node = node.parent
    events = []
    for index, node in enumerate(reversed(path)):
        cfg, event = step(cfg, RedexPlan(cfg.threads, ()).build(node.i, node.option), index)
        events.append(event)
    return tuple(events), cfg.halted


def format_trace(outcome: Outcome) -> list[str]:
    """The wire format consumed by the CLI and the golden tests.

    Each distinct term is rendered once per trace: cast terms are
    hash-consed, so a term that recurs, on one line or on many, is one
    object and one key of the memo.  The text after ``#<n> `` is rendered
    once per distinct move ``(rule, detail, before, after)`` too: a learnt
    move gives the same sides at every step that takes it.
    """
    text = functools.cache(functools.partial(_move_text, functools.cache(print_cast)))
    lines = [f"#{event.index} {text(*event[1:])}" for event in outcome.trace]
    lines.append(f"HALT: {outcome.halt.describe()}")
    return lines
