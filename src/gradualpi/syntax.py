"""Core syntax: names, capability types, and the two process calculi.

Two process families live here.  The surface calculus is what programs are
written in: it has a tagged reverse output and no casts.  The cast calculus
(node classes prefixed with ``C``) is what surface programs compile to and
what the runtime executes: subjects and output arguments are cast channels,
reverse outputs are gone, and a terminal ``typeError`` process exists.
Names, types, and type environments are shared.  Every value is immutable,
so values can be shared freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union


class Capability(enum.Enum):
    """Channel polarity: input-only or output-only."""

    IN = "i"
    OUT = "o"

    def flipped(self) -> "Capability":
        return Capability.OUT if self is Capability.IN else Capability.IN


@dataclass(frozen=True)
class Dyn:
    """The dynamic type: the channel's capability is unknown until run time."""

    def __str__(self) -> str:
        return "dyn"


DYN = Dyn()


@dataclass(frozen=True)
class ChanType:
    """A capability type: usable for ``cap`` only, carrying ``args``."""

    cap: Capability
    args: tuple["Type", ...] = ()

    def __str__(self) -> str:
        return f"{self.cap.value}({', '.join(str(a) for a in self.args)})"


Type = Union[Dyn, ChanType]


@dataclass(frozen=True, order=True)
class Name:
    """A channel name.

    ``index`` is bumped only by alpha-renaming; user-written names always
    have index 0.  Two names are equal iff both fields match.
    """

    base: str
    index: int = 0

    def __str__(self) -> str:
        return self.base if self.index == 0 else f"{self.base}'{self.index}"


def fresh_name(like: Name, avoid: Iterable[Name]) -> Name:
    """Smallest index bump of ``like`` that avoids every name in ``avoid``."""
    taken = set(avoid)
    k = like.index + 1
    while Name(like.base, k) in taken:
        k += 1
    return Name(like.base, k)


@dataclass(frozen=True)
class Span:
    """Half-open source range (1-based lines and columns)."""

    line: int
    col: int
    end_line: int
    end_col: int


class UnboundNameError(LookupError):
    """Lookup of a channel that the environment does not bind."""

    def __init__(self, name: Name):
        super().__init__(f"channel {name} is not bound in the environment")
        self.name = name


@dataclass(frozen=True)
class TypeEnv:
    """A finite map from names to types; later bindings shadow earlier ones.

    ``bindings`` is the whole value; ``_types`` indexes it by name (the last
    binding of each name) and takes no part in equality, hashing or repr.
    """

    bindings: tuple[tuple[Name, Type], ...] = ()
    _types: dict[Name, Type] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_types", dict(self.bindings))

    def lookup(self, name: Name) -> Type:
        try:
            return self._types[name]
        except KeyError:
            raise UnboundNameError(name) from None

    def extend(self, pairs: Iterable[tuple[Name, Type]]) -> "TypeEnv":
        """The receiver's index is copied without rehashing; only ``pairs`` are added."""
        pairs = tuple(pairs)
        types = self._types.copy()
        types.update(pairs)
        env = object.__new__(TypeEnv)
        object.__setattr__(env, "bindings", self.bindings + pairs)
        object.__setattr__(env, "_types", types)
        return env


# --------------------------------------------------------------------------
# Surface calculus
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Nil:
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Input:
    subject: Name
    binders: tuple[tuple[Name, Type], ...]
    body: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Output:
    subject: Name
    args: tuple[Name, ...]
    body: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ReverseOutput:
    """Output that advertises the flipped capability of each sent channel."""

    subject: Name
    args: tuple[Name, ...]
    body: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Par:
    left: "SurfaceProcess"
    right: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Choice:
    left: "SurfaceProcess"
    right: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Restrict:
    name: Name
    type: Type
    body: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Replicate:
    body: "SurfaceProcess"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


SurfaceProcess = Union[Nil, Input, Output, ReverseOutput, Par, Choice, Restrict, Replicate]


# --------------------------------------------------------------------------
# Cast calculus
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CastChannel:
    """A channel name under zero or more casts, outermost frame last.

    Frames produced by cast insertion and by cast resolution always chain
    (each frame's source equals the previous frame's target), so a stack
    reads as a collapsed chain ``a : T0 => T1 => T2``.  Stacks merged by
    substitution keep whatever seam the merge produced.
    """

    base: Name
    casts: tuple[tuple[Type, Type], ...] = ()

    @property
    def is_bare(self) -> bool:
        return not self.casts

    def push(self, source: Type, target: Type) -> "CastChannel":
        """Wrap in one more cast frame; trivial frames are dropped."""
        if source == target:
            return self
        return CastChannel(self.base, self.casts + ((source, target),))


@dataclass(frozen=True)
class CNil:
    """The inert process."""


@dataclass(frozen=True)
class CInput:
    subject: CastChannel
    binders: tuple[tuple[Name, Type], ...]
    body: "CastProcess"


@dataclass(frozen=True)
class COutput:
    subject: CastChannel
    args: tuple[CastChannel, ...]
    body: "CastProcess"


@dataclass(frozen=True)
class CPar:
    left: "CastProcess"
    right: "CastProcess"


@dataclass(frozen=True)
class CChoice:
    left: "CastProcess"
    right: "CastProcess"


@dataclass(frozen=True)
class CRestrict:
    name: Name
    type: Type
    body: "CastProcess"


@dataclass(frozen=True)
class CReplicate:
    body: "CastProcess"


@dataclass(frozen=True)
class CTypeError:
    """The terminal process left behind by a failed run-time cast."""


CastProcess = Union[CNil, CInput, COutput, CPar, CChoice, CRestrict, CReplicate, CTypeError]

Process = Union[SurfaceProcess, CastProcess]


# --------------------------------------------------------------------------
# Free names
# --------------------------------------------------------------------------


def free_names(p: Process) -> frozenset[Name]:
    """Names with at least one occurrence not bound by an input or restriction."""
    if isinstance(p, (Par, Choice, CPar, CChoice)):
        names: set[Name] = set()
        while isinstance(p, (Par, Choice, CPar, CChoice)):  # the right spine, without recursion
            names |= free_names(p.left)
            p = p.right
        return frozenset(names | free_names(p))
    match p:
        case Nil() | CNil() | CTypeError():
            return frozenset()
        case Input(a, binders, body):
            bound = frozenset(n for n, _ in binders)
            return frozenset((a,)) | (free_names(body) - bound)
        case CInput(c, binders, body):
            bound = frozenset(n for n, _ in binders)
            return frozenset((c.base,)) | (free_names(body) - bound)
        case Output(a, args, body) | ReverseOutput(a, args, body):
            return frozenset((a, *args)) | free_names(body)
        case COutput(c, args, body):
            return frozenset((c.base, *(a.base for a in args))) | free_names(body)
        case Restrict(x, _, body) | CRestrict(x, _, body):
            return free_names(body) - frozenset((x,))
        case Replicate(body) | CReplicate(body):
            return free_names(body)
    raise TypeError(f"not a process: {p!r}")


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------


def substitute(p: CastProcess, mapping: Mapping[Name, CastChannel]) -> CastProcess:
    """Capture-avoiding simultaneous substitution of cast channels for names.

    When a substituted name sits under an existing cast stack, the incoming
    channel's stack is concatenated below it, yielding stacked casts.
    Binders that would capture a free name of a replacement are renamed by
    bumping their index.
    """
    if not mapping:
        return p
    return _subst(p, dict(mapping))


def _subst_chan(c: CastChannel, mapping: dict[Name, CastChannel]) -> CastChannel:
    r = mapping.get(c.base)
    if r is None:
        return c
    return CastChannel(r.base, r.casts + c.casts)


def _subst_binders(
    binders: tuple[tuple[Name, Type], ...],
    body: CastProcess,
    mapping: dict[Name, CastChannel],
) -> tuple[tuple[tuple[Name, Type], ...], CastProcess, dict[Name, CastChannel]]:
    names = [n for n, _ in binders]
    inner = {k: v for k, v in mapping.items() if k not in names}
    if not inner:
        return binders, body, inner
    clashes = {v.base for v in inner.values()}
    out: list[tuple[Name, Type]] = []
    for pos, (n, t) in enumerate(binders):
        if n in clashes:
            avoid = (
                free_names(body)
                | clashes
                | set(inner)
                | {m for m, _ in binders}
                | {m for m, _ in out}
            )
            fresh = fresh_name(n, avoid)
            body = _subst(body, {n: CastChannel(fresh)})
            out.append((fresh, t))
        else:
            out.append((n, t))
    return tuple(out), body, inner


def _subst(p: CastProcess, mapping: dict[Name, CastChannel]) -> CastProcess:
    match p:
        case CNil() | CTypeError():
            return p
        case COutput(c, args, body):
            return COutput(
                _subst_chan(c, mapping),
                tuple(_subst_chan(a, mapping) for a in args),
                _subst(body, mapping),
            )
        case CInput(c, binders, body):
            binders2, body2, inner = _subst_binders(binders, body, mapping)
            body3 = _subst(body2, inner) if inner else body2
            return CInput(_subst_chan(c, mapping), binders2, body3)
        case CRestrict(x, t, body):
            binders2, body2, inner = _subst_binders(((x, t),), body, mapping)
            body3 = _subst(body2, inner) if inner else body2
            return CRestrict(binders2[0][0], t, body3)
        case CPar(l, r):
            return CPar(_subst(l, mapping), _subst(r, mapping))
        case CChoice(l, r):
            return CChoice(_subst(l, mapping), _subst(r, mapping))
        case CReplicate(body):
            return CReplicate(_subst(body, mapping))
    raise TypeError(f"not a cast process: {p!r}")


# --------------------------------------------------------------------------
# Canonical bound-name renaming (alpha-equivalence and state hashing)
# --------------------------------------------------------------------------

_CANON_BASE = "#b"  # '#' cannot appear in a parsed identifier


def canonical(p: Process) -> Process:
    """Rename bound names to position-determined ones, in traversal order.

    Two processes are alpha-equivalent iff their canonical forms are equal.
    """
    return _canon(p, {}, [0])


def alpha_equal(p: Process, q: Process) -> bool:
    """True iff the processes differ only in bound names.

    Cast stacks and type annotations compare syntactically.
    """
    return canonical(p) == canonical(q)


def _canon_name(n: Name, env: dict[Name, Name]) -> Name:
    return env.get(n, n)


def _canon_bind(n: Name, env: dict[Name, Name], counter: list[int]) -> tuple[Name, dict[Name, Name]]:
    fresh = Name(_CANON_BASE, counter[0])
    counter[0] += 1
    return fresh, {**env, n: fresh}


def _canon(p: Process, env: dict[Name, Name], counter: list[int]) -> Process:
    match p:
        case Nil() | CNil() | CTypeError():
            return p  # no names; equality ignores the span
        case Input(a, binders, body):
            subject = _canon_name(a, env)
            out = []
            for n, t in binders:
                fresh, env = _canon_bind(n, env, counter)
                out.append((fresh, t))
            return Input(subject, tuple(out), _canon(body, env, counter))
        case CInput(c, binders, body):
            subject = CastChannel(_canon_name(c.base, env), c.casts)
            out = []
            for n, t in binders:
                fresh, env = _canon_bind(n, env, counter)
                out.append((fresh, t))
            return CInput(subject, tuple(out), _canon(body, env, counter))
        case Output(a, args, body):
            return Output(
                _canon_name(a, env),
                tuple(_canon_name(x, env) for x in args),
                _canon(body, env, counter),
            )
        case ReverseOutput(a, args, body):
            return ReverseOutput(
                _canon_name(a, env),
                tuple(_canon_name(x, env) for x in args),
                _canon(body, env, counter),
            )
        case COutput(c, args, body):
            return COutput(
                CastChannel(_canon_name(c.base, env), c.casts),
                tuple(CastChannel(_canon_name(a.base, env), a.casts) for a in args),
                _canon(body, env, counter),
            )
        case Par(l, r):
            return Par(_canon(l, env, counter), _canon(r, env, counter))
        case CPar(l, r):
            return CPar(_canon(l, env, counter), _canon(r, env, counter))
        case Choice(l, r):
            return Choice(_canon(l, env, counter), _canon(r, env, counter))
        case CChoice(l, r):
            return CChoice(_canon(l, env, counter), _canon(r, env, counter))
        case Restrict(x, t, body):
            fresh, env = _canon_bind(x, env, counter)
            return Restrict(fresh, t, _canon(body, env, counter))
        case CRestrict(x, t, body):
            fresh, env = _canon_bind(x, env, counter)
            return CRestrict(fresh, t, _canon(body, env, counter))
        case Replicate(body):
            return Replicate(_canon(body, env, counter))
        case CReplicate(body):
            return CReplicate(_canon(body, env, counter))
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
