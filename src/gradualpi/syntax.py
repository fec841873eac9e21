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
import itertools
import weakref
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional, Union


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


def fresh_name(like: Name, avoid: Container[Name]) -> Name:
    """Smallest index bump of ``like`` that avoids every name in ``avoid``."""
    k = like.index + 1
    while Name(like.base, k) in avoid:
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


# Every cast term is hash-consed (Filliâtre and Conchon, *Type-Safe Modular
# Hash-Consing*, ML Workshop 2006): a constructor returns the one live term
# with its class and fields, so structurally equal terms are one object,
# equality is identity and a term hashes by its address in O(1), however
# deep it is.  The table holds its terms weakly: an entry goes when its term
# is freed.  Types and names are not interned; they hash by value.


class _Ref(weakref.ref):
    __slots__ = ("key",)


_terms: dict[tuple, _Ref] = {}  # (class, *fields) -> the live term


def _forget(ref: _Ref, terms: dict[tuple, _Ref] = _terms) -> None:
    found = terms.pop(ref.key)
    if found is not ref:  # a new term took the entry before this callback ran
        terms[ref.key] = found


_NEW = """
def __new__(cls, {params}):
    key = (cls, {fields})
    ref = terms.get(key)
    if ref is not None:
        term = ref()
        if term is not None:
            return term
    term = new(cls)
    {setters}
    ref = terms[key] = Ref(term, forget)
    ref.key = key
    return term
"""


def _cast_term(cls=None, **defaults):
    """Make ``cls`` (slots for its fields and a weak reference) a frozen
    dataclass compared by identity and built through the intern table,
    positionally or by keyword; ``defaults`` are its last fields' defaults
    (a class with slots cannot declare them).  The constructor is compiled
    from its fields, as ``dataclass`` compiles an ``__init__``."""
    if cls is None:
        return partial(_cast_term, **defaults)
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    names = [f.name for f in fields(cls)]
    source = _NEW.format(
        params=", ".join(f"{n}=defaults[{n!r}]" if n in defaults else n for n in names),
        fields="".join(f"{n}, " for n in names),
        setters="\n    ".join(f"setattr(term, {n!r}, {n})" for n in names),
    )
    scope = {"terms": _terms, "Ref": _Ref, "forget": _forget, "new": object.__new__, "defaults": defaults}
    scope["setattr"] = object.__setattr__  # the dataclass's own refuses
    exec(source, scope)
    cls.__new__ = scope["__new__"]
    cls.__new__.__qualname__ = f"{cls.__qualname__}.__new__"
    return cls


@_cast_term(casts=())
class CastChannel:
    """A channel name under zero or more casts, outermost frame last.

    Frames produced by cast insertion and by cast resolution always chain
    (each frame's source equals the previous frame's target), so a stack
    reads as a collapsed chain ``a : T0 => T1 => T2``.  Stacks merged by
    substitution keep whatever seam the merge produced.
    """

    __slots__ = ("base", "casts", "__weakref__")
    base: Name
    casts: tuple[tuple[Type, Type], ...]

    @property
    def is_bare(self) -> bool:
        return not self.casts

    def push(self, source: Type, target: Type) -> "CastChannel":
        """Wrap in one more cast frame; trivial frames are dropped."""
        if source == target:
            return self
        return CastChannel(self.base, self.casts + ((source, target),))


@_cast_term
class CNil:
    """The inert process."""

    __slots__ = ("__weakref__",)


@_cast_term
class CInput:
    __slots__ = ("subject", "binders", "body", "__weakref__")
    subject: CastChannel
    binders: tuple[tuple[Name, Type], ...]
    body: "CastProcess"


@_cast_term
class COutput:
    __slots__ = ("subject", "args", "body", "__weakref__")
    subject: CastChannel
    args: tuple[CastChannel, ...]
    body: "CastProcess"


@_cast_term
class CPar:
    __slots__ = ("left", "right", "__weakref__")
    left: "CastProcess"
    right: "CastProcess"


@_cast_term
class CChoice:
    __slots__ = ("left", "right", "__weakref__")
    left: "CastProcess"
    right: "CastProcess"


@_cast_term
class CRestrict:
    __slots__ = ("name", "type", "body", "__weakref__")
    name: Name
    type: Type
    body: "CastProcess"


@_cast_term
class CReplicate:
    __slots__ = ("body", "__weakref__")
    body: "CastProcess"


@_cast_term
class CTypeError:
    """The terminal process left behind by a failed run-time cast."""

    __slots__ = ("__weakref__",)


CastProcess = Union[CNil, CInput, COutput, CPar, CChoice, CRestrict, CReplicate, CTypeError]

Process = Union[SurfaceProcess, CastProcess]


# --------------------------------------------------------------------------
# Traversals
# --------------------------------------------------------------------------


def fold(p: Process, ctx, visit: Callable):
    """Rebuild a term bottom-up with an explicit stack instead of recursion.

    ``visit(node, ctx)`` is called on every node in pre-order (a left
    operand's whole subtree before the right operand) and returns
    ``(build, children)``: ``children`` are ``(child, child_ctx)`` pairs,
    and once their results are built, ``build(*results)`` is the node's
    result.  A node with no children returns its result in place of
    ``build``.
    """
    done: list = []  # results of finished subtrees, in order
    stack: list = [(visit, p, ctx)]  # (visit, node, ctx) to enter; (build, arity, None) to build
    while stack:
        call, node, arg = stack.pop()
        if call is not visit:
            if node == 1:
                done[-1] = call(done[-1])
            else:
                results = done[-node:]
                del done[-node:]
                done.append(call(*results))
            continue
        build, children = visit(node, arg)
        if not children:
            done.append(build)
            continue
        stack.append((build, len(children), None))
        for child, child_ctx in reversed(children):
            stack.append((visit, child, child_ctx))
    return done[0]


def free_occurrences(p: Process) -> Iterator[tuple[Name, Process]]:
    """Each free name occurrence with the prefix it occurs in, in traversal
    order (subject, then arguments, then the body; left operand first)."""
    stack: list[tuple[Process, frozenset[Name]]] = [(p, frozenset())]
    while stack:
        p, bound = stack.pop()
        match p:
            case Nil() | CNil() | CTypeError():
                pass
            case Input(a, binders, body) | CInput(a, binders, body):
                a = a.base if isinstance(p, CInput) else a
                if a not in bound:
                    yield a, p
                stack.append((body, bound | {n for n, _ in binders} if binders else bound))
            case Output(a, args, body) | ReverseOutput(a, args, body):
                for n in (a, *args):
                    if n not in bound:
                        yield n, p
                stack.append((body, bound))
            case COutput(c, args, body):
                for n in (c.base, *(x.base for x in args)):
                    if n not in bound:
                        yield n, p
                stack.append((body, bound))
            case Par(l, r) | Choice(l, r) | CPar(l, r) | CChoice(l, r):
                stack += ((r, bound), (l, bound))
            case Restrict(x, _, body) | CRestrict(x, _, body):
                stack.append((body, bound | {x}))
            case Replicate(body) | CReplicate(body):
                stack.append((body, bound))
            case _:
                raise TypeError(f"not a process: {p!r}")


def free_names(p: Process) -> frozenset[Name]:
    """Names with at least one occurrence not bound by an input or restriction."""
    return frozenset(n for n, _ in free_occurrences(p))


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
    return fold(p, dict(mapping), _subst)


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
    """The binders, renamed where they would capture a replacement, the body
    with those renamings applied, and the mapping that applies under them."""
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
            body = substitute(body, {n: CastChannel(fresh)})
            out.append((fresh, t))
        else:
            out.append((n, t))
    return tuple(out), body, inner


def _subst(p: CastProcess, mapping: dict[Name, CastChannel]):
    if not mapping:
        return p, ()
    match p:
        case CNil() | CTypeError():
            return p, ()
        case COutput(c, args, body):
            subject = _subst_chan(c, mapping)
            return partial(COutput, subject, tuple(_subst_chan(a, mapping) for a in args)), ((body, mapping),)
        case CInput(c, binders, body):
            binders2, body2, inner = _subst_binders(binders, body, mapping)
            return partial(CInput, _subst_chan(c, mapping), binders2), ((body2, inner),)
        case CRestrict(x, t, body):
            binders2, body2, inner = _subst_binders(((x, t),), body, mapping)
            return partial(CRestrict, binders2[0][0], t), ((body2, inner),)
        case CPar(l, r) | CChoice(l, r):
            return type(p), ((l, mapping), (r, mapping))
        case CReplicate(body):
            return CReplicate, ((body, mapping),)
    raise TypeError(f"not a cast process: {p!r}")


# --------------------------------------------------------------------------
# Canonical bound-name renaming (alpha-equivalence and state hashing)
# --------------------------------------------------------------------------

_CANON_BASE = "#b"  # '#' cannot appear in a parsed identifier


def canonical(p: Process) -> Process:
    """Rename bound names to position-determined ones, in traversal order.

    Two processes are alpha-equivalent iff their canonical forms are equal.
    """
    counter = itertools.count()

    def name(x, env: dict[Name, Name]):
        if isinstance(x, CastChannel):
            return CastChannel(env.get(x.base, x.base), x.casts)
        return env.get(x, x)

    def bind(binders, env: dict[Name, Name]):
        out = []
        for n, t in binders:
            fresh = Name(_CANON_BASE, next(counter))
            env = {**env, n: fresh}
            out.append((fresh, t))
        return tuple(out), env

    def visit(p: Process, env: dict[Name, Name]):
        match p:
            case Nil() | CNil() | CTypeError():
                return p, ()  # no names; equality ignores the span
            case Input(a, binders, body) | CInput(a, binders, body):
                subject = name(a, env)
                binders, env = bind(binders, env)
                return partial(type(p), subject, binders), ((body, env),)
            case Output(a, args, body) | ReverseOutput(a, args, body) | COutput(a, args, body):
                return partial(type(p), name(a, env), tuple(name(x, env) for x in args)), ((body, env),)
            case Par(l, r) | CPar(l, r) | Choice(l, r) | CChoice(l, r):
                return type(p), ((l, env), (r, env))
            case Restrict(x, t, body) | CRestrict(x, t, body):
                binders, env = bind(((x, t),), env)
                return partial(type(p), binders[0][0], t), ((body, env),)
            case Replicate(body) | CReplicate(body):
                return type(p), ((body, env),)
        raise TypeError(f"not a process: {p!r}")

    return fold(p, {}, visit)


def alpha_equal(p: Process, q: Process) -> bool:
    """True iff the processes differ only in bound names.

    Cast stacks and type annotations compare syntactically.
    """
    return canonical(p) == canonical(q)
