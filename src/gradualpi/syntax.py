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
from functools import partial
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Optional, Union


class Capability(enum.Enum):
    """Channel polarity: input-only or output-only."""

    IN = "i"
    OUT = "o"

    __hash__ = object.__hash__  # two members: identity suffices, and it hashes in C

    def flipped(self) -> "Capability":
        return Capability.OUT if self is Capability.IN else Capability.IN


class Dyn:
    """The dynamic type: the channel's capability is unknown until run time.
    It has one value, ``DYN``, which every ``Dyn()`` returns."""

    __slots__ = ()

    def __new__(cls) -> "Dyn":
        return DYN

    def __repr__(self) -> str:
        return "Dyn()"

    def __str__(self) -> str:
        return "dyn"


DYN = object.__new__(Dyn)


class ChanType(NamedTuple):
    """A capability type: usable for ``cap`` only, carrying ``args``."""

    cap: Capability
    args: tuple["Type", ...] = ()

    def __str__(self) -> str:
        return f"{self.cap.value}({', '.join(str(a) for a in self.args)})"


Type = Union[Dyn, ChanType]


class Name(NamedTuple):
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


class Span(NamedTuple):
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


class _Node:
    """What the node classes of both calculi share (see ``_node``), and
    ``TypeEnv``: a field-by-field repr (``span`` is left out), ``_replace``
    as on a ``NamedTuple``, and no assignment after construction."""

    __slots__ = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        return type(self)(**{n: changes.pop(n, getattr(self, n)) for n in self._fields}, **changes)

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # imported on this error path only

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class TypeEnv(_Node):
    """A finite map from names to types; later bindings shadow earlier ones.

    ``bindings`` is the whole value; ``_types`` indexes it by name (the last
    binding of each name) and takes no part in equality, hashing or repr.
    """

    __slots__ = ("bindings", "_types")
    _fields = _compared = ("bindings",)

    def __init__(self, bindings: tuple[tuple[Name, Type], ...] = ()):
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "_types", dict(bindings))

    def __eq__(self, other):
        return self.bindings == other.bindings if type(other) is TypeEnv else NotImplemented

    def __hash__(self) -> int:
        return hash(self.bindings)

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
# Node classes
# --------------------------------------------------------------------------


# Every cast term is hash-consed (Filliâtre and Conchon, *Type-Safe Modular
# Hash-Consing*, ML Workshop 2006): a constructor returns the one live term
# with its class and fields, so structurally equal terms are one object,
# equality is identity and a term hashes by its address in O(1), however
# deep it is.  The table holds its terms weakly: an entry goes when its term
# is freed.  Types and names are not interned; they are named tuples, so
# they are built, hashed and compared by value, in C.


class _Ref(weakref.ref):
    __slots__ = ("key",)


_terms: dict[tuple, _Ref] = {}  # (class, *fields) -> the live term


def _forget(ref: _Ref, terms: dict[tuple, _Ref] = _terms) -> None:
    found = terms.pop(ref.key)
    if found is not ref:  # a new term took the entry before this callback ran
        terms[ref.key] = found


_INTERNED = """
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

_PLAIN = """
def __new__(cls, {params}):
    term = new(cls)
    {setters}
    return term

def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ({mine}) == ({theirs})

def __hash__(self):
    return hash(({mine}))
"""


def _node(cls=None, *, intern: bool = True):
    """Rebuild ``cls`` as a node class with a slot for each annotated field
    (a field's class attribute is its default): built positionally or by
    keyword through a constructor compiled from the fields.  An interned
    class is built through the intern table and compared by identity; any
    other compares and hashes by every field but ``span``."""
    if cls is None:
        return partial(_node, intern=intern)
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    names = tuple(ns.get("__annotations__", ()))
    defaults = {n: ns.pop(n) for n in names if n in ns}
    compared = tuple(n for n in names if n != "span")
    ns.update(__slots__=names + ("__weakref__",) if intern else names, __match_args__=names, _fields=names, _compared=compared)
    source = (_INTERNED if intern else _PLAIN).format(
        params=", ".join(f"{n}=defaults[{n!r}]" if n in defaults else n for n in names),
        fields="".join(f"{n}, " for n in names),
        setters="\n    ".join(f"set_{n}(term, {n})" for n in names),
        mine="".join(f"self.{n}, " for n in compared),
        theirs="".join(f"other.{n}, " for n in compared),
    )
    scope = {"terms": _terms, "Ref": _Ref, "forget": _forget, "new": object.__new__, "defaults": defaults}
    exec(source, scope)
    for method in ("__new__", "__eq__", "__hash__"):
        if method in scope:
            ns[method] = scope[method]
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
    cls = type(cls.__name__, (_Node,), ns)
    scope.update((f"set_{n}", getattr(cls, n).__set__) for n in names)  # the slots' own setters: the node's refuse
    return cls


# --------------------------------------------------------------------------
# Surface calculus
# --------------------------------------------------------------------------


@_node(intern=False)
class Nil:
    span: Optional[Span] = None


@_node(intern=False)
class Input:
    subject: Name
    binders: tuple[tuple[Name, Type], ...]
    body: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class Output:
    subject: Name
    args: tuple[Name, ...]
    body: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class ReverseOutput:
    """Output that advertises the flipped capability of each sent channel."""

    subject: Name
    args: tuple[Name, ...]
    body: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class Par:
    left: "SurfaceProcess"
    right: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class Choice:
    left: "SurfaceProcess"
    right: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class Restrict:
    name: Name
    type: Type
    body: "SurfaceProcess"
    span: Optional[Span] = None


@_node(intern=False)
class Replicate:
    body: "SurfaceProcess"
    span: Optional[Span] = None


SurfaceProcess = Union[Nil, Input, Output, ReverseOutput, Par, Choice, Restrict, Replicate]


# --------------------------------------------------------------------------
# Cast calculus
# --------------------------------------------------------------------------


@_node
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


@_node
class CNil:
    """The inert process."""


@_node
class CInput:
    subject: CastChannel
    binders: tuple[tuple[Name, Type], ...]
    body: "CastProcess"


@_node
class COutput:
    subject: CastChannel
    args: tuple[CastChannel, ...]
    body: "CastProcess"


@_node
class CPar:
    left: "CastProcess"
    right: "CastProcess"


@_node
class CChoice:
    left: "CastProcess"
    right: "CastProcess"


@_node
class CRestrict:
    name: Name
    type: Type
    body: "CastProcess"


@_node
class CReplicate:
    body: "CastProcess"


@_node
class CTypeError:
    """The terminal process left behind by a failed run-time cast."""


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
