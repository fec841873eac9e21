"""Compilation of well-typed surface processes into the cast calculus.

A cast is inserted wherever the checker compared two types by consistency:
input subjects are cast from their environment type to the input capability
built from the binder annotations, output subjects to the output capability
built from the argument types.  A reverse output casts to the *reversed*
argument types and is lowered to an ordinary output.  Casts whose two ends
are syntactically equal are elided but still logged, so a front end can
display every optimism site.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .syntax import (
    Capability,
    CastChannel,
    CastProcess,
    ChanType,
    Choice,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
    CTypeError,
    Dyn,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Replicate,
    Restrict,
    ReverseOutput,
    Span,
    SurfaceProcess,
    Type,
    TypeEnv,
    UnboundNameError,
    fold,
)


def reverse_type(t: Type) -> Type:
    """Flip the top-level capability; argument types are left untouched.

    dyn is its own reverse: a capability unknown at compile time stays
    unknown when advertised in the opposite direction.
    """
    if isinstance(t, Dyn):
        return t
    return ChanType(t.cap.flipped(), t.args)


class CastSite(NamedTuple):
    """One consistency site and the cast it induced (possibly elided)."""

    span: Optional[Span]
    subject: Name
    source: Type
    target: Type

    @property
    def trivial(self) -> bool:
        return self.source == self.target

    def render(self) -> str:
        line, col = (self.span.line, self.span.col) if self.span else (0, 0)
        note = " (elided-trivial)" if self.trivial else ""
        return f"{line}:{col}: {self.subject} : {self.source} => {self.target}{note}"


class CompilationOutput(NamedTuple):
    proc: CastProcess
    sites: tuple[CastSite, ...]


def insert_casts(env: TypeEnv, proc: SurfaceProcess) -> CompilationOutput:
    """Compile a surface process; the caller must have type checked it."""
    sites: list[CastSite] = []
    try:
        out = fold(proc, env, partial(_compile, sites))
    except UnboundNameError as exc:
        raise ValueError(f"insert_casts requires a type-checked process: {exc}") from exc
    return CompilationOutput(out, tuple(sites))


def _compile(sites: list[CastSite], p: SurfaceProcess, env: TypeEnv):
    """One node of compilation, for ``fold``: sites are logged in pre-order."""
    match p:
        case Nil():
            return CNil(), ()
        case Par(l, r) | Choice(l, r):
            return (CPar if isinstance(p, Par) else CChoice), ((l, env), (r, env))
        case Restrict(x, t, body):
            return partial(CRestrict, x, t), ((body, env.extend([(x, t)])),)
        case Replicate(body):
            return CReplicate, ((body, env),)
        case Input(a, binders, body):
            source = env.lookup(a)
            target = ChanType(Capability.IN, tuple(t for _, t in binders))
            sites.append(CastSite(p.span, a, source, target))
            subject = CastChannel(a).push(source, target)
            return partial(CInput, subject, binders), ((body, env.extend(binders)),)
        case Output(a, args, body) | ReverseOutput(a, args, body):
            source = env.lookup(a)
            arg_types = (env.lookup(x) for x in args)
            if isinstance(p, ReverseOutput):
                arg_types = map(reverse_type, arg_types)
            target = ChanType(Capability.OUT, tuple(arg_types))
            sites.append(CastSite(p.span, a, source, target))
            subject = CastChannel(a).push(source, target)
            return partial(COutput, subject, tuple(CastChannel(x) for x in args)), ((body, env),)
    raise TypeError(f"not a surface process: {p!r}")


def _erase(p: CastProcess, _):
    match p:
        case CNil():
            return Nil(), ()
        case CPar(l, r) | CChoice(l, r):
            return (Par if isinstance(p, CPar) else Choice), ((l, None), (r, None))
        case CInput(c, binders, body):
            return partial(Input, c.base, binders), ((body, None),)
        case COutput(c, args, body):
            return partial(Output, c.base, tuple(a.base for a in args)), ((body, None),)
        case CRestrict(x, t, body):
            return partial(Restrict, x, t), ((body, None),)
        case CReplicate(body):
            return Replicate, ((body, None),)
        case CTypeError():
            raise ValueError("typeError has no surface form")
    raise TypeError(f"not a cast process: {p!r}")


def erase_casts(p: CastProcess) -> SurfaceProcess:
    """Strip every cast; the inverse direction of compilation.

    Reverse outputs never reappear (they were lowered), and typeError has
    no surface counterpart.
    """
    return fold(p, None, _erase)
