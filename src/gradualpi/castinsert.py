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

from dataclasses import dataclass
from typing import Optional

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
)


def reverse_type(t: Type) -> Type:
    """Flip the top-level capability; argument types are left untouched.

    dyn is its own reverse: a capability unknown at compile time stays
    unknown when advertised in the opposite direction.
    """
    if isinstance(t, Dyn):
        return t
    return ChanType(t.cap.flipped(), t.args)


@dataclass(frozen=True)
class CastSite:
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


@dataclass(frozen=True)
class CompilationOutput:
    proc: CastProcess
    sites: tuple[CastSite, ...]


def insert_casts(env: TypeEnv, proc: SurfaceProcess) -> CompilationOutput:
    """Compile a surface process; the caller must have type checked it."""
    sites: list[CastSite] = []
    try:
        out = _compile(env, proc, sites)
    except UnboundNameError as exc:
        raise ValueError(f"insert_casts requires a type-checked process: {exc}") from exc
    return CompilationOutput(out, tuple(sites))


def _compile(env: TypeEnv, p: SurfaceProcess, sites: list[CastSite]) -> CastProcess:
    if isinstance(p, (Par, Choice)):
        # The right spine of a chain, without recursion: operands compile
        # left to right (the order of the site log), then fold back up.
        spine = []
        while isinstance(p, (Par, Choice)):
            spine.append((CPar if isinstance(p, Par) else CChoice, _compile(env, p.left, sites)))
            p = p.right
        out = _compile(env, p, sites)
        for node, left in reversed(spine):
            out = node(left, out)
        return out
    match p:
        case Nil():
            return CNil()
        case Restrict(x, t, body):
            return CRestrict(x, t, _compile(env.extend([(x, t)]), body, sites))
        case Replicate(body):
            return CReplicate(_compile(env, body, sites))
        case Input(a, binders, body):
            source = env.lookup(a)
            target = ChanType(Capability.IN, tuple(t for _, t in binders))
            sites.append(CastSite(p.span, a, source, target))
            subject = CastChannel(a).push(source, target)
            return CInput(subject, binders, _compile(env.extend(binders), body, sites))
        case Output(a, args, body):
            source = env.lookup(a)
            target = ChanType(Capability.OUT, tuple(env.lookup(x) for x in args))
            sites.append(CastSite(p.span, a, source, target))
            subject = CastChannel(a).push(source, target)
            return COutput(subject, tuple(CastChannel(x) for x in args), _compile(env, body, sites))
        case ReverseOutput(a, args, body):
            source = env.lookup(a)
            target = ChanType(Capability.OUT, tuple(reverse_type(env.lookup(x)) for x in args))
            sites.append(CastSite(p.span, a, source, target))
            subject = CastChannel(a).push(source, target)
            return COutput(subject, tuple(CastChannel(x) for x in args), _compile(env, body, sites))
    raise TypeError(f"not a surface process: {p!r}")


def erase_casts(p: CastProcess) -> SurfaceProcess:
    """Strip every cast; the inverse direction of compilation.

    Reverse outputs never reappear (they were lowered), and typeError has
    no surface counterpart.
    """
    if isinstance(p, (CPar, CChoice)):
        spine = []  # the right spine of a chain, without recursion
        while isinstance(p, (CPar, CChoice)):
            spine.append((Par if isinstance(p, CPar) else Choice, erase_casts(p.left)))
            p = p.right
        out = erase_casts(p)
        for node, left in reversed(spine):
            out = node(left, out)
        return out
    match p:
        case CNil():
            return Nil()
        case CInput(c, binders, body):
            return Input(c.base, binders, erase_casts(body))
        case COutput(c, args, body):
            return Output(c.base, tuple(a.base for a in args), erase_casts(body))
        case CRestrict(x, t, body):
            return Restrict(x, t, erase_casts(body))
        case CReplicate(body):
            return Replicate(erase_casts(body))
        case CTypeError():
            raise ValueError("typeError has no surface form")
    raise TypeError(f"not a cast process: {p!r}")
