"""Type consistency and the gradual judgement `env |- P : ok`.

`check` is the gradual checker (consistency at every comparison);
`check_static` is the reference checker that demands syntactic type
equality instead, used by the conservativity suite and `--static`.
Both walk each node exactly once, accumulate every diagnostic instead of
stopping at the first, and log each capability comparison they perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    Capability,
    ChanType,
    Choice,
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


def consistent(t: Type, s: Type) -> bool:
    """True iff the types agree wherever both are concrete.

    dyn is consistent with everything; capability types must have the same
    polarity, the same arity, and pointwise consistent arguments.  The
    relation is reflexive and symmetric but not transitive.
    """
    if isinstance(t, Dyn) or isinstance(s, Dyn):
        return True
    return (
        t.cap is s.cap
        and len(t.args) == len(s.args)
        and all(consistent(a, b) for a, b in zip(t.args, s.args))
    )


def _equal(t: Type, s: Type) -> bool:
    return t == s


@dataclass(frozen=True)
class TypeDiagnostic:
    """One reason a process was rejected."""

    rule: str  # "t-in" | "t-out" | "env-lookup"
    span: Optional[Span]
    subject: Name
    expected: Optional[Type]  # the capability pattern the subject was compared to
    found: Optional[Type]  # the subject's environment type

    def render(self, source: str = "<input>") -> str:
        line, col = (self.span.line, self.span.col) if self.span else (0, 0)
        if self.rule == "env-lookup":
            return f"{source}:{line}:{col}: [env-lookup] undeclared channel {self.subject}"
        return f"{source}:{line}:{col}: [{self.rule}] expected {self.found} ~ {self.expected}"


@dataclass(frozen=True)
class ConsistencyCheck:
    """One capability comparison performed by the checker."""

    rule: str  # "t-in" | "t-out"
    subject: Name
    left: Type  # environment type of the subject
    right: Type  # capability pattern built at the use site
    holds: bool
    span: Optional[Span] = None


@dataclass(frozen=True)
class CheckResult:
    diagnostics: tuple[TypeDiagnostic, ...]
    checks: tuple[ConsistencyCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def check(env: TypeEnv, proc: SurfaceProcess) -> CheckResult:
    """The gradual type system: liberal at dyn, strict at i-versus-o."""
    return _run(env, proc, consistent)


def check_static(env: TypeEnv, proc: SurfaceProcess) -> CheckResult:
    """Reference judgement with syntactic equality in place of consistency."""
    return _run(env, proc, _equal)


def _span_key(d: TypeDiagnostic):
    if d.span is None:
        return (1, 0, 0)
    return (0, d.span.line, d.span.col)


def _run(env: TypeEnv, proc: SurfaceProcess, relate: Callable[[Type, Type], bool]) -> CheckResult:
    diags: list[TypeDiagnostic] = []
    log: list[ConsistencyCheck] = []
    _check(env, proc, relate, diags, log)
    return CheckResult(tuple(sorted(diags, key=_span_key)), tuple(log))


def _lookup(env: TypeEnv, name: Name, span: Optional[Span], diags: list[TypeDiagnostic]) -> Optional[Type]:
    try:
        return env.lookup(name)
    except UnboundNameError:
        diags.append(TypeDiagnostic("env-lookup", span, name, None, None))
        return None


def _check(env, proc, relate, diags, log) -> None:
    """Judge every node in pre-order (left operand first), from a stack."""
    stack = [(env, proc)]
    while stack:
        env, p = stack.pop()
        match p:
            case Nil():
                pass
            case Par(l, r) | Choice(l, r):
                stack += ((env, r), (env, l))
            case Restrict(x, t, body):
                stack.append((env.extend([(x, t)]), body))
            case Replicate(body):
                stack.append((env, body))
            case Input(a, binders, body):
                want = ChanType(Capability.IN, tuple(t for _, t in binders))
                got = _lookup(env, a, p.span, diags)
                if got is not None:
                    holds = relate(got, want)
                    log.append(ConsistencyCheck("t-in", a, got, want, holds, p.span))
                    if not holds:
                        diags.append(TypeDiagnostic("t-in", p.span, a, want, got))
                stack.append((env.extend(binders), body))
            case Output(a, args, body) | ReverseOutput(a, args, body):
                arg_types: list[Type] = []
                complete = True
                for x in args:
                    ty = _lookup(env, x, p.span, diags)
                    if ty is None:
                        complete = False
                    else:
                        arg_types.append(ty)
                got = _lookup(env, a, p.span, diags)
                if got is not None and complete:
                    want = ChanType(Capability.OUT, tuple(arg_types))
                    holds = relate(got, want)
                    log.append(ConsistencyCheck("t-out", a, got, want, holds, p.span))
                    if not holds:
                        diags.append(TypeDiagnostic("t-out", p.span, a, want, got))
                stack.append((env, body))
            case _:
                raise TypeError(f"not a surface process: {p!r}")
