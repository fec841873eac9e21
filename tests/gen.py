"""Seeded random generators shared by the property suites."""

from __future__ import annotations

import random
from typing import Optional

from gradualpi.syntax import (
    Capability,
    CastChannel,
    ChanType,
    Choice,
    DYN,
    Dyn,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Replicate,
    Restrict,
    ReverseOutput,
    SurfaceProcess,
    Type,
    TypeEnv,
)

# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------


def random_type(rng: random.Random, depth: int = 2, allow_dyn: bool = True) -> Type:
    if allow_dyn and rng.random() < 0.25:
        return DYN
    cap = Capability.IN if rng.random() < 0.5 else Capability.OUT
    if depth == 0:
        return ChanType(cap, ())
    arity = rng.choice((0, 0, 1, 1, 2))
    return ChanType(cap, tuple(random_type(rng, depth - 1, allow_dyn) for _ in range(arity)))


def random_subject_chain(rng: random.Random, cap: Capability, depth: int) -> tuple[CastChannel, int]:
    """A cast stack of the shape cast insertion plus substitution produce.

    The outermost frame targets ``cap``; every concrete entry of that
    polarity keeps the same arity (as consistency guarantees); dyn entries
    may appear anywhere; an opposite-polarity entry may terminate the chain
    (the run-time failure case).
    """
    arity = rng.choice((0, 1, 1, 2))
    top = ChanType(cap, tuple(random_type(rng, 1) for _ in range(arity)))
    chain: list[Type] = [top]
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.4:
            chain.append(DYN)
        elif roll < 0.85:
            chain.append(ChanType(cap, tuple(random_type(rng, 1) for _ in range(arity))))
        else:
            wrong = Capability.IN if cap is Capability.OUT else Capability.OUT
            chain.append(ChanType(wrong, tuple(random_type(rng, 1) for _ in range(rng.choice((0, 1))))))
            break
    chain.reverse()
    frames = tuple(
        (chain[k], chain[k + 1]) for k in range(len(chain) - 1) if chain[k] != chain[k + 1]
    )
    return CastChannel(Name("c"), frames), arity


# --------------------------------------------------------------------------
# Arbitrary surface processes (round-trip and alpha-equivalence fodder)
# --------------------------------------------------------------------------

_FREE_POOL = tuple(Name(b) for b in ("a", "b", "c", "x", "y", "m"))


def _pick_name(rng: random.Random, scope: list[Name], free_pool: tuple[Name, ...]) -> Name:
    if scope and rng.random() < 0.5:
        return rng.choice(scope)
    return rng.choice(free_pool)


def _binder_name(
    rng: random.Random, taken: set[Name], binder_pool: Optional[tuple[Name, ...]] = None
) -> Name:
    while True:
        if binder_pool:
            name = rng.choice(binder_pool)
        else:
            name = Name(rng.choice("xyzuv"), rng.choice((0, 0, 0, 1, 2)))
        if name not in taken:
            return name


def random_surface(
    rng: random.Random,
    fuel: int = 6,
    scope: Optional[list[Name]] = None,
    free_pool: tuple[Name, ...] = _FREE_POOL,
    binder_pool: Optional[tuple[Name, ...]] = None,
) -> SurfaceProcess:
    """A random surface term; free names come from `free_pool`, binders from
    `binder_pool` (default: `x`..`v` with index 0 to 2)."""
    scope = list(scope or ())
    if fuel <= 0:
        return Nil()

    def sub(fuel: int, scope: list[Name]) -> SurfaceProcess:
        return random_surface(rng, fuel, scope, free_pool, binder_pool)

    roll = rng.random()
    if roll < 0.12:
        return Nil()
    if roll < 0.30:
        node = Par if rng.random() < 0.5 else Choice
        return node(sub(fuel // 2, scope), sub(fuel // 2, scope))
    if roll < 0.38:
        return Replicate(sub(fuel - 1, scope))
    if roll < 0.50:
        name = _binder_name(rng, set(), binder_pool)
        return Restrict(name, random_type(rng), sub(fuel - 1, scope + [name]))
    if roll < 0.72:
        taken: set[Name] = set()
        binders = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            name = _binder_name(rng, taken, binder_pool)
            taken.add(name)
            binders.append((name, random_type(rng)))
        body = sub(fuel - 1, scope + [n for n, _ in binders])
        return Input(_pick_name(rng, scope, free_pool), tuple(binders), body)
    node = Output if rng.random() < 0.7 else ReverseOutput
    args = tuple(_pick_name(rng, scope, free_pool) for _ in range(rng.choice((0, 1, 1, 2))))
    return node(_pick_name(rng, scope, free_pool), args, sub(fuel - 1, scope))


# --------------------------------------------------------------------------
# Arbitrary declared programs (often ill-typed; for checker agreement)
# --------------------------------------------------------------------------


def random_program(rng: random.Random, dyn_free: bool) -> tuple[TypeEnv, SurfaceProcess]:
    names = [Name(b) for b in "abcde"[: rng.randint(2, 5)]]
    env = TypeEnv(tuple((n, random_type(rng, 2, allow_dyn=not dyn_free)) for n in names))

    def gen(fuel: int, scope: list[Name]) -> SurfaceProcess:
        if fuel <= 0:
            return Nil()
        roll = rng.random()
        pool = names + scope
        if roll < 0.15:
            return Nil()
        if roll < 0.30:
            node = Par if rng.random() < 0.5 else Choice
            return node(gen(fuel // 2, scope), gen(fuel // 2, scope))
        if roll < 0.38:
            name = _binder_name(rng, set(pool))
            return Restrict(name, random_type(rng, 2, allow_dyn=not dyn_free), gen(fuel - 1, scope + [name]))
        if roll < 0.44:
            return Replicate(gen(fuel - 1, scope))
        if roll < 0.72:
            taken: set[Name] = set()
            binders = []
            for _ in range(rng.choice((0, 1, 1, 2))):
                name = _binder_name(rng, taken | set(pool))
                taken.add(name)
                binders.append((name, random_type(rng, 2, allow_dyn=not dyn_free)))
            return Input(rng.choice(pool), tuple(binders), gen(fuel - 1, scope + [n for n, _ in binders]))
        args = tuple(rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 2))))
        return Output(rng.choice(pool), args, gen(fuel - 1, scope))

    return env, gen(rng.randint(1, 6), [])


# --------------------------------------------------------------------------
# Guided well-typed parties
# --------------------------------------------------------------------------

# Concrete payload-value types; every party may declare value channels at
# these types, so a matching output argument can always be found.
_VALUE_TYPES: tuple[Type, ...] = (
    ChanType(Capability.OUT, ()),
    ChanType(Capability.IN, ()),
    ChanType(Capability.OUT, (ChanType(Capability.OUT, ()),)),
)


def make_world(rng: random.Random, size: int = 3) -> dict[Name, tuple[Type, ...]]:
    """Shared free channels and the payload types they carry."""
    world = {}
    for k in range(size):
        arity = rng.choice((0, 1, 1, 2))
        world[Name(f"w{k}")] = tuple(rng.choice(_VALUE_TYPES) for _ in range(arity))
    return world


def random_party(
    rng: random.Random,
    world: dict[Name, tuple[Type, ...]],
    allow_dyn: bool = False,
    allow_reverse: bool = False,
    fuel: int = 5,
    allow_new: bool = False,
) -> tuple[TypeEnv, SurfaceProcess]:
    """One well-typed party over the shared world.

    With ``allow_dyn`` off, each world channel gets one fixed polarity per
    party, so the party also checks under the equality-based reference
    judgement.  With it on, some channels are declared dyn and may be used
    in both polarities.  With ``allow_new`` on, a replicated body or a
    choice branch is sometimes put under a ``new`` of a dyn channel with a
    world channel's payload, spelt like that world channel half the time.
    """
    values = {Name(f"v{k}"): t for k, t in enumerate(_VALUE_TYPES)}
    decls: dict[Name, Type] = {}
    for channel, payload in world.items():
        if allow_dyn and rng.random() < 0.4:
            decls[channel] = DYN
        else:
            cap = Capability.IN if rng.random() < 0.5 else Capability.OUT
            decls[channel] = ChanType(cap, payload)
    used: set[Name] = set()

    def value_arg(ty: Type, scope: dict[Name, Type]) -> Optional[Name]:
        local = [n for n, t in sorted(scope.items()) if t == ty]
        if local and rng.random() < 0.5:
            return rng.choice(local)
        for candidate, t in values.items():
            if t == ty:
                decls.setdefault(candidate, t)
                used.add(candidate)
                return candidate
        return rng.choice(local) if local else None

    def under_new(fuel: int, scope: dict[Name, Type], local: dict[Name, tuple[Type, ...]]) -> SurfaceProcess:
        """A replicated body or choice branch, with ``allow_new`` sometimes
        under a ``new``; ``local`` maps restricted channels to payloads."""
        if allow_new and rng.random() < 0.25:
            like = rng.choice(sorted(world))
            name = like if rng.random() < 0.5 else Name(f"n{len(local)}")
            return Restrict(name, DYN, gen(fuel, scope, {**local, name: world[like]}))
        return gen(fuel, scope, local)

    def gen(fuel: int, scope: dict[Name, Type], local: dict[Name, tuple[Type, ...]]) -> SurfaceProcess:
        if fuel <= 0:
            return Nil()
        roll = rng.random()
        if roll < 0.10:
            return Nil()
        if roll < 0.28:
            if rng.random() < 0.5:
                return Par(gen(fuel // 2, scope, local), gen(fuel // 2, scope, local))
            return Choice(under_new(fuel // 2, scope, local), under_new(fuel // 2, scope, local))
        if roll < 0.33:
            return Replicate(under_new(fuel - 1, scope, local))
        channel = rng.choice(sorted(world.keys() | local.keys()))
        if channel in local:
            payload, declared = local[channel], DYN
        else:
            payload, declared = world[channel], decls[channel]
            used.add(channel)
        if isinstance(declared, Dyn):
            want_input = rng.random() < 0.5
        else:
            want_input = declared.cap is Capability.IN
        if want_input:
            taken = set(scope) | set(decls) | set(values)
            binders = []
            for ty in payload:
                name = _binder_name(rng, taken)
                taken.add(name)
                binders.append((name, ty))
            inner = dict(scope)
            inner.update(binders)
            return Input(channel, tuple(binders), gen(fuel - 1, inner, local))
        args = []
        for ty in payload:
            arg = value_arg(ty, scope)
            if arg is None:
                return Nil()
            args.append(arg)
        node = ReverseOutput if allow_reverse and rng.random() < 0.3 else Output
        return node(channel, tuple(args), gen(fuel - 1, scope, local))

    proc = gen(fuel, {}, {})
    bindings = tuple(sorted((n, t) for n, t in decls.items() if n in used))
    return TypeEnv(bindings), proc


def random_party_set(
    rng: random.Random, allow_dyn: bool = False, allow_reverse: bool = False, allow_new: bool = False
) -> list[tuple[TypeEnv, SurfaceProcess]]:
    world = make_world(rng)
    return [
        random_party(rng, world, allow_dyn=allow_dyn, allow_reverse=allow_reverse, allow_new=allow_new)
        for _ in range(rng.randint(1, 3))
    ]


# --------------------------------------------------------------------------
# Type-position enumeration for the monotonicity suite
# --------------------------------------------------------------------------


def _ty_size(t: Type) -> int:
    if isinstance(t, Dyn):
        return 1
    return 1 + sum(_ty_size(a) for a in t.args)


def _ty_erase(t: Type, k: int) -> tuple[Type, int]:
    """Replace the k-th pre-order subtree with dyn; returns remaining k."""
    if k == 0:
        return DYN, -1
    k -= 1
    if isinstance(t, Dyn):
        return t, k
    args = list(t.args)
    for pos, a in enumerate(args):
        if k < 0:
            break
        args[pos], k = _ty_erase(a, k)
    return ChanType(t.cap, tuple(args)), k


def count_type_positions(env: TypeEnv, proc: SurfaceProcess) -> int:
    total = sum(_ty_size(t) for _, t in env.bindings)

    def walk(p: SurfaceProcess) -> int:
        match p:
            case Nil():
                return 0
            case Input(_, binders, body):
                return sum(_ty_size(t) for _, t in binders) + walk(body)
            case Output(_, _, body) | ReverseOutput(_, _, body):
                return walk(body)
            case Par(l, r) | Choice(l, r):
                return walk(l) + walk(r)
            case Restrict(_, t, body):
                return _ty_size(t) + walk(body)
            case Replicate(body):
                return walk(body)
        raise TypeError(p)

    return total + walk(proc)


def erase_type_position(env: TypeEnv, proc: SurfaceProcess, k: int) -> tuple[TypeEnv, SurfaceProcess]:
    """Program with the k-th type subtree (env entries first, then annotations) dynamized."""
    bindings = []
    for name, t in env.bindings:
        if k >= 0:
            t, k = _ty_erase(t, k)
        bindings.append((name, t))

    def walk(p: SurfaceProcess) -> SurfaceProcess:
        nonlocal k
        match p:
            case Nil():
                return p
            case Input(a, binders, body):
                out = []
                for n, t in binders:
                    if k >= 0:
                        t, k = _ty_erase(t, k)
                    out.append((n, t))
                return Input(a, tuple(out), walk(body))
            case Output(a, args, body):
                return Output(a, args, walk(body))
            case ReverseOutput(a, args, body):
                return ReverseOutput(a, args, walk(body))
            case Par(l, r):
                return Par(walk(l), walk(r))
            case Choice(l, r):
                return Choice(walk(l), walk(r))
            case Restrict(x, t, body):
                if k >= 0:
                    t, k = _ty_erase(t, k)
                return Restrict(x, t, walk(body))
            case Replicate(body):
                return Replicate(walk(body))
        raise TypeError(p)

    return TypeEnv(tuple(bindings)), walk(proc)
