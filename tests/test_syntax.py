from __future__ import annotations

import dataclasses
import gc
import random

import pytest

from gen import random_surface, random_type
import oracles
from conftest import CORPUS, corpus_run_threads, load
from oracles import all_names, oracle_alpha_equal
from gradualpi.parser import parse
from gradualpi.syntax import (
    Capability,
    CastChannel,
    ChanType,
    Choice,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
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
    Span,
    TypeEnv,
    UnboundNameError,
    _terms,
    alpha_equal,
    canonical,
    free_names,
    free_occurrences,
    fresh_name,
    substitute,
)

T = ChanType(Capability.OUT, ())  # money type used throughout the corpus
a, b, m, r, x, y = (Name(n) for n in "abmrxy")


def bare(n: Name) -> CastChannel:
    return CastChannel(n)


def _to_cast(p):
    """Embed a surface term in the cast calculus for substitution tests."""
    match p:
        case Nil():
            return CNil()
        case Input(subj, binders, body):
            return CInput(bare(subj), binders, _to_cast(body))
        case Output(subj, args, body) | ReverseOutput(subj, args, body):
            return COutput(bare(subj), tuple(bare(n) for n in args), _to_cast(body))
        case Par(l, rr):
            return CPar(_to_cast(l), _to_cast(rr))
        case Choice(l, rr):
            return CChoice(_to_cast(l), _to_cast(rr))
        case Restrict(n, t, body):
            return CRestrict(n, t, _to_cast(body))
        case Replicate(body):
            return CReplicate(_to_cast(body))
    raise TypeError(p)


# --------------------------------------------------------------------------
# free_names
# --------------------------------------------------------------------------


def test_free_names_nil():
    assert free_names(Nil()) == frozenset()


def test_free_names_all_bound():
    proc = Restrict(x, T, Output(x, (x,), Nil()))
    assert free_names(proc) == frozenset()


def test_free_names_output():
    assert free_names(Output(r, (x,), Nil())) == {r, x}


def _naive_free(p, bound=frozenset()):
    """Occurrence walker with explicit scope tracking; independent cross-check."""
    match p:
        case Nil():
            return set()
        case Input(subj, binders, body):
            inner = bound | {n for n, _ in binders}
            return ({subj} - bound) | _naive_free(body, inner)
        case Output(subj, args, body) | ReverseOutput(subj, args, body):
            return ({subj, *args} - bound) | _naive_free(body, bound)
        case Par(l, rr) | Choice(l, rr):
            return _naive_free(l, bound) | _naive_free(rr, bound)
        case Restrict(n, _, body):
            return _naive_free(body, bound | {n})
        case Replicate(body):
            return _naive_free(body, bound)
    raise TypeError(p)


def test_free_names_matches_naive_walker():
    rng = random.Random(7)
    for _ in range(200):
        proc = random_surface(rng)
        assert set(free_names(proc)) == _naive_free(proc)


def _prefix_names(p) -> set[Name]:
    match p:
        case Input(a, _, _):
            return {a}
        case CInput(c, _, _):
            return {c.base}
        case Output(a, args, _) | ReverseOutput(a, args, _):
            return {a, *args}
        case COutput(c, args, _):
            return {c.base, *(x.base for x in args)}
    raise TypeError(p)


def test_free_occurrences_match_the_recursive_scans():
    rng = random.Random(47)
    surface = [random_surface(rng, 8) for _ in range(300)]
    cast = [_to_cast(p) for p in surface] + corpus_run_threads()
    for term in surface + cast:
        occurrences = list(free_occurrences(term))
        assert free_names(term) == oracles.free_names(term)
        assert {n for n, _ in occurrences} == free_names(term)
        assert all(n in _prefix_names(prefix) for n, prefix in occurrences)
    for term in cast:
        assert [n for n, _ in free_occurrences(term)] == list(oracles.free_occurrence_order(term))


# --------------------------------------------------------------------------
# Names and environments
# --------------------------------------------------------------------------


def test_name_equality_needs_both_fields():
    assert Name("x") != Name("x", 1)
    assert Name("x", 1) == Name("x", 1)


def test_fresh_name_bumps_past_avoid_set():
    assert fresh_name(x, {x, Name("x", 1), Name("x", 2)}) == Name("x", 3)


def test_env_lookup_is_an_error_when_unbound():
    env = TypeEnv(((a, T),))
    assert env.lookup(a) == T
    with pytest.raises(UnboundNameError):
        env.lookup(b)


def test_env_extension_shadows():
    env = TypeEnv(((a, T),)).extend([(a, DYN)])
    assert env.lookup(a) == DYN


def test_env_extend_leaves_its_receiver_unchanged():
    base = TypeEnv(((a, T),))
    grown = base.extend([(a, DYN), (b, T)])
    assert base.bindings == ((a, T),) and base.lookup(a) == T
    with pytest.raises(UnboundNameError):
        base.lookup(b)
    assert grown.bindings == ((a, T), (a, DYN), (b, T))
    assert (grown.lookup(a), grown.lookup(b)) == (DYN, T)


def test_env_shadowing_holds_through_deep_nesting():
    types = [T, DYN, ChanType(Capability.IN, (T,))]
    env, chain = TypeEnv(), []
    for k in range(200):
        ty = types[k % 3]
        env = env.extend([(x, ty), (Name("y", k), ty)])
        chain.append(env)
        assert env.lookup(x) == ty
    for k, env in enumerate(chain):  # every outer environment still sees its own binding
        assert env.lookup(x) == types[k % 3] and env.lookup(Name("y", k)) == types[k % 3]
        with pytest.raises(UnboundNameError):
            env.lookup(Name("y", k + 1))


def test_env_equality_and_hash_depend_on_bindings_only():
    rng = random.Random(47)
    for _ in range(100):
        pairs = tuple((rng.choice((a, b, x, Name("x", 1))), random_type(rng)) for _ in range(rng.randint(0, 6)))
        built = TypeEnv()
        for k in range(0, len(pairs), 2):
            built = built.extend(pairs[k : k + 2])
        direct = TypeEnv(pairs)  # as the test generators build them
        assert built == direct and hash(built) == hash(direct) and repr(built) == repr(direct)
        for name in (a, b, x, Name("x", 1), y):
            want = next((t for n, t in reversed(pairs) if n == name), None)
            for env in (built, direct):
                if want is None:
                    with pytest.raises(UnboundNameError):
                        env.lookup(name)
                else:
                    assert env.lookup(name) == want
    assert TypeEnv(((a, T), (a, DYN))) != TypeEnv(((a, DYN),))  # same map, different bindings
    assert repr(TypeEnv(((a, T),))) == f"TypeEnv(bindings=(({a!r}, {T!r}),))"


def test_values_and_records_keep_their_reprs_and_their_order():
    from gradualpi.castinsert import CastSite
    from gradualpi.runtime import Halt, Redex, Seeded, Status
    from gradualpi.typecheck import ConsistencyCheck

    span = Span(1, 2, 3, 4)
    assert repr(Name("x", 1)) == "Name(base='x', index=1)"
    assert repr(ChanType(Capability.OUT, (DYN,))) == "ChanType(cap=<Capability.OUT: 'o'>, args=(Dyn(),))"
    assert repr(span) == "Span(line=1, col=2, end_line=3, end_col=4)"
    assert repr(Redex("comm", (0, 1), a)) == f"Redex(kind='comm', participants=(0, 1), channel={a!r})"
    assert repr(Halt(Status.NORMAL_STUCK)) == "Halt(status=<Status.NORMAL_STUCK: 'normal-stuck'>, failing=None, rule=None)"
    assert repr(Seeded()) == "Seeded(seed=0, max_steps=1000)"
    assert repr(CastSite(span, a, DYN, T)) == f"CastSite(span={span!r}, subject={a!r}, source=Dyn(), target={T!r})"
    check = ConsistencyCheck("t-out", a, DYN, T, True)
    assert repr(check) == f"ConsistencyCheck(rule='t-out', subject={a!r}, left=Dyn(), right={T!r}, holds=True, span=None)"
    assert repr(Input(a, ((x, T),), Nil(span), span)) == f"Input(subject={a!r}, binders=(({x!r}, {T!r}),), body=Nil())"
    assert sorted([Name("b"), Name("a", 2), Name("a"), Name("a", 1)]) == [Name("a"), Name("a", 1), Name("a", 2), Name("b")]
    assert Name("a", 9) < Name("b") and not Name("a", 1) < Name("a", 1)
    assert Dyn() is DYN and ChanType(Capability.IN) == ChanType(Capability.IN, ())
    assert Name("x", 1) == ("x", 1) and span == (1, 2, 3, 4)  # a value equals the plain tuple of its fields


def test_surface_nodes_compare_without_their_spans():
    here, there = Span(1, 1, 1, 9), Span(7, 3, 8, 1)
    p = Input(a, ((x, T),), Par(Nil(here), Nil(there), here), here)
    q = Input(a, ((x, T),), Par(Nil(), Nil()), there)
    assert p == q and hash(p) == hash(q) and p.span != q.span
    assert p != Input(a, ((y, T),), Par(Nil(), Nil())) and Nil() != CNil()
    assert q._replace(span=here).span == here and q._replace(span=here) == q
    text = (CORPUS / "client.gpi").read_text(encoding="utf-8")
    first, shifted = parse(text).proc, parse("\n\n" + text).proc  # every span two lines down
    assert first == shifted and hash(first) == hash(shifted) and first.span != shifted.span
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.span = here


def test_a_deep_channel_type_hashes_in_c():
    def deep(n: int) -> ChanType:
        t = DYN
        for k in range(n):
            t = ChanType(Capability.OUT if k % 2 else Capability.IN, (t,))
        return t

    first, second = deep(5_000), deep(5_000)
    assert first is not second and hash(first) == hash(second)
    assert first == first and {first: 1}[first] == 1
    assert first != ChanType(first.cap.flipped(), first.args) and first != DYN  # decided at the top


# --------------------------------------------------------------------------
# cast stacks
# --------------------------------------------------------------------------

_OT = ChanType(Capability.OUT, (T,))


def test_push_elides_trivial_frames():
    chan = bare(a).push(T, T)
    assert chan.is_bare
    chan = chan.push(T, DYN)
    assert chan.casts == ((T, DYN),)


def test_push_keeps_chain_adjacent():
    rng = random.Random(5)
    for _ in range(100):
        chan = bare(a)
        prev = random_type(rng)
        for _ in range(rng.randint(1, 5)):
            nxt = random_type(rng)
            chan = chan.push(prev, nxt)
            prev = nxt
        for (s1, t1), (s2, t2) in zip(chan.casts, chan.casts[1:]):
            assert t1 == s2


# --------------------------------------------------------------------------
# hash-consing
# --------------------------------------------------------------------------


def test_equal_cast_terms_are_one_object_by_every_route():
    from gradualpi.castinsert import insert_casts

    first, second = load("client.gpi"), load("client.gpi")
    assert first.proc is not second.proc
    assert insert_casts(first.env, first.proc).proc is insert_casts(second.env, second.proc).proc
    proc = CInput(bare(a), ((x, T),), COutput(bare(x), (bare(b),), CNil()))
    assert substitute(proc, {b: bare(m)}) is CInput(bare(a), ((x, T),), COutput(bare(x), (bare(m),), CNil()))
    assert substitute(proc, {a: CastChannel(r, ((T, DYN),))}).subject is bare(r).push(T, DYN)
    renamed = CInput(bare(a), ((y, T),), COutput(bare(y), (bare(b),), CNil()))
    assert canonical(proc) is canonical(renamed) and canonical(proc) is not proc
    assert bare(a).push(DYN, _OT).push(_OT, T) is CastChannel(a, ((DYN, _OT), (_OT, T)))
    assert bare(a).push(T, T) is bare(a)
    assert CastChannel(base=a) is bare(a) and CastChannel(a, casts=()) is bare(a)
    assert CRestrict(name=x, type=T, body=CNil()) is CRestrict(x, T, CNil())
    assert proc._replace(binders=((x, T),)) is proc
    assert proc._replace(body=CNil()) is CInput(bare(a), ((x, T),), CNil())
    assert CPar(CNil(), CNil()) is not CChoice(CNil(), CNil())  # the class is part of the key
    assert CInput(bare(a), ((x, T),), CNil()) is not CInput(bare(a), ((x, DYN),), CNil())
    assert hash(proc) == hash(CInput(bare(a), ((x, T),), COutput(bare(x), (bare(b),), CNil())))
    with pytest.raises(dataclasses.FrozenInstanceError):
        proc.body = CNil()


def test_the_intern_table_holds_no_dead_term():
    nil = CNil()
    gc.collect()
    before = len(_terms)
    terms = [COutput(bare(Name("#dead", k)), (), nil) for k in range(10_000)]  # no other test has the name
    assert len(_terms) == before + 20_000  # each output and its subject
    del terms
    gc.collect()
    assert len(_terms) == before


# --------------------------------------------------------------------------
# substitute
# --------------------------------------------------------------------------


def test_substitute_concatenates_stacks_below():
    # receiving (x : o(T) => dyn) for b in an output subject (b : dyn => o(T))
    body = COutput(CastChannel(b, ((DYN, _OT),)), (bare(m),), CNil())
    out = substitute(body, {b: CastChannel(x, ((_OT, DYN),))})
    assert out == COutput(CastChannel(x, ((_OT, DYN), (DYN, _OT))), (bare(m),), CNil())


def test_substitute_empty_mapping_is_identity():
    proc = CPar(COutput(bare(a), (bare(b),), CNil()), CInput(bare(a), ((x, T),), CNil()))
    assert substitute(proc, {}) is proc


def test_substitute_renames_capturing_binder():
    proc = CInput(bare(a), ((x, T),), COutput(bare(x), (bare(y),), CNil()))
    out = substitute(proc, {y: bare(x)})
    x1 = Name("x", 1)
    expected = CInput(bare(a), ((x1, T),), COutput(bare(x1), (bare(x),), CNil()))
    assert out == expected
    assert oracle_alpha_equal(out, expected)


def test_substitute_is_compositional_on_disjoint_mappings():
    rng = random.Random(11)
    c1 = CastChannel(Name("u"), ((T, DYN),))
    c2 = bare(Name("v"))
    for _ in range(100):
        proc = _to_cast(random_surface(rng, 5))
        both = substitute(proc, {a: c1, b: c2})
        seq = substitute(substitute(proc, {a: c1}), {b: c2})
        assert alpha_equal(both, seq)


def _constructors(p) -> list[str]:
    kids = []
    for attr in ("body", "left", "right"):
        child = getattr(p, attr, None)
        if child is not None:
            kids.extend(_constructors(child))
    return sorted([type(p).__name__] + kids)


def test_substitute_preserves_constructor_multiset():
    rng = random.Random(13)
    for _ in range(100):
        proc = _to_cast(random_surface(rng, 5))
        out = substitute(proc, {a: CastChannel(Name("w"), ((T, DYN),)), m: bare(b)})
        assert _constructors(out) == _constructors(proc)


# --------------------------------------------------------------------------
# alpha_equal
# --------------------------------------------------------------------------


def test_alpha_equal_bound_renaming():
    p = Restrict(x, T, Output(x, (), Nil()))
    q = Restrict(y, T, Output(y, (), Nil()))
    assert alpha_equal(p, q)


def test_alpha_equal_free_names_differ():
    assert not alpha_equal(Output(a, (), Nil()), Output(b, (), Nil()))


def test_alpha_equal_compares_types_syntactically():
    assert not alpha_equal(Restrict(x, T, Nil()), Restrict(x, DYN, Nil()))


def _rename(p, old: Name, new: Name):
    """Replace every occurrence of `old`, binders included."""

    def r(n: Name) -> Name:
        return new if n == old else n

    match p:
        case Restrict(n, t, body):
            return Restrict(r(n), t, _rename(body, old, new))
        case Input(subj, binders, body):
            return Input(r(subj), tuple((r(n), t) for n, t in binders), _rename(body, old, new))
        case Output(subj, args, body) | ReverseOutput(subj, args, body):
            return type(p)(r(subj), tuple(map(r, args)), _rename(body, old, new))
        case Par(l, rr) | Choice(l, rr):
            return type(p)(_rename(l, old, new), _rename(rr, old, new))
        case Replicate(body):
            return Replicate(_rename(body, old, new))
    return p


def _alpha_variant(p, rng):
    """Rename restriction binders randomly to names that occur nowhere in
    their bodies, so that renaming every occurrence cannot capture."""
    match p:
        case Restrict(n, t, body):
            body = _alpha_variant(body, rng)
            fresh = Name(rng.choice("pqgh"), rng.randint(0, 3))
            if fresh == n or fresh in all_names(body):
                return Restrict(n, t, body)
            return Restrict(fresh, t, _rename(body, n, fresh))
        case Input(subj, binders, body):
            return Input(subj, binders, _alpha_variant(body, rng))
        case Output(subj, args, body):
            return Output(subj, args, _alpha_variant(body, rng))
        case ReverseOutput(subj, args, body):
            return ReverseOutput(subj, args, _alpha_variant(body, rng))
        case Par(l, rr):
            return Par(_alpha_variant(l, rng), _alpha_variant(rr, rng))
        case Choice(l, rr):
            return Choice(_alpha_variant(l, rng), _alpha_variant(rr, rng))
        case Replicate(body):
            return Replicate(_alpha_variant(body, rng))
        case _:
            return p


def test_alpha_variants_are_equal():
    rng = random.Random(19)
    for _ in range(100):
        p = random_surface(rng, 5)
        v = _alpha_variant(p, rng)
        assert alpha_equal(p, v)
        assert oracle_alpha_equal(p, v)


def test_alpha_equal_is_an_equivalence_and_matches_oracle():
    rng = random.Random(17)
    terms = [random_surface(rng, 5) for _ in range(60)]
    for p in terms:
        assert alpha_equal(p, p)  # reflexive
    for p in terms[:25]:
        for q in terms[:25]:
            pq = alpha_equal(p, q)
            assert pq == alpha_equal(q, p)  # symmetric
            assert pq == oracle_alpha_equal(p, q)
            assert pq == (canonical(p) == canonical(q))
    # transitivity over renaming chains
    for p in terms[:30]:
        v1 = _alpha_variant(p, rng)
        v2 = _alpha_variant(v1, rng)
        assert alpha_equal(p, v1) and alpha_equal(v1, v2) and alpha_equal(p, v2)
