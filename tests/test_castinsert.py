from __future__ import annotations

import random

import pytest

from conftest import load
from gen import random_party_set, random_type
from gradualpi.castinsert import erase_casts, insert_casts, reverse_type
from gradualpi.syntax import (
    Capability,
    CastChannel,
    ChanType,
    Choice,
    CChoice,
    CInput,
    CNil,
    COutput,
    CRestrict,
    DYN,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Replicate,
    Restrict,
    ReverseOutput,
    TypeEnv,
    alpha_equal,
)
from gradualpi.typecheck import check
from oracles import oracle_alpha_equal

T = ChanType(Capability.OUT, ())
oT = ChanType(Capability.OUT, (T,))
iT = ChanType(Capability.IN, (T,))
oD = ChanType(Capability.OUT, (DYN,))
r, b, x, s, m100 = Name("r"), Name("b"), Name("x"), Name("s"), Name("m100")


# --------------------------------------------------------------------------
# reverse_type
# --------------------------------------------------------------------------


def test_reverse_type_flips_top_capability_only():
    assert reverse_type(oT) == iT
    assert reverse_type(iT) == oT
    nested = ChanType(Capability.OUT, (iT, oT))
    assert reverse_type(nested) == ChanType(Capability.IN, (iT, oT))


def test_reverse_type_dyn_fixed_point():
    assert reverse_type(DYN) == DYN


def test_reverse_type_is_an_involution():
    rng = random.Random(61)
    for _ in range(300):
        t = random_type(rng, 3)
        assert reverse_type(reverse_type(t)) == t


# --------------------------------------------------------------------------
# insert_casts on the worked example
# --------------------------------------------------------------------------


def expected_client() -> CChoice:
    pay = COutput(CastChannel(b, ((DYN, oT),)), (CastChannel(m100),), CNil())
    refund = CInput(CastChannel(b, ((DYN, iT),)), ((s, T),), CNil())
    return CInput(CastChannel(r), ((b, DYN),), CChoice(pay, refund))


def expected_agency() -> CChoice:
    refund = CRestrict(
        x,
        oT,
        COutput(
            CastChannel(r, ((oD, ChanType(Capability.OUT, (iT,))),)),
            (CastChannel(x),),
            COutput(CastChannel(x), (CastChannel(m100),), CNil()),
        ),
    )
    payment = CRestrict(
        x,
        iT,
        COutput(
            CastChannel(r, ((oD, ChanType(Capability.OUT, (oT,))),)),
            (CastChannel(x),),
            CInput(CastChannel(x), ((s, T),), CNil()),
        ),
    )
    return CChoice(refund, payment)


def test_client_compiles_to_papers_term():
    program = load("client.gpi")
    out = insert_casts(program.env, program.proc)
    assert alpha_equal(out.proc, expected_client())
    assert oracle_alpha_equal(out.proc, expected_client())
    inserted = [site for site in out.sites if not site.trivial]
    assert [(str(s.source), str(s.target)) for s in inserted] == [
        ("dyn", "o(o())"),
        ("dyn", "i(o())"),
    ]
    elided = [site for site in out.sites if site.trivial]
    assert [site.subject for site in elided] == [r]


def test_agency_compiles_to_papers_term():
    program = load("agency.gpi")
    out = insert_casts(program.env, program.proc)
    assert alpha_equal(out.proc, expected_agency())
    inserted = [site for site in out.sites if not site.trivial]
    assert [(str(s.source), str(s.target)) for s in inserted] == [
        ("o(dyn)", "o(i(o()))"),
        ("o(dyn)", "o(o(o()))"),
    ]


def test_nil_compiles_to_nil_with_no_sites():
    out = insert_casts(TypeEnv(), Nil())
    assert out.proc == CNil()
    assert out.sites == ()


def test_insert_casts_requires_checked_input():
    with pytest.raises(ValueError):
        insert_casts(TypeEnv(), Output(Name("ghost"), (), Nil()))
    with pytest.raises(ValueError):
        insert_casts(TypeEnv(((Name("a"), DYN),)), Output(Name("a"), (Name("ghost"),), Nil()))


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------


def _lower_reverse(p):
    match p:
        case Nil():
            return p
        case ReverseOutput(a, args, body):
            return Output(a, args, _lower_reverse(body))
        case Output(a, args, body):
            return Output(a, args, _lower_reverse(body))
        case Input(a, binders, body):
            return Input(a, binders, _lower_reverse(body))
        case Par(l, rr):
            return Par(_lower_reverse(l), _lower_reverse(rr))
        case Choice(l, rr):
            return Choice(_lower_reverse(l), _lower_reverse(rr))
        case Restrict(n, t, body):
            return Restrict(n, t, _lower_reverse(body))
        case Replicate(body):
            return Replicate(_lower_reverse(body))
    raise TypeError(p)


def test_erasure_restores_the_surface_process():
    rng = random.Random(67)
    agency = load("agency.gpi")  # has `new`; the random parties carry none
    party_sets = [[(agency.env, agency.proc)]] + [random_party_set(rng, allow_dyn=True) for _ in range(80)]
    for party_set in party_sets:
        for env, proc in party_set:
            if not check(env, proc).ok:
                continue
            out = insert_casts(env, proc)
            erased = erase_casts(out.proc)
            assert erased == _lower_reverse(proc)
            assert check(env, erased).ok


def test_one_site_per_consistency_check():
    rng = random.Random(71)
    for _ in range(80):
        for env, proc in random_party_set(rng, allow_dyn=True):
            result = check(env, proc)
            if not result.ok:
                continue
            out = insert_casts(env, proc)
            assert len(out.sites) == len(result.checks)
            assert [site.span for site in out.sites] == [c.span for c in result.checks]


def _has_casts(p) -> bool:
    match p:
        case CNil():
            return False
        case CInput(c, _, body):
            return bool(c.casts) or _has_casts(body)
        case COutput(c, args, body):
            return bool(c.casts) or any(a.casts for a in args) or _has_casts(body)
        case CChoice(l, rr):
            return _has_casts(l) or _has_casts(rr)
        case CRestrict(_, _, body):
            return _has_casts(body)
        case _ if hasattr(p, "left"):
            return _has_casts(p.left) or _has_casts(p.right)
        case _ if hasattr(p, "body"):
            return _has_casts(p.body)
    return False


def test_fully_static_programs_compile_cast_free():
    rng = random.Random(73)
    for _ in range(80):
        for env, proc in random_party_set(rng, allow_dyn=False):
            out = insert_casts(env, proc)
            assert all(site.trivial for site in out.sites)
            assert not _has_casts(out.proc)


def test_compilation_is_deterministic():
    program = load("agency.gpi")
    first = insert_casts(program.env, program.proc)
    second = insert_casts(program.env, program.proc)
    assert first.proc == second.proc
    assert first.sites == second.sites
