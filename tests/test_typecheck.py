from __future__ import annotations

import random

from conftest import load
from gen import (
    count_type_positions,
    erase_type_position,
    random_party_set,
    random_program,
    random_type,
)
from gradualpi.parser import parse
from gradualpi.syntax import (
    Capability,
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
    TypeEnv,
)
from gradualpi.typecheck import check, check_static, consistent

T = ChanType(Capability.OUT, ())
iT = ChanType(Capability.IN, (T,))
oT = ChanType(Capability.OUT, (T,))


# --------------------------------------------------------------------------
# consistency
# --------------------------------------------------------------------------


def test_consistent_dyn_with_everything():
    assert consistent(DYN, oT)
    assert consistent(iT, DYN)
    assert consistent(DYN, DYN)


def test_consistent_rejects_capability_clash():
    assert not consistent(iT, oT)


def test_consistent_rejects_arity_mismatch():
    assert not consistent(ChanType(Capability.OUT, (T,)), ChanType(Capability.OUT, (T, T)))


def test_consistent_reflexive_on_random_types():
    rng = random.Random(41)
    for _ in range(500):
        t = random_type(rng, 3)
        assert consistent(t, t)


def test_consistent_symmetric_on_random_pairs():
    rng = random.Random(43)
    for _ in range(500):
        t, s = random_type(rng, 3), random_type(rng, 3)
        assert consistent(t, s) == consistent(s, t)


def test_consistent_not_transitive_witness():
    i0 = ChanType(Capability.IN, ())
    o0 = ChanType(Capability.OUT, ())
    assert consistent(i0, DYN) and consistent(DYN, o0) and not consistent(i0, o0)


def test_consistent_pointwise_on_arguments():
    assert consistent(ChanType(Capability.OUT, (DYN,)), ChanType(Capability.OUT, (oT,)))
    assert not consistent(ChanType(Capability.OUT, (iT,)), ChanType(Capability.OUT, (oT,)))


# --------------------------------------------------------------------------
# the judgement
# --------------------------------------------------------------------------


def test_nil_checks_under_empty_env():
    assert check(TypeEnv(), Nil()).ok


def test_client_checks_with_papers_consistency_checks():
    program = load("client.gpi")
    result = check(program.env, program.proc)
    assert result.ok
    seen = [(c.rule, str(c.left), str(c.right)) for c in result.checks]
    assert seen == [
        ("t-in", "i(dyn)", "i(dyn)"),
        ("t-out", "dyn", "o(o())"),
        ("t-in", "dyn", "i(o())"),
    ]
    assert all(c.holds for c in result.checks)


def test_agency_checks_with_papers_consistency_checks():
    program = load("agency.gpi")
    result = check(program.env, program.proc)
    assert result.ok
    seen = [(c.rule, str(c.left), str(c.right)) for c in result.checks]
    assert seen == [
        ("t-out", "o(dyn)", "o(o(o()))"),
        ("t-out", "o(o())", "o(o())"),
        ("t-out", "o(dyn)", "o(i(o()))"),
        ("t-in", "i(o())", "i(o())"),
    ]


def test_malicious_printer_client_rejected_at_t_in():
    program = load("malicious_printer_client.gpi")
    result = check(program.env, program.proc)
    assert not result.ok
    assert [d.rule for d in result.diagnostics] == ["t-in"]


def test_sneaky_client_rejected_at_t_out():
    program = load("sneaky_client.gpi")
    result = check(program.env, program.proc)
    assert not result.ok
    assert [d.rule for d in result.diagnostics] == ["t-out"]
    assert result.diagnostics[0].subject == Name("b")


def test_unbound_names_are_hard_errors():
    proc = Output(Name("ghost"), (), Nil())
    result = check(TypeEnv(), proc)
    assert [d.rule for d in result.diagnostics] == ["env-lookup"]
    # A bound subject with an unbound argument: no check is logged.
    proc = Output(Name("a"), (Name("ghost"),), Nil())
    result = check(TypeEnv(((Name("a"), DYN),)), proc)
    assert [d.rule for d in result.diagnostics] == ["env-lookup"]
    assert result.checks == ()


def test_diagnostics_accumulate_across_branches_in_span_order():
    program = parse(
        "chan p : o(o());\nchan q : o(o());\nrun p?(j:o()).0 | q?(j:o()).0"
    )
    result = check(program.env, program.proc)
    assert len(result.diagnostics) == 2
    spans = [(d.span.line, d.span.col) for d in result.diagnostics]
    assert spans == sorted(spans)


def test_reverse_output_types_like_output():
    env = TypeEnv(((Name("r"), ChanType(Capability.OUT, (DYN,))), (Name("x"), oT)))
    out = Output(Name("r"), (Name("x"),), Nil())
    rout = ReverseOutput(Name("r"), (Name("x"),), Nil())
    assert check(env, out).ok == check(env, rout).ok == True
    assert check(env, out).checks[0].right == check(env, rout).checks[0].right


def test_check_visits_each_prefix_once():
    program = load("agency.gpi")
    result = check(program.env, program.proc)

    def prefixes(p):
        match p:
            case Input(_, _, body) | Output(_, _, body) | ReverseOutput(_, _, body):
                return 1 + prefixes(body)
            case Par(l, r) | Choice(l, r):
                return prefixes(l) + prefixes(r)
            case Restrict(_, _, body) | Replicate(body):
                return prefixes(body)
            case Nil():
                return 0

    assert len(result.checks) == prefixes(program.proc)


# --------------------------------------------------------------------------
# conservativity and monotonicity (quick versions; acceptance scales them up)
# --------------------------------------------------------------------------


def _dyn_free(env: TypeEnv, proc) -> bool:
    def ty_ok(t) -> bool:
        return not isinstance(t, Dyn) and all(ty_ok(a) for a in t.args)

    return all(ty_ok(t) for _, t in env.bindings)


def test_static_agreement_on_dyn_free_programs():
    rng = random.Random(47)
    for _ in range(200):
        env, proc = random_program(rng, dyn_free=True)
        assert check(env, proc).ok == check_static(env, proc).ok


def test_guided_parties_check_under_both_judgements():
    rng = random.Random(53)
    for _ in range(60):
        for env, proc in random_party_set(rng, allow_dyn=False):
            assert check(env, proc).ok
            assert check_static(env, proc).ok


def test_single_position_dynamization_preserves_acceptance():
    rng = random.Random(59)
    for _ in range(40):
        for env, proc in random_party_set(rng, allow_dyn=True):
            if not check(env, proc).ok:
                continue
            for k in range(count_type_positions(env, proc)):
                env2, proc2 = erase_type_position(env, proc, k)
                assert check(env2, proc2).ok
