from __future__ import annotations

import random

import pytest

from conftest import RUNNABLE_CORPUS, compile_corpus, state_key
from gen import random_subject_chain, random_type
from gradualpi.parser import parse, print_cast
from gradualpi.runtime import (
    Configuration,
    Exhaustive,
    Halt,
    IdTable,
    MalformedCastError,
    Redex,
    Seeded,
    Status,
    enumerate_redexes,
    format_trace,
    normalize,
    resolve_input_casts,
    resolve_output_casts,
    run,
    step,
)
from gradualpi.castinsert import insert_casts
from gradualpi.syntax import (
    Capability,
    CastChannel,
    ChanType,
    CChoice,
    CInput,
    CNil,
    COutput,
    CPar,
    CReplicate,
    CRestrict,
    CTypeError,
    DYN,
    Name,
    free_names,
)
from gradualpi.typecheck import check

T = ChanType(Capability.OUT, ())
oT = ChanType(Capability.OUT, (T,))
iT = ChanType(Capability.IN, (T,))
oD = ChanType(Capability.OUT, (DYN,))
a, b, m, r, v, x, z, s = (Name(n) for n in "abmrvxzs")


def bare(n: Name) -> CastChannel:
    return CastChannel(n)


def out0(n: Name) -> COutput:
    return COutput(bare(n), (), CNil())


def in0(n: Name) -> CInput:
    return CInput(bare(n), (), CNil())


# --------------------------------------------------------------------------
# normalize
# --------------------------------------------------------------------------


def test_normalize_flattens_par_and_drops_nil():
    cfg = normalize(CPar(CPar(out0(a), CNil()), in0(b)))
    assert len(cfg.threads) == 2
    assert cfg.restrictions == ()


def test_normalize_extrudes_and_freshens_clashing_restriction():
    proc = CPar(CRestrict(x, T, out0(x)), out0(x))
    cfg = normalize(proc)
    assert [n for n, _ in cfg.restrictions] == [Name("x", 1)]
    assert print_cast(cfg.threads[0]) == "x'1!<>.0"
    assert print_cast(cfg.threads[1]) == "x!<>.0"


def test_normalize_keeps_unclashing_restriction_name():
    cfg = normalize(CRestrict(x, T, out0(x)))
    assert [n for n, _ in cfg.restrictions] == [x]


def test_normalize_type_error_halts():
    cfg = normalize(CPar(out0(a), CTypeError()))
    assert cfg.halted is not None and cfg.halted.status is Status.TYPE_ERROR


# --------------------------------------------------------------------------
# enumerate_redexes
# --------------------------------------------------------------------------


def test_enumerate_one_comm():
    cfg = normalize(CPar(out0(a), in0(a)))
    redexes = enumerate_redexes(cfg)
    assert [r.kind for r in redexes] == ["comm"]


def test_enumerate_stuck_when_no_shared_channel():
    cfg = normalize(CPar(out0(a), in0(b)))
    assert enumerate_redexes(cfg) == ()


def test_enumerate_arity_mismatch_is_not_a_redex():
    two = CInput(bare(a), ((x, DYN), (z, DYN)), CNil())
    one = COutput(bare(a), (bare(v),), CNil())
    cfg = normalize(CPar(two, one))
    assert enumerate_redexes(cfg) == ()


def test_argument_casts_never_block_comm():
    sent = CastChannel(v, ((DYN, oT),))
    out = COutput(bare(a), (sent,), CNil())
    inp = CInput(bare(a), ((s, DYN),), out0(s))
    cfg = normalize(CPar(inp, out))
    (redex,) = enumerate_redexes(cfg)
    assert redex.kind == "comm"
    cfg2, _ = step(cfg, redex)
    (thread,) = cfg2.threads
    assert thread == COutput(sent, (), CNil())


def test_enumerate_cast_subject_pairs_as_c_solve():
    inp = CInput(bare(x), ((s, T),), CNil())
    out = COutput(CastChannel(x, ((oT, DYN), (DYN, oT))), (bare(m),), CNil())
    cfg = normalize(CPar(inp, out))
    redexes = enumerate_redexes(cfg)
    assert [r.kind for r in redexes] == ["c-solve"]
    assert redexes[0].channel == x


def test_replicate_offered_only_with_a_potential_partner():
    lonely = normalize(CReplicate(out0(a)))
    assert enumerate_redexes(lonely) == ()
    served = normalize(CPar(CReplicate(in0(a)), out0(a)))
    kinds = {r.kind for r in enumerate_redexes(served)}
    assert "replicate" in kinds
    # self-contained replicated pair
    selfpair = normalize(CReplicate(CPar(in0(a), out0(a))))
    assert [r.kind for r in enumerate_redexes(selfpair)] == ["replicate"]


def test_halted_configuration_has_no_redexes():
    cfg = Configuration((), (out0(a), in0(a)), Halt(Status.TYPE_ERROR))
    assert enumerate_redexes(cfg) == ()


# --------------------------------------------------------------------------
# resolve_output_casts
# --------------------------------------------------------------------------


def test_resolve_output_reverse_derived_cast():
    out = COutput(CastChannel(r, ((oD, ChanType(Capability.OUT, (iT,))),)), (bare(x),), CNil())
    resolved, applied = resolve_output_casts(out)
    assert applied == ("c-out-succeed",)
    assert resolved == COutput(bare(r), (CastChannel(x, ((iT, DYN),)),), CNil())


def test_resolve_output_expand_then_succeed_twice():
    out = COutput(CastChannel(x, ((oT, DYN), (DYN, oT))), (bare(m),), CNil())
    resolved, applied = resolve_output_casts(out)
    assert applied == ("c-out-expand", "c-out-succeed", "c-out-succeed")
    assert resolved == COutput(bare(x), (CastChannel(m, ((T, DYN), (DYN, T))),), CNil())


def test_resolve_output_fail_on_input_capability():
    out = COutput(CastChannel(a, ((iT, oT),)), (bare(m),), CNil())
    failure, applied = resolve_output_casts(out)
    assert isinstance(failure, Halt)
    assert failure.rule == "c-out-fail"
    assert applied[-1] == "c-out-fail"


def test_resolve_output_bare_is_identity():
    out = COutput(bare(a), (bare(m),), CNil())
    resolved, applied = resolve_output_casts(out)
    assert resolved == out and applied == ()


iD = ChanType(Capability.IN, (DYN,))
o0 = ChanType(Capability.OUT, ())
i0 = ChanType(Capability.IN, ())


def test_resolve_output_malformed_on_dyn_target():
    out = COutput(CastChannel(a, ((T, DYN),)), (), CNil())
    with pytest.raises(MalformedCastError) as raised:
        resolve_output_casts(out)
    assert str(raised.value) == "output subject cast does not end in an output capability: (a : o() => dyn)"


@pytest.mark.parametrize(
    "resolve, message",
    [
        (
            lambda: resolve_output_casts(COutput(CastChannel(a, ((oT, iT),)), (bare(m),), CNil())),
            "output subject cast does not end in an output capability: (a : o(o()) => i(o()))",
        ),
        (
            lambda: resolve_output_casts(COutput(CastChannel(a, ((o0, oT),)), (bare(m),), CNil())),
            "cast frame arity does not match the output arguments: (a : o() => o(o()))",
        ),
        (
            lambda: resolve_output_casts(COutput(CastChannel(a, ((DYN, oT),)), (), CNil())),
            "cast frame arity does not match the output arguments: (a : o(dyn) => o(o()))",
        ),
        (
            lambda: resolve_input_casts(
                CInput(CastChannel(a, ((iT, oT),)), ((s, T),), CNil()), COutput(bare(a), (bare(m),), CNil())
            ),
            "input subject cast does not end in an input capability: (a : i(o()) => o(o()))",
        ),
        (
            lambda: resolve_input_casts(
                CInput(CastChannel(a, ((iT, iD),)), ((s, T),), CNil()), COutput(bare(a), (bare(m),), CNil())
            ),
            "cast frame does not match the binder annotations: (a : i(o()) => i(dyn))",
        ),
        (
            lambda: resolve_input_casts(
                CInput(CastChannel(a, ((i0, iT),)), ((s, T),), CNil()), COutput(bare(a), (bare(m),), CNil())
            ),
            "cast frame arity does not match the communication: (a : i() => i(o()))",
        ),
        (
            lambda: resolve_input_casts(
                CInput(CastChannel(a, ((DYN, iT),)), ((s, T),), CNil()), COutput(bare(a), (), CNil())
            ),
            "cast frame arity does not match the communication: (a : i(dyn) => i(o()))",
        ),
        (
            lambda: resolve_input_casts(
                CInput(bare(a), ((s, T),), CNil()), COutput(CastChannel(a, ((oT, oT),)), (bare(m),), CNil())
            ),
            "input casts are resolved against a bare-subject output",
        ),
    ],
)
def test_resolve_malformed_frame_is_named(resolve, message):
    with pytest.raises(MalformedCastError) as raised:
        resolve()
    assert str(raised.value) == message


# --------------------------------------------------------------------------
# resolve_input_casts
# --------------------------------------------------------------------------


def test_resolve_input_refund_branch():
    inp = CInput(CastChannel(x, ((iT, DYN), (DYN, iT))), ((s, T),), CNil())
    out = COutput(bare(x), (bare(m),), CNil())
    (inp2, out2), applied = resolve_input_casts(inp, out)
    assert applied == ("c-in-expand", "c-in-succeed", "c-in-succeed")
    assert inp2 == CInput(bare(x), ((s, T),), CNil())
    assert out2 == COutput(bare(x), (CastChannel(m, ((T, DYN), (DYN, T))),), CNil())


def test_resolve_input_expands_dyn_then_succeeds():
    inp = CInput(CastChannel(x, ((DYN, iT),)), ((s, T),), CNil())
    out = COutput(bare(x), (bare(m),), CNil())
    (inp2, out2), applied = resolve_input_casts(inp, out)
    assert applied == ("c-in-expand", "c-in-succeed")
    assert inp2 == CInput(bare(x), ((s, DYN),), CNil())
    assert out2 == COutput(bare(x), (CastChannel(m, ((T, DYN),)),), CNil())


def test_resolve_input_fail_on_output_capability():
    inp = CInput(CastChannel(a, ((oT, iT),)), ((s, T),), CNil())
    out = COutput(bare(a), (bare(m),), CNil())
    failure, applied = resolve_input_casts(inp, out)
    assert isinstance(failure, Halt)
    assert failure.rule == "c-in-fail"


def test_resolve_input_bare_pair_unchanged():
    inp = CInput(bare(a), ((s, T),), CNil())
    out = COutput(bare(a), (bare(v),), CNil())
    (inp2, out2), applied = resolve_input_casts(inp, out)
    assert (inp2, out2) == (inp, out) and applied == ()


def test_resolve_totality_within_two_steps_per_frame():
    rng = random.Random(79)
    for _ in range(300):
        chan, arity = random_subject_chain(rng, Capability.OUT, rng.randint(0, 5))
        out = COutput(chan, tuple(bare(Name(f"a{k}")) for k in range(arity)), CNil())
        result, applied = resolve_output_casts(out)
        assert len(applied) <= 2 * len(chan.casts)
        assert isinstance(result, Halt) or result.subject.is_bare
    for _ in range(300):
        chan, arity = random_subject_chain(rng, Capability.IN, rng.randint(0, 5))
        top_args = chan.casts[-1][1].args if chan.casts else tuple(random_type(rng, 1) for _ in range(arity))
        binders = tuple((Name(f"b{k}"), t) for k, t in enumerate(top_args))
        inp = CInput(chan, binders, CNil())
        out = COutput(bare(z), tuple(bare(Name(f"a{k}")) for k in range(len(binders))), CNil())
        result, applied = resolve_input_casts(inp, out)
        assert len(applied) <= 2 * len(chan.casts)
        assert isinstance(result, Halt) or result[0].subject.is_bare


# --------------------------------------------------------------------------
# step
# --------------------------------------------------------------------------


def test_comm_substitutes_whole_cast_channels():
    inp = CInput(bare(r), ((b, DYN),), COutput(CastChannel(b, ((DYN, oT),)), (bare(m),), CNil()))
    sent = CastChannel(x, ((oT, DYN),))
    out = COutput(bare(r), (sent,), CNil())
    cfg = normalize(CPar(inp, out))
    (redex,) = enumerate_redexes(cfg)
    cfg2, event = step(cfg, redex)
    assert event.rule == "comm"
    (thread,) = cfg2.threads
    assert thread == COutput(CastChannel(x, ((oT, DYN), (DYN, oT))), (bare(m),), CNil())


def test_c_solve_leaves_a_bare_pair_for_comm():
    inp = CInput(bare(r), ((b, DYN),), CNil())
    out = COutput(CastChannel(r, ((oD, ChanType(Capability.OUT, (oT,))),)), (bare(x),), CNil())
    cfg = normalize(CPar(inp, out))
    (redex,) = enumerate_redexes(cfg)
    assert redex.kind == "c-solve"
    cfg2, event = step(cfg, redex)
    assert event.detail == ("c-out-succeed",)
    kinds = [r.kind for r in enumerate_redexes(cfg2)]
    assert kinds == ["comm"]


def test_c_solve_failure_halts_globally():
    inp = CInput(CastChannel(a, ((oT, DYN), (DYN, iT))), ((s, T),), CNil())
    out = COutput(bare(a), (bare(m),), CNil())
    cfg = normalize(CPar(inp, out, ), frozenset())
    (redex,) = enumerate_redexes(cfg)
    cfg2, event = step(cfg, redex)
    assert cfg2.halted is not None
    assert cfg2.halted.status is Status.TYPE_ERROR
    assert cfg2.halted.rule == "c-in-fail"
    assert event.after == (CTypeError(),)
    assert enumerate_redexes(cfg2) == ()


def test_choice_steps_to_either_branch():
    cfg = normalize(CChoice(out0(a), out0(b)))
    left, right = enumerate_redexes(cfg)
    assert (left.kind, right.kind) == ("choice-left", "choice-right")
    cfg_l, ev_l = step(cfg, left)
    cfg_r, ev_r = step(cfg, right)
    assert print_cast(cfg_l.threads[0]) == "a!<>.0" and ev_l.detail == ("left",)
    assert print_cast(cfg_r.threads[0]) == "b!<>.0" and ev_r.detail == ("right",)


def test_replicate_unfolds_one_copy_and_keeps_the_thread():
    cfg = normalize(CPar(CReplicate(in0(a)), out0(a)))
    redex = next(r for r in enumerate_redexes(cfg) if r.kind == "replicate")
    cfg2, _ = step(cfg, redex)
    prints = sorted(print_cast(t) for t in cfg2.threads)
    assert prints == ["!a?().0", "a!<>.0", "a?().0"]


def test_stale_redex_is_an_internal_error():
    cfg = normalize(CPar(out0(a), in0(a)))
    with pytest.raises(ValueError):
        step(cfg, Redex("comm", (5, 6), a))


def test_restriction_inside_selected_branch_is_extruded():
    proc = CChoice(CRestrict(x, T, out0(x)), CNil())
    cfg = normalize(proc)
    redex = enumerate_redexes(cfg)[0]
    cfg2, _ = step(cfg, redex)
    assert [n for n, _ in cfg2.restrictions] == [x]


# --------------------------------------------------------------------------
# latent value casts
# --------------------------------------------------------------------------


def test_value_casts_are_not_checked_at_send_time():
    # v's stack ends up lying about its capability, but v is never used
    program = parse("chan a : dyn;\nchan v : i();\nrun a!<v>.0 | a?(s:o()).0")
    assert check(program.env, program.proc).ok
    compiled = insert_casts(program.env, program.proc).proc
    cfg = normalize(compiled, free_names(compiled))
    report = run(cfg, Seeded(seed=1, max_steps=50))
    assert report.outcomes[0].status is Status.NORMAL_STUCK


def test_seam_stack_used_as_subject_is_malformed_not_type_error():
    # Two parties plus a reader drive a doubly framed argument into subject
    # position; no resolution rule covers its dyn-target frame.
    both = parse("chan a : dyn;\nchan v : o();\nrun a?(s:o()).s!<>.0 | a!<v>.0")
    reader = parse("chan v : i();\nrun v?().0")
    assert check(both.env, both.proc).ok and check(reader.env, reader.proc).ok
    composed = CPar(
        insert_casts(both.env, both.proc).proc,
        insert_casts(reader.env, reader.proc).proc,
    )
    cfg = normalize(composed, free_names(composed))
    with pytest.raises(MalformedCastError):
        run(cfg, Exhaustive(8))


# --------------------------------------------------------------------------
# schedulers
# --------------------------------------------------------------------------


def test_seeded_runs_are_reproducible():
    cfg = compile_corpus("client.gpi", "agency.gpi")
    first = run(cfg, Seeded(seed=7, max_steps=100))
    second = run(cfg, Seeded(seed=7, max_steps=100))
    assert format_trace(first.outcomes[0]) == format_trace(second.outcomes[0])


def test_seeded_max_steps_budget():
    cfg = compile_corpus("printer_server.gpi", "printer_clients.gpi")
    report = run(cfg, Seeded(seed=0, max_steps=1))
    assert report.outcomes[0].status in (Status.MAX_STEPS, Status.NORMAL_STUCK)
    tiny = run(cfg, Seeded(seed=0, max_steps=0))
    assert tiny.outcomes[0].status is Status.MAX_STEPS


def test_untraced_runs_reach_the_same_halts_and_record_no_step():
    for names in RUNNABLE_CORPUS:
        cfg = compile_corpus(*names)
        for scheduler in (Seeded(seed=2, max_steps=30), Exhaustive(8)):
            traced, untraced = run(cfg, scheduler), run(cfg, scheduler, trace=False)
            assert [o.halt for o in untraced.outcomes] == [o.halt for o in traced.outcomes]
            assert all(o.trace == () for o in untraced.outcomes)


def test_c_solve_atomicity_other_threads_untouched():
    cfg = compile_corpus("client.gpi", "misuse_agency.gpi", "stray_payer.gpi")
    rng = random.Random(83)
    for _ in range(60):
        state = cfg
        while state.halted is None:
            redexes = enumerate_redexes(state)
            if not redexes:
                break
            redex = redexes[rng.randrange(len(redexes))]
            nxt, event = step(state, redex, 0)
            if event.rule == "c-solve" and nxt.halted is None:
                participants = set(redex.participants)
                before = [print_cast(t) for k, t in enumerate(state.threads) if k not in participants]
                after_all = [print_cast(t) for t in nxt.threads]
                for line in before:
                    assert line in after_all
            state = nxt


def _dfs_terminals(cfg, depth: int, order_seed: int) -> set[str]:
    """Order-shuffled depth-first exploration: the terminal-set oracle."""
    rng = random.Random(order_seed)
    best: dict[str, int] = {}
    terminals: set[str] = set()
    table = IdTable()

    def go(state, budget):
        key = state_key(table, state)
        if best.get(key, -1) >= budget:
            return
        best[key] = budget
        if state.halted is not None:
            terminals.add(state.halted.status.value)
            return
        redexes = list(enumerate_redexes(state))
        if not redexes:
            terminals.add("normal-stuck")
            return
        if budget == 0:
            terminals.add("depth-exceeded")
            return
        rng.shuffle(redexes)
        for redex in redexes:
            nxt, _ = step(state, redex, 0)
            go(nxt, budget - 1)

    go(cfg, depth)
    return terminals


def test_exhaustive_terminal_set_is_order_independent():
    for files, depth in ((("client.gpi", "agency.gpi"), 10),
                         (("client.gpi", "misuse_agency.gpi", "stray_payer.gpi"), 10),
                         (("repl_dyn.gpi",), 8)):
        cfg = compile_corpus(*files)
        expected = {s.value for s in run(cfg, Exhaustive(depth)).statuses()}
        for order_seed in (1, 2, 3):
            assert _dfs_terminals(cfg, depth, order_seed) == expected


def test_exhaustive_paper_example_terminals():
    cfg = compile_corpus("client.gpi", "agency.gpi")
    assert {s.value for s in run(cfg, Exhaustive(12)).statuses()} == {"normal-stuck"}
    misuse = compile_corpus("client.gpi", "misuse_agency.gpi", "stray_payer.gpi")
    assert {s.value for s in run(misuse, Exhaustive(12)).statuses()} == {"normal-stuck", "type-error"}


def test_exhaustive_is_deterministic():
    cfg = compile_corpus("client.gpi", "misuse_agency.gpi", "stray_payer.gpi")
    first = run(cfg, Exhaustive(10))
    second = run(cfg, Exhaustive(10))
    assert [format_trace(o) for o in first.outcomes] == [format_trace(o) for o in second.outcomes]


def test_cast_free_runs_use_no_cast_rules():
    cfg = compile_corpus("printer_server.gpi", "printer_clients.gpi")
    report = run(cfg, Seeded(seed=5, max_steps=200))
    assert all(event.rule in ("comm", "choice", "replicate") for event in report.outcomes[0].trace)


def test_progress_classification_over_corpus():
    for files in RUNNABLE_CORPUS:
        cfg = compile_corpus(*files)
        report = run(cfg, Exhaustive(12))
        assert report.outcomes, files
        for outcome in report.outcomes:
            assert outcome.status in (Status.NORMAL_STUCK, Status.TYPE_ERROR, Status.DEPTH_EXCEEDED)
