"""The runtime's state key, witness traces and redex order against oracles.

The structural `configuration_key` must induce exactly the partition of
states that the printed key induces, both on states interned one by one
and on the ids the explorer splices from a parent's.  The explorer's
replayed witnesses must print exactly what an explorer rendering every
step eagerly prints, and the explorer must queue exactly the states the
reference explorer, which builds and keys every successor, queues (on
`spell.gpi` it queues fewer, none of them alpha-equivalent); the explorer
builds few states, so each is materialised here by replaying its path.
The plan it reads from its threads' ids must be the state's.  The single-pass
`enumerate_redexes` must return exactly the tuple of the all-pairs-then-sort
reference, and `redex_plan` must count that tuple and build each of its
positions alone.  So must the `ThreadIndex` of a sequential run at every
step, and its threads must be those `_rebuild` builds.
"""

from __future__ import annotations

import functools
import random
from collections import Counter, deque

from conftest import RUNNABLE_CORPUS, compile_corpus, state_key
from gen import random_party_set
import gradualpi.runtime as runtime
import gradualpi.threadindex as threadindex
from gradualpi.castinsert import insert_casts
from gradualpi.parser import parse
from gradualpi.runtime import (
    Configuration,
    Exhaustive,
    Halt,
    IdTable,
    Outcome,
    Redex,
    Seeded,
    Status,
    enumerate_redexes,
    format_trace,
    normalize,
    redex_plan,
    run,
    step,
)
from gradualpi.syntax import DYN, CPar, CRestrict, Name, canonical, free_names
from gradualpi.threadindex import ThreadIndex
from gradualpi.typecheck import check
from oracles import alpha_equivalent_configurations, naive_enumerate_redexes, printed_configuration_key, reference_explore
import oracles

DRAWS = 200


def corpus_configs():
    return [compile_corpus(*names) for names in RUNNABLE_CORPUS]


def under_new(cfg: Configuration, name: str = "a") -> Configuration:
    """`cfg` with its free channel `name` restricted at type `dyn`."""
    return Configuration(((Name(name), DYN),), cfg.threads, cfg.halted, cfg.protected)


# Restricted states whose keys differ if restricted names are kept as
# written (`new`s hoisted in different orders) or if threads that tie on
# their masked text are ordered by anything but their text.
RESTRICTED = ("two_new.gpi", "tie_repl.gpi", "tie_pair.gpi")


def restricted_configs():
    return [compile_corpus(name) for name in RESTRICTED] + [under_new(compile_corpus("dyn_race.gpi"))]


def party_configs(seed: int, count: int = DRAWS):
    """`count` compositions of well-typed random parties, some with `dyn`.

    Every other composition has one to three of its free channels
    restricted, so that keys with restricted names are exercised too, and
    some replicated bodies and choice branches are under a `new`, so that
    heads on names restricted inside a thread are too.
    """
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        drawn = random_party_set(rng, allow_dyn=True, allow_new=True)
        parties = [(env, proc) for env, proc in drawn if check(env, proc).ok]
        if not parties:
            continue
        compiled = [insert_casts(env, proc).proc for env, proc in parties]
        protected = frozenset().union(
            *(free_names(proc) for proc in compiled), *({n for n, _ in env.bindings} for env, _ in parties)
        )
        composed = functools.reduce(CPar, compiled)
        if len(configs) % 2:
            for name in sorted(free_names(composed))[: 1 + len(configs) % 3]:
                composed = CRestrict(name, DYN, composed)
        configs.append(normalize(composed, protected))
    return configs


def assert_same_partition(cfg0, depth: int) -> int:
    """Breadth-first to `depth`; every state reached gets both keys."""
    to_printed: dict = {}
    to_structural: dict = {}
    expanded: set[str] = set()
    table = IdTable()
    frontier = [cfg0]
    for d in range(depth + 1):
        successors = []
        for cfg in frontier:
            structural, printed = state_key(table, cfg), printed_configuration_key(cfg)
            assert to_printed.setdefault(structural, printed) == printed
            assert to_structural.setdefault(printed, structural) == structural
            if d < depth and cfg.halted is None and printed not in expanded:
                expanded.add(printed)
                successors.extend(step(cfg, redex)[0] for redex in enumerate_redexes(cfg))
        frontier = successors
    return len(to_printed)


def test_structural_key_partitions_states_like_the_printed_key():
    states = 0
    restricted = 0
    for cfg in corpus_configs() + party_configs(211) + restricted_configs():
        restricted += bool(cfg.restrictions)
        states += assert_same_partition(cfg, depth=10)
    assert restricted >= DRAWS // 3 and states > 500


def redex_for(cfg: Configuration, i: int, option) -> Redex:
    """The redex of thread `i`'s plan option (a partner output or a kind)
    in `cfg`, found in the naive enumeration."""
    for redex in naive_enumerate_redexes(cfg):
        if redex.participants == (i, option) or redex.participants == (i,) and redex.kind == option:
            return redex
    raise AssertionError(f"option {option!r} of thread {i} is not enabled")


def materialise(cfg0: Configuration, node, memo: dict) -> Configuration:
    """The state of an explorer node, replayed from `cfg0` along its parent
    pointers with `step` and the naive enumeration; `memo` maps the nodes
    of one search to their states."""
    path = []
    while node.parent is not None and node not in memo:
        path.append(node)
        node = node.parent
    cfg = memo.get(node, cfg0)
    for node in reversed(path):
        cfg = memo[node] = step(cfg, redex_for(cfg, node.i, node.option))[0]
    return cfg


class Popping(deque):
    """The explorer's queue, noting the node it pops in `current[0]` (a
    plan's options, wrapped, note the option being taken in `current[1]`)."""

    current: list = [None, None]

    def popleft(self):
        self.current[:] = [super().popleft(), None]
        return self.current[0]


@functools.cache
def explored_states() -> tuple[list, list]:
    """`(search, state, key)` for every state the explorer keys, and
    `(state, redexes)` for every state it plans, with the redexes of the plan
    it reads (from its threads' ids), in a depth-10 search of each corpus
    composition and random party set.

    The explorer builds no successor it does not need, so each state is
    materialised here afterwards, from the node being expanded and the plan
    option being taken.
    """
    keyed, planned = [], []
    key, plan_of, current = runtime.configuration_key, runtime._plan, Popping.current

    def record_key(*args):
        result = key(*args)
        keyed.append((search, *current, result))
        return result

    def noting_plan(threads, facts):
        plan = plan_of(threads, facts)
        planned.append((search, current[0], plan.redexes()))
        options = plan.options

        def noted():
            for option in options():
                current[1] = option
                yield option

        plan.options = noted
        return plan

    configs = corpus_configs() + party_configs(229)
    runtime.configuration_key, runtime._plan, runtime.deque = record_key, noting_plan, Popping
    try:
        for search, cfg in enumerate(configs):
            current[:] = [None, None]
            run(cfg, Exhaustive(10))
    finally:
        runtime.configuration_key, runtime._plan, runtime.deque = key, plan_of, deque
    memos = [{} for _ in configs]
    states = []
    for search, node, option, result in keyed:
        cfg0 = configs[search]
        state = cfg0 if node is None else materialise(cfg0, node, memos[search])
        if option is not None:
            state = step(state, redex_for(state, *option))[0]
        states.append((search, state, result))
    return states, [(materialise(configs[search], node, memos[search]), redexes) for search, node, redexes in planned]


def test_explorer_id_keys_partition_states_like_the_keys():
    # Ids come from one intern table per search, so keys compare within a search.
    by_ids: dict = {}
    back: dict = {}
    restricted = 0
    for search, cfg, fast in explored_states()[0]:
        fast, slow = (search, fast), (search, printed_configuration_key(cfg))
        assert by_ids.setdefault(fast, slow) == slow
        assert back.setdefault(slow, fast) == fast
        restricted += bool(cfg.restrictions)
    assert len(by_ids) > 1000 and restricted > 500


def test_redex_plan_counts_and_builds_the_reference_order():
    keyed, planned = explored_states()
    for _, cfg, _ in keyed:
        plan, expected = redex_plan(cfg), naive_enumerate_redexes(cfg)
        assert len(plan) == len(expected)
        assert tuple(plan.redex(k) for k in range(len(plan))) == expected
    # The plan the explorer reads from its threads' ids is the plan of the state.
    for cfg, redexes in planned:
        assert redexes == redex_plan(cfg).redexes()
    assert len(keyed) > 1000 and len(planned) > 1000


def eager_explore(cfg0, depth: int) -> list[Outcome]:
    """Breadth-first search rendering every step's trace event as it goes."""
    witnesses: dict[Status, Outcome] = {}
    seen: dict[str, int] = {}
    queue = deque([(cfg0, 0, ())])
    while queue:
        cfg, d, trace = queue.popleft()
        key = printed_configuration_key(cfg)
        if seen.get(key, d + 1) <= d:
            continue
        seen[key] = d
        if cfg.halted is not None:
            witnesses.setdefault(cfg.halted.status, Outcome(cfg.halted.status, cfg.halted, trace))
            continue
        redexes = enumerate_redexes(cfg)
        status = Status.NORMAL_STUCK if not redexes else Status.DEPTH_EXCEEDED if d >= depth else None
        if status is not None:
            witnesses.setdefault(status, Outcome(status, Halt(status), trace))
            continue
        for redex in redexes:
            cfg2, event = step(cfg, redex, len(trace))
            queue.append((cfg2, d + 1, trace + (event,)))
    order = (Status.NORMAL_STUCK, Status.TYPE_ERROR, Status.DEPTH_EXCEEDED)
    return [witnesses[s] for s in order if s in witnesses]


def test_replayed_witnesses_print_like_eagerly_rendered_ones():
    for cfg in corpus_configs() + party_configs(223):
        report = run(cfg, Exhaustive(8))
        expected = eager_explore(cfg, 8)
        assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected]
        assert [o.halt for o in report.outcomes] == [o.halt for o in expected]


def test_redex_order_matches_the_all_pairs_reference():
    compared = 0
    for cfg0 in corpus_configs() + party_configs(227):
        for seed in range(3):
            rng = random.Random(seed)
            cfg = cfg0
            for index in range(60):
                redexes = enumerate_redexes(cfg)
                assert redexes == naive_enumerate_redexes(cfg)
                compared += 1
                if not redexes:
                    break
                cfg, _ = step(cfg, redexes[rng.randrange(len(redexes))], index)
    assert compared > 3 * DRAWS


def explore_queued(explore, module, monkeypatch, cfg, depth: int, state=lambda entry: entry[0]):
    """`explore(cfg, depth)`, and the states it queued in order.

    `module` is where `explore` looks up `deque`; `state` gives the state
    of a queue entry once the search is over.
    """
    queued: list = []

    class Recording(deque):
        def append(self, entry):
            queued.append(entry)
            super().append(entry)

    def recording(entries):
        queue = Recording()
        for entry in entries:
            queue.append(entry)
        return queue

    with monkeypatch.context() as patch:
        patch.setattr(module, "deque", recording)
        report = explore(cfg, depth)
    return report, list(map(state, queued))


def explore_nodes(monkeypatch, cfg, depth: int):
    """`run(cfg, Exhaustive(depth))`, and the states its queued nodes stand for."""
    memo: dict = {}
    explore = lambda c, d: run(c, Exhaustive(d))
    return explore_queued(explore, runtime, monkeypatch, cfg, depth, lambda node: materialise(cfg, node, memo))


def assert_explores_like_the_reference(monkeypatch, cfg, depth: int):
    report, queued = explore_nodes(monkeypatch, cfg, depth)
    expected, expected_queued = explore_queued(reference_explore, oracles, monkeypatch, cfg, depth)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]
    assert [o.halt for o in report.outcomes] == [o.halt for o in expected.outcomes]
    assert list(map(printed_configuration_key, queued)) == list(map(printed_configuration_key, expected_queued))
    return len(queued)


# Replicas with heads on a name restricted inside them, which meet only
# heads under the same `new` in the same copy.  Matched by the name as
# written, the free `x?().0` would keep the first replica useful and the
# search would reach only `depth-exceeded`; so would the second if the inner
# `new x` were taken for the outer one.  The third communicates inside
# each copy, so it keeps unfolding.
BOUND_HEAD, SHADOWED_HEAD, PAIRED_HEAD = "bound_head.gpi", "shadowed_head.gpi", "paired_head.gpi"


def test_a_head_on_a_restricted_name_meets_only_heads_under_its_new():
    for name in (BOUND_HEAD, SHADOWED_HEAD):
        cfg = compile_corpus(name)
        assert run(cfg, Exhaustive(6)).statuses() == (Status.NORMAL_STUCK,)
        assert run(cfg, Seeded(0)).statuses() == (Status.NORMAL_STUCK,)
    cfg = compile_corpus(PAIRED_HEAD)
    report = run(cfg, Exhaustive(6))
    assert report.statuses() == (Status.DEPTH_EXCEEDED,)
    assert [event.rule for event in report.outcomes[0].trace] == ["replicate", "c-solve", "comm"] * 2
    assert run(cfg, Seeded(0, max_steps=50)).statuses() == (Status.MAX_STEPS,)


def test_explorer_queues_the_states_of_the_reference_explorer(monkeypatch):
    configs = corpus_configs() + party_configs(233)
    restricted = sum(bool(cfg.restrictions) for cfg in configs)
    queued = sum(assert_explores_like_the_reference(monkeypatch, cfg, 10) for cfg in configs)
    queued += assert_explores_like_the_reference(monkeypatch, compile_corpus("dyn_race.gpi"), 40)
    race = assert_explores_like_the_reference(monkeypatch, compile_corpus("dyn_race4.gpi"), 10)
    assert restricted >= DRAWS // 3 and queued > 1000 and race > 1000
    # Keeping restricted names as written queues 8 more states on two_new.gpi;
    # ordering tied threads by id instead of text queues others on tie_pair.gpi.
    two_new, tie_repl, tie_pair, race = restricted_configs()
    for cfg, depth in ((two_new, 20), (tie_repl, 8), (tie_pair, 10), (race, 40)):
        assert_explores_like_the_reference(monkeypatch, cfg, depth)
    for name in (BOUND_HEAD, SHADOWED_HEAD, PAIRED_HEAD):
        assert_explores_like_the_reference(monkeypatch, compile_corpus(name), 6)


def test_no_two_states_queued_are_alpha_equivalent_when_names_are_spelt_apart(monkeypatch):
    # Ordering tied threads by their written text, as the printed key does,
    # queues 19 states here, two of them alpha-equivalent: their texts differ
    # only in the spelling of a bound name.  The witnesses stay the same.
    cfg = compile_corpus("spell.gpi")
    report, queued = explore_nodes(monkeypatch, cfg, 8)
    assert len(queued) == 18
    assert not any(alpha_equivalent_configurations(a, b) for k, a in enumerate(queued) for b in queued[k + 1 :])
    expected = reference_explore(cfg, 8)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]


def test_move_that_hoists_a_restriction_is_learnt_as_restricting(monkeypatch):
    # A hoisting move is applied to the state each time it is taken, since
    # the fresh name it picks depends on the whole state.  Every move is
    # learnt once, from a restricted parent too.  A move's signature is its
    # participants' canonical forms (their ids) and, for one thread, its kind.
    cfg = compile_corpus("extrusion_receivers.gpi", "extrusion_senders.gpi")
    assert not cfg.restrictions
    taken: Counter = Counter()
    learnt: Counter = Counter()
    hoisted: Counter = Counter()
    from_restricted = set()
    learn, reduce, plan_of = runtime._learn_move, runtime._reduce, runtime._plan

    def signature(threads, redex):
        i, *partner = redex.participants
        return canonical(threads[i]), canonical(threads[partner[0]]) if partner else redex.kind

    def record_learn(table, redex, threads):
        learnt[signature(threads, redex)] += 1
        return learn(table, redex, threads)

    def record_reduce(cfg, redex):
        result = reduce(cfg, redex)
        if len(result[0].restrictions) > len(cfg.restrictions):
            hoisted[signature(cfg.threads, redex)] += 1
        return result

    def noting_plan(threads, facts):
        plan = plan_of(threads, facts)
        options = plan.options
        restricted = bool(Popping.current[0].restrictions)

        def noted():
            for i, option in options():
                key = signature(threads, plan.build(i, option))
                taken[key] += 1
                if restricted:
                    from_restricted.add(key)
                yield i, option

        plan.options = noted
        return plan

    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_learn_move", record_learn)
        patch.setattr(runtime, "_reduce", record_reduce)
        patch.setattr(runtime, "_plan", noting_plan)
        patch.setattr(runtime, "deque", Popping)
        run(cfg, Exhaustive(20), trace=False)  # no witness replayed
    from_restricted -= set(hoisted)
    assert any(taken[key] > 1 for key in hoisted)
    assert any(taken[key] > 1 for key in from_restricted)
    assert learnt == Counter(set(taken))
    assert all(hoisted[key] == taken[key] for key in hoisted)
    report, expected = run(cfg, Exhaustive(20)), reference_explore(cfg, 20)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]
    assert [o.halt for o in report.outcomes] == [o.halt for o in expected.outcomes]


def test_explorer_reduces_and_canonicalises_only_new_work(monkeypatch):
    # Building every successor takes 14,152 `_reduce` calls on the 4x4 race,
    # with or without `new (a:dyn)`, and building each successor queued for
    # the first time 1,578.  A configuration is built only to learn a move,
    # apply a hoisting move, read a witness's halt or replay a witness.
    race4 = compile_corpus("dyn_race4.gpi")
    for cfg in (race4, compile_corpus("dyn_race.gpi"), under_new(race4)):
        reduced = []
        forms = []
        learnt = []
        reduce, canonicalise, learn = runtime._reduce, runtime.canonical, runtime._learn_move

        def record_reduce(cfg, redex):
            result = reduce(cfg, redex)
            reduced.append(len(result[0].restrictions) > len(cfg.restrictions))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(runtime, "_reduce", record_reduce)
            patch.setattr(runtime, "canonical", lambda thread: forms.append(thread) or canonicalise(thread))
            patch.setattr(runtime, "_learn_move", lambda *args: learnt.append(1) or learn(*args))
            report = run(cfg, Exhaustive(40))
        replayed = sum(len(outcome.trace) for outcome in report.outcomes)
        halted = sum(outcome.status is Status.TYPE_ERROR for outcome in report.outcomes)
        assert len(reduced) <= len(learnt) + sum(reduced) + halted + replayed
        assert len(forms) == len({canonicalise(thread) for thread in forms})


# Compositions whose seeded runs hoist restrictions (with fresh names), take
# choices, and unfold replicas whose usefulness changes as heads come and go
# or rests on heads on names restricted inside them.
INDEXED_CORPUS = RUNNABLE_CORPUS + [
    ("extrusion_receivers.gpi", "extrusion_senders.gpi"),
    ("two_new.gpi",),
    ("tie_pair.gpi",),
    ("tie_repl.gpi",),
    ("dyn_server.gpi",),
    (BOUND_HEAD,),
    (SHADOWED_HEAD,),
    (PAIRED_HEAD,),
]


def compile_text(text: str, protect: bool = True) -> Configuration:
    program = parse(text)
    proc = insert_casts(program.env, program.proc).proc
    return normalize(proc, frozenset(name for name, _ in program.env.bindings) if protect else frozenset())


def dyn_server(clients: int) -> Configuration:
    """The replicated `dyn` server `!p?(j:o()).0` with `clients` senders."""
    return compile_text("chan p : dyn;\nchan m : o();\nrun !p?(j:o()).0 | " + " | ".join(["p!<m>.0"] * clients) + "\n")


# A `new` hoisted after a communication binds a name that is free, and not
# protected, in a thread the step leaves alone: only a scan of every thread
# finds that it must be renamed.
CLASH = "chan a : dyn;\nchan y : dyn;\nrun a?().new (y:o()) y!<>.0 | a!<>.0 | y?().0 | y!<>.0\n"


def assert_index_follows_rebuild(cfg: Configuration, seed: int, steps: int) -> int:
    """A seeded walk from `cfg` kept in one `ThreadIndex`; at every state the
    index counts and builds the redexes of the naive enumeration of its
    materialised configuration, and every step leaves the configuration that
    `_reduce` (through `_rebuild`) builds.  Returns the states checked."""
    index, rng = ThreadIndex(cfg), random.Random(seed)
    for checked in range(1, steps + 1):
        materialised = index.configuration()
        assert materialised == cfg
        expected = naive_enumerate_redexes(materialised)
        assert len(index) == len(expected)
        assert tuple(index.redex(k) for k in range(len(index))) == expected
        assert set(index._live) == {id(thread) for thread in index.threads()}  # nothing dropped is kept
        if not expected:
            return checked
        redex = expected[rng.randrange(len(expected))]
        cfg, rule, detail, _ = runtime._reduce(cfg, redex)
        assert index.step(redex)[:2] == (rule, detail)
    return steps


def test_thread_index_matches_the_naive_enumeration_at_every_step(monkeypatch):
    def walk_all():
        checked = 0
        for names in INDEXED_CORPUS:
            for seed in range(3):
                checked += assert_index_follows_rebuild(compile_corpus(*names), seed, 60)
        for seed, cfg in enumerate(configs):
            checked += assert_index_follows_rebuild(cfg, seed, 40)
        for seed in range(3):
            checked += assert_index_follows_rebuild(compile_text(CLASH, protect=False), seed, 10)
        return checked + assert_index_follows_rebuild(dyn_server(60), 0, 400)

    configs = party_configs(239)
    assert sum(bool(cfg.restrictions) for cfg in configs) >= DRAWS // 3
    assert walk_all() > 900
    # Small blocks: partners and redexes are found across many blocks, and
    # blocks split, merge and empty as threads come and go.
    for size in (8, 2):
        monkeypatch.setattr(threadindex, "_MIN_BLOCK", size)
        assert walk_all() > 900
