"""The runtime's state key, witness traces and redex order against oracles.

The structural `configuration_key` must merge exactly the states that a
permutation of names relates, found by brute force, both on states
interned one by one and on the ids the explorer splices from a parent's,
and a state put through a random permutation of its names must keep its
key.  The explorer's replayed witnesses must print exactly what an
explorer rendering every step eagerly prints, and the explorer must queue
exactly the first state of each orbit among the states the reference
explorer, which builds and keys every successor up to alpha-equivalence,
queues, in the same order; the explorer builds no configuration, so each is
materialised here by replaying its path.
The plan it reads from its threads' ids must be the state's.  The single-pass
`enumerate_redexes` must return exactly the tuple of the all-pairs-then-sort
reference, and `redex_plan` must count and build that tuple.  So must the
`ThreadIndex` of a sequential run at every step, and its threads must be
those `_rebuild` builds.
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
from gradualpi.syntax import DYN, CastChannel, CNil, COutput, CPar, CRestrict, Name, canonical, free_names, substitute
from gradualpi.threadindex import ThreadIndex
from gradualpi.typecheck import check
from oracles import (
    naive_enumerate_redexes,
    permutation_invariant,
    permutation_related,
    printed_configuration_key,
    reference_explore,
)
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


def renamed_configuration(cfg: Configuration, rng) -> Configuration:
    """`cfg` with its free names permuted at random among themselves, its
    restricted names among those of the same type, and its threads and
    restrictions in a random order."""
    restricted = [n for n, _ in cfg.restrictions]
    free = sorted(set().union(*map(free_names, cfg.threads)) - set(restricted))
    mapping = dict(zip(free, rng.sample(free, len(free))))
    by_type: dict = {}
    for n, t in cfg.restrictions:
        by_type.setdefault(str(t), []).append(n)
    for group in by_type.values():
        mapping.update(zip(group, rng.sample(group, len(group))))
    threads = [substitute(t, {n: CastChannel(m) for n, m in mapping.items()}) for t in cfg.threads]
    restrictions = [(mapping[n], t) for n, t in cfg.restrictions]
    rng.shuffle(threads)
    rng.shuffle(restrictions)
    return Configuration(tuple(restrictions), tuple(threads), cfg.halted, cfg.protected)


class Orbits:
    """States sorted into orbits under permutations of names, by brute
    force: a state joins the orbit of the first earlier state it is
    related to, found among those with its permutation invariant."""

    def __init__(self):
        self._firsts: dict = {}

    def first(self, cfg: Configuration) -> Configuration:
        """The first state added of `cfg`'s orbit, adding `cfg` if it is the first."""
        firsts = self._firsts.setdefault(permutation_invariant(cfg), [])
        found = next((first for first in firsts if permutation_related(first, cfg)), None)
        if found is None:
            firsts.append(cfg)
        return found or cfg


def assert_keys_merge_exactly_the_permuted_states(cfg0, depth: int, rng) -> tuple[int, int]:
    """Breadth-first to `depth`.  Two states get one key exactly when a
    permutation of names relates them, and a state put through a random
    permutation of its free names and of its restricted names keeps its
    key.  Returns the states reached, as printed, and the keys."""
    table = IdTable()
    keys: dict = {}  # printed key -> key
    first_of: dict = {}  # key -> the first state of its orbit
    key_of: dict = {}  # id of the first state of an orbit -> key
    orbits = Orbits()
    frontier = [cfg0]
    for d in range(depth + 1):
        successors = []
        for cfg in frontier:
            printed, key = printed_configuration_key(cfg), state_key(table, cfg)
            if printed in keys:
                assert keys[printed] == key
                continue
            keys[printed] = key
            assert state_key(table, renamed_configuration(cfg, rng)) == key
            first = orbits.first(cfg)
            assert first_of.setdefault(key, first) is first
            assert key_of.setdefault(id(first), key) == key
            if d < depth and cfg.halted is None:
                successors.extend(step(cfg, redex)[0] for redex in enumerate_redexes(cfg))
        frontier = successors
    return len(keys), len(first_of)


def test_key_merges_exactly_the_states_a_permutation_relates():
    states = keys = restricted = 0
    rng = random.Random(211)
    for cfg in corpus_configs() + party_configs(211) + restricted_configs():
        restricted += bool(cfg.restrictions)
        reached, distinct = assert_keys_merge_exactly_the_permuted_states(cfg, 10, rng)
        states, keys = states + reached, keys + distinct
    # Renamings merge over a hundred states that the printed key keeps apart.
    assert restricted >= DRAWS // 3 and keys > 500 and states > keys + 100


def links(*cycles: str, via: str = "", hub: str = "") -> Configuration:
    """Free names linked in cycles: for each name `a` of a cycle and the
    name `b` after it, `a!<b>.0`, or `via!<a, b>.0` when `via` is given;
    and `hub!<a>.0` for the first name `a` of each cycle when `hub` is."""
    send = lambda a, *b: COutput(CastChannel(Name(a)), tuple(CastChannel(Name(x)) for x in b), CNil())
    edges = [(a, b) for cycle in cycles for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    threads = [send(via, a, b) if via else send(a, b) for a, b in edges]
    return Configuration((), tuple(threads + [send(hub, cycle[0]) for cycle in cycles if hub]))


def test_key_tells_apart_states_that_colour_refinement_does_not():
    # In each state every cycle name sends once and is sent once, so colour
    # refinement splits none of them; individualising a name does.  Cycles
    # of their own share no name and are keyed apart.  Sent on one channel
    # they share it, so a 3-cycle's names and a 6-cycle's stay tied in one
    # part although no renaming maps one onto the other: each branch is
    # tried and the least certificate kept.  Hung off a hub, cycles of one
    # length are one part whose branches all give the same certificate.
    # Restricting `a` keeps each state
    # apart from the others, `a` alone in its thread (`a!<a>.0`) too.
    groups = [("abcdef",), ("abc", "def"), ("abc", "defghi"), ("ab", "cdef"), ("a",), ("ab", "cd", "ef", "gh")]
    states = [links(*cycles, **ways) for cycles in groups for ways in ({}, {"via": "g"}, {"hub": "h"})]
    states += [under_new(state) for state in states]
    rng = random.Random(5)
    states += [renamed_configuration(state, rng) for state in states for _ in range(3)]
    table, orbits, first_of, key_of = IdTable(), Orbits(), {}, {}
    for state in states:
        key, first = state_key(table, state), orbits.first(state)
        assert first_of.setdefault(key, first) is first
        assert key_of.setdefault(id(first), key) == key
    assert len(first_of) == 36


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


# Both participants of one communication hoist a restriction, the output,
# which comes first in thread order, first.
BOTH_HOIST = "chan a : dyn;\nrun a!<>.new (x:dyn) (x!<>.0 | x?().0) | a?().new (y:dyn) (y!<>.0 | y?().0)\n"


@functools.cache
def explored_states() -> tuple[list, list]:
    """`(search, state, key)` for every state the explorer keys, and
    `(state, node, redexes)` for every state it plans, with its node and the
    redexes of the plan it reads (from its threads' ids), in a depth-10
    search of each corpus composition, random party set and `BOTH_HOIST`.

    The explorer builds no configuration while it searches, so each state is
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

    configs = corpus_configs() + party_configs(229) + [compile_text(BOTH_HOIST)]
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
    return states, [
        (materialise(configs[search], node, memos[search]), node, redexes) for search, node, redexes in planned
    ]


def test_explorer_keys_merge_exactly_the_states_a_permutation_relates():
    # Ids come from one intern table per search, so keys compare within a search.
    first_of: dict = {}
    key_of: dict = {}
    orbits: dict = {}
    restricted = 0
    for search, cfg, key in explored_states()[0]:
        first = orbits.setdefault(search, Orbits()).first(cfg)
        assert first_of.setdefault((search, key), first) is first
        assert key_of.setdefault(id(first), key) == key
        restricted += bool(cfg.restrictions)
    assert len(first_of) > 1000 and restricted > 500


def test_redex_plan_counts_and_builds_the_reference_order():
    keyed, planned = explored_states()
    for _, cfg, _ in keyed:
        plan, expected = redex_plan(cfg), naive_enumerate_redexes(cfg)
        assert len(plan) == len(expected)
        assert plan.redexes() == expected
    # The plan the explorer reads from its threads' ids is the plan of the
    # state, whose hoisted restrictions the search names by position.
    hoisted = 0
    for cfg, node, redexes in planned:
        assert [t for _, t in cfg.restrictions] == [t for _, t in node.restrictions]
        names = {x: y for (x, _), (y, _) in zip(cfg.restrictions, node.restrictions)}
        renamed = tuple(r._replace(channel=names.get(r.channel, r.channel)) for r in redex_plan(cfg).redexes())
        assert redexes == renamed
        hoisted += cfg.restrictions != node.restrictions
    assert len(keyed) > 1000 and len(planned) > 1000 and hoisted > 100


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


def assert_queues_the_first_of_each_orbit(monkeypatch, cfg, depth: int):
    """The explorer's queue is the first state of each orbit among the
    states the reference explorer queues, in the same order.  Returns both
    reports and the number of states queued."""
    report, queued = explore_nodes(monkeypatch, cfg, depth)
    expected, expected_queued = explore_queued(reference_explore, oracles, monkeypatch, cfg, depth)
    orbits = Orbits()
    firsts = [state for state in expected_queued if orbits.first(state) is state]
    assert list(map(printed_configuration_key, queued)) == list(map(printed_configuration_key, firsts))
    return report, expected, len(queued)


def assert_explores_like_the_reference(monkeypatch, cfg, depth: int) -> int:
    report, expected, queued = assert_queues_the_first_of_each_orbit(monkeypatch, cfg, depth)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]
    assert [o.halt for o in report.outcomes] == [o.halt for o in expected.outcomes]
    return queued


# Replicas with heads on a name restricted inside them, which meet only
# heads under the same `new` in the same copy.  Matched by the name as
# written, the free `x?().0` would keep the first replica useful and the
# search would reach only `depth-exceeded`; so would the second if the inner
# `new x` were taken for the outer one.  The third communicates inside
# each copy, so it keeps unfolding.  The fourth's copy takes one side of a
# `+`, so its two heads never both occur; the fifth's inner `!` lays down
# copies of the `+` that can take opposite sides, so it keeps unfolding.
BOUND_HEAD, SHADOWED_HEAD, PAIRED_HEAD = "bound_head.gpi", "shadowed_head.gpi", "paired_head.gpi"
CHOICE_HEAD, REPLICATED_CHOICE_HEAD = "choice_head.gpi", "replicated_choice_head.gpi"
HEADS = (BOUND_HEAD, SHADOWED_HEAD, PAIRED_HEAD, CHOICE_HEAD, REPLICATED_CHOICE_HEAD)


def test_a_head_on_a_restricted_name_meets_only_heads_under_its_new():
    for name in (BOUND_HEAD, SHADOWED_HEAD, CHOICE_HEAD):
        cfg = compile_corpus(name)
        assert run(cfg, Exhaustive(6)).statuses() == (Status.NORMAL_STUCK,)
        assert run(cfg, Seeded(0)).statuses() == (Status.NORMAL_STUCK,)
    cfg = compile_corpus(PAIRED_HEAD)
    report = run(cfg, Exhaustive(6))
    assert report.statuses() == (Status.DEPTH_EXCEEDED,)
    assert [event.rule for event in report.outcomes[0].trace] == ["replicate", "c-solve", "comm"] * 2
    assert run(cfg, Seeded(0, max_steps=50)).statuses() == (Status.MAX_STEPS,)
    cfg = compile_corpus(REPLICATED_CHOICE_HEAD)
    assert run(cfg, Exhaustive(6)).statuses() == (Status.DEPTH_EXCEEDED,)
    assert run(cfg, Seeded(0, max_steps=50)).statuses() == (Status.MAX_STEPS,)


def test_explorer_queues_the_states_of_the_reference_explorer(monkeypatch):
    configs = corpus_configs() + party_configs(233)
    restricted = sum(bool(cfg.restrictions) for cfg in configs)
    queued = sum(assert_explores_like_the_reference(monkeypatch, cfg, 10) for cfg in configs)
    queued += assert_explores_like_the_reference(monkeypatch, compile_corpus("dyn_race.gpi"), 40)
    race = assert_explores_like_the_reference(monkeypatch, compile_corpus("dyn_race4.gpi"), 10)
    assert restricted >= DRAWS // 3 and queued > 1000 and race > 100
    # Restricted names hoisted in different orders (two_new.gpi), and tied
    # threads that hold different restricted names (tie_repl.gpi, tie_pair.gpi).
    two_new, tie_repl, tie_pair, race = restricted_configs()
    for cfg, depth in ((two_new, 20), (tie_repl, 8), (tie_pair, 10), (race, 40)):
        assert_explores_like_the_reference(monkeypatch, cfg, depth)
    # A server that hoists a restriction on every request.
    assert_explores_like_the_reference(monkeypatch, compile_corpus("hoist_server.gpi"), 9)
    for name in HEADS:
        assert_explores_like_the_reference(monkeypatch, compile_corpus(name), 6)


def test_depth_exceeded_witness_is_the_first_of_its_orbit_at_the_bound(monkeypatch):
    # Two relays pass a pair of values on, swapping them once, so four steps
    # lead to the initial state with the values swapped.  The reference
    # queues that renamed copy at depth 4, as the first state at the bound,
    # and takes it as its `depth-exceeded` witness.  The explorer has its
    # orbit already (the initial state) and takes the next state at the
    # bound.  Both are real paths; statuses and queues agree as elsewhere.
    cfg = compile_corpus("relay_swap.gpi", "relay.gpi", "relay_pair.gpi")
    report, expected, _ = assert_queues_the_first_of_each_orbit(monkeypatch, cfg, 4)
    assert report.statuses() == expected.statuses() == (Status.DEPTH_EXCEEDED,)
    rules = lambda outcome: [event.rule for event in outcome.trace]
    assert rules(expected.outcomes[0]) == ["replicate", "comm", "replicate", "comm"]
    assert rules(report.outcomes[0]) == ["replicate", "comm", "replicate", "replicate"]


def test_tie_pair_queues_no_two_states_a_permutation_relates(monkeypatch):
    # Numbering restricted names by first use over the threads ordered by
    # their text queued 6 pairs of alpha-equivalent states here.
    _, queued = explore_nodes(monkeypatch, compile_corpus("tie_pair.gpi"), 10)
    orbits = Orbits()
    assert all(orbits.first(state) is state for state in queued)


def race(k: int, values: int) -> Configuration:
    """`k` payers and `k` readers on a `dyn` channel; the payers send
    `values` distinct values, in turn."""
    decls = "".join(f"chan v{i} : o();\n" for i in range(values))
    threads = [f"a!<v{i % values}>.0 | a?(s:o()).0" for i in range(k)]
    return compile_text("chan a : dyn;\n" + decls + "run " + " | ".join(threads) + "\n")


def test_races_of_distinct_values_queue_no_more_states_than_of_one_value(monkeypatch):
    # A value only its payer holds can be renamed to any other, so distinct
    # values split no orbit; keyed up to alpha-equivalence alone, k=6 queued
    # 85,951 states against 821.
    for k in (5, 6):
        distinct, one = (
            len(explore_queued(lambda c, d: run(c, Exhaustive(d), trace=False), runtime, monkeypatch, cfg, 40, id)[1])
            for cfg in (race(k, k), race(k, 1))
        )
        assert distinct <= one
    assert distinct <= 1000


def test_explorer_keys_each_distinct_move_of_a_state_once(monkeypatch):
    # Two options of a state with one participant id, partner id (or kind)
    # and restriction count are one move: their successors differ only in
    # thread order, so they have one key, and the first is the one queued.
    # Keying every option would take 16,450 keys on the one-value k=6 race
    # and 8,005 on the 2,000-wide replicated body.  The body's 2,000 outputs
    # are one id; the race's outputs are not, once some have been solved.
    wide = compile_text("chan a : dyn;\nrun !(" + " | ".join(["a!<>"] * 2000) + ") | a?().0\n")
    key = runtime.configuration_key
    for cfg, depth, keys in ((race(6, 1), 40, 3249), (wide, 3, 9)):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(runtime, "configuration_key", lambda *args: calls.append(1) or key(*args))
            run(cfg, Exhaustive(depth), trace=False)
        assert len(calls) == keys


def test_no_two_states_queued_are_alpha_equivalent_when_names_are_spelt_apart(monkeypatch):
    # Ordering tied threads by their written text, as the printed key does,
    # queues 19 states here, two of them alpha-equivalent: their texts differ
    # only in the spelling of a bound name.  The witnesses stay the same.
    cfg = compile_corpus("spell.gpi")
    report, queued = explore_nodes(monkeypatch, cfg, 8)
    assert len(queued) == 18
    orbits = Orbits()
    assert all(orbits.first(state) is state for state in queued)
    expected = reference_explore(cfg, 8)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]


def test_move_that_hoists_a_restriction_is_learnt_as_restricting(monkeypatch):
    # Every move is learnt once, a hoisting one too: it names what it
    # hoists by position in the successor's restrictions, so its signature
    # is its participants' canonical forms (their ids), for one thread its
    # kind, and the state's restriction count.  No search step reduces a
    # configuration; only the witnesses are replayed.
    cfg = compile_corpus("extrusion_receivers.gpi", "extrusion_senders.gpi")
    assert not cfg.restrictions
    taken: Counter = Counter()
    learnt: Counter = Counter()
    hoisting = set()
    reduced = []
    learn, reduce, plan_of = runtime._learn_move, runtime._reduce, runtime._plan

    def signature(threads, redex, restricted):
        i, *partner = redex.participants
        return canonical(threads[i]), canonical(threads[partner[0]]) if partner else redex.kind, restricted

    def record_learn(table, redex, threads, restricted):
        move, key = learn(table, redex, threads, restricted), signature(threads, redex, restricted)
        learnt[key] += 1
        if move[1]:
            hoisting.add(key)
        return move

    def noting_plan(threads, facts):
        plan = plan_of(threads, facts)
        options = plan.options
        restricted = len(Popping.current[0].restrictions)

        def noted():
            for i, option in options():
                taken[signature(threads, plan.build(i, option), restricted)] += 1
                yield i, option

        plan.options = noted
        return plan

    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_learn_move", record_learn)
        patch.setattr(runtime, "_reduce", lambda *args: reduced.append(1) or reduce(*args))
        patch.setattr(runtime, "_plan", noting_plan)
        patch.setattr(runtime, "deque", Popping)
        report = run(cfg, Exhaustive(20))
    assert learnt == Counter(set(taken))
    assert any(taken[key] > 1 for key in hoisting)
    assert len(reduced) == sum(len(outcome.trace) for outcome in report.outcomes)
    expected = reference_explore(cfg, 20)
    assert [format_trace(o) for o in report.outcomes] == [format_trace(o) for o in expected.outcomes]
    assert [o.halt for o in report.outcomes] == [o.halt for o in expected.outcomes]


def test_explorer_reduces_and_canonicalises_only_new_work(monkeypatch):
    # Building every successor takes 14,152 `_reduce` calls on the 4x4 race,
    # with or without `new (a:dyn)`, and building each successor queued for
    # the first time 1,578.  A configuration is built only to replay a
    # witness.
    race4 = compile_corpus("dyn_race4.gpi")
    for cfg in (race4, compile_corpus("dyn_race.gpi"), under_new(race4)):
        reduced = []
        forms = []
        reduce, canonicalise = runtime._reduce, runtime.canonical

        with monkeypatch.context() as patch:
            patch.setattr(runtime, "_reduce", lambda *args: reduced.append(1) or reduce(*args))
            patch.setattr(runtime, "canonical", lambda thread: forms.append(thread) or canonicalise(thread))
            report = run(cfg, Exhaustive(40))
        replayed = sum(len(outcome.trace) for outcome in report.outcomes)
        assert len(reduced) == replayed
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
    ("relay_swap.gpi", "relay.gpi", "relay_pair.gpi"),
] + [(name,) for name in HEADS]


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

# Inputs on `a` spread over many blocks, and a replicated `d!<>` whose only
# partner hangs on a choice: an output on `a` that leaves changes the weight
# of inputs in blocks the step does not touch, and a choice-right makes `!d!<>`
# useless with no output entering or leaving.  A block's summed weight goes
# stale unless each such change bumps the weights' version.
SPREAD = (
    "chan a : dyn;\nchan b : dyn;\nchan c : dyn;\nchan d : dyn;\nrun !d!<>.0 | !a!<>.0 | "
    + " | ".join(["a?().0 | (c!<>.0 + c!<>.0)"] * 12)
    + " | (d?().0 + b?().0)\n"
)


def assert_index_follows_rebuild(cfg: Configuration, seed: int, steps: int) -> tuple[int, int]:
    """A seeded walk from `cfg` kept in one `ThreadIndex`; at every state the
    index counts and builds the redexes of the naive enumeration of its
    materialised configuration, and every step leaves the configuration and
    the trace event that `runtime.step` (through `_rebuild`) builds, its
    moves looked up in the index's move table once learnt.  Steps alternate
    between a naive redex, which the index locates, and the one its
    `redex(k)` has just built, whose participants it has recorded.
    Returns the states checked and the moves learnt."""
    index, rng = ThreadIndex(cfg), random.Random(seed)
    for checked in range(1, steps + 1):
        materialised = index.configuration()
        assert materialised == cfg
        expected = naive_enumerate_redexes(materialised)
        assert len(index) == len(expected)
        assert tuple(index.redex(k) for k in range(len(index))) == expected
        assert set(index._live) == set(index.threads())  # nothing dropped is kept
        if not expected:
            return checked, len(index._moves)
        k = rng.randrange(len(expected))
        cfg, event = runtime.step(cfg, expected[k])
        redex = index.redex(k) if checked % 2 else expected[k]
        assert index.step(redex) == (event.rule, event.detail, event.before, event.after)
    return steps, len(index._moves)


def test_thread_index_matches_the_naive_enumeration_at_every_step(monkeypatch):
    def walk_all():
        checked = 0
        for names in INDEXED_CORPUS:
            for seed in range(3):
                checked += assert_index_follows_rebuild(compile_corpus(*names), seed, 60)[0]
        for seed, cfg in enumerate(configs):
            checked += assert_index_follows_rebuild(cfg, seed, 40)[0]
        for seed in range(3):
            checked += assert_index_follows_rebuild(compile_text(CLASH, protect=False), seed, 10)[0]
            checked += assert_index_follows_rebuild(compile_text(SPREAD), seed, 60)[0]
        states, moves = assert_index_follows_rebuild(dyn_server(60), 0, 400)
        assert moves < states // 10  # the 60 clients are one term, so nearly every step repeats a move
        return checked + states

    configs = party_configs(239)
    assert sum(bool(cfg.restrictions) for cfg in configs) >= DRAWS // 3
    assert walk_all() > 900
    # Small blocks: partners and redexes are found across many blocks, and
    # blocks split, merge and empty as threads come and go.
    for size in (8, 2):
        monkeypatch.setattr(threadindex, "_MIN_BLOCK", size)
        assert walk_all() > 900


def unmemoised_trace(outcome: Outcome) -> list[str]:
    """The trace text with every line rendered from scratch."""
    return [event.format() for event in outcome.trace] + [f"HALT: {outcome.halt.describe()}"]


def test_memoised_trace_text_is_the_unmemoised_text():
    outcomes = []
    for names in RUNNABLE_CORPUS:
        cfg = compile_corpus(*names)
        outcomes += [o for seed in range(3) for o in run(cfg, Seeded(seed, 300)).outcomes]
        outcomes += run(cfg, Exhaustive(20)).outcomes
    outcomes += run(dyn_server(60), Seeded(0, 1000)).outcomes
    # Two moves whose sides are equal but held in distinct tuples render alike,
    # and a move with other sides, or another rule or detail, does not.
    event = next(event for event in outcomes[-1].trace if event.before and event.after)
    before, after = (tuple(list(side)) for side in (event.before, event.after))
    assert (before, after) == (event.before, event.after) and before is not event.before and after is not event.after
    moves = [
        event._replace(index=0),
        event._replace(index=1, before=before, after=after),
        event._replace(index=2, rule="c-solve", detail=("c-out-succeed",)),
        event._replace(index=3, before=after, after=before),
        event._replace(index=4, before=before, after=after),
    ]
    outcomes.append(Outcome(Status.NORMAL_STUCK, Halt(Status.NORMAL_STUCK), tuple(moves)))
    assert sum(len(o.trace) for o in outcomes) > 300
    for outcome in outcomes:
        assert format_trace(outcome) == unmemoised_trace(outcome)
    lines = format_trace(outcomes[-1])
    assert lines[0][3:] == lines[1][3:] == lines[4][3:] != lines[2][3:] and lines[3][3:] != lines[0][3:]
