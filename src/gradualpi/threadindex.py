"""The live thread index of a sequential run.

A seeded or interactive run keeps its threads here between steps instead of
rescanning and copying the whole thread list at every step, as
``redex_plan`` and ``_rebuild`` do.  The index offers the redexes in the
order of ``redex_plan``, from the same per-thread facts, and applies a step
as ``_reduce`` does, so a seeded run draws the same redexes and prints the
same trace.
``runtime`` imports this module on the first sequential run, so commands
that run nothing do not compile it.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .runtime import (
    _CHOICE,
    _CHOICE_KINDS,
    _IN,
    _OUT,
    _REP,
    Configuration,
    Halt,
    Redex,
    _effects,
    _facts,
    _flatten_into,
    _Head,
    _fresh_names,
    _partner_heads,
)
from .syntax import CastProcess, COutput, CReplicate


_MIN_BLOCK = 32  # threads per block, at least


def _add(counts: dict, key: Hashable, delta: int) -> int:
    """Add ``delta`` to ``counts[key]``, dropping a count that reaches 0."""
    n = counts.get(key, 0) + delta
    if n:
        counts[key] = n
    else:
        del counts[key]
    return n


class _Block:
    """A run of consecutive threads, counted by class ``(kind, key)``: the
    key is the channel key ``(base, index, arity)`` of an input or output,
    and the thread itself for a replicated thread."""

    __slots__ = ("items", "counts")

    def __init__(self, items: list[tuple]):
        self.items = items  # (class, thread, heads) per thread, in thread order
        self.counts: dict[tuple, int] = {}
        for item in items:
            _add(self.counts, item[0], 1)


class ThreadIndex:
    """The threads of a sequential run, kept between steps and updated from
    each step's replacements, with the redexes they enable counted.

    Threads live in blocks of about the square root of their number, each
    counting its threads by class (``_Block``).  Global counts per class
    keep ``len`` (the number of enabled redexes: inputs times outputs per
    channel key, two per choice, one per useful replicated thread) up to
    date in O(1) per thread that enters or leaves, and so does one dict of
    the redexes a thread of each class offers (its weight).  ``redex(k)``
    walks the blocks' weights, then one block, in the order of
    ``redex_plan``; it finds an input's partner, the k-th output on its key,
    the same way, and records where each participant sits for ``step``.  A
    replicated thread is offered by the rule of ``runtime._plan``: the heads
    on free names are kept as a multiset, and a replicated thread's
    usefulness is recomputed only when a head it needs appears or
    disappears.  So a step costs O(sqrt n) in the thread count n, except a
    step that hoists a restriction, which scans every thread for the names
    in use (as ``_rebuild`` does, picking the same fresh names).

    Cast terms are hash-consed, so equal threads are one object and hash in
    O(1).  Per-thread facts are kept by thread for as long as some position
    holds it, so they hold no thread the run has dropped.  What a redex
    does depends on its kind and its participants alone, so each move is
    learnt once per run and looked up by them: its rule, detail, halt, trace
    sides and, unless it hoists a restriction, its flattened threads.  A
    hoisting move's results are flattened at every step, so that the
    hoisted restriction still takes a name that is fresh in the current
    threads.
    """

    def __init__(self, cfg: Configuration):
        self.restrictions = list(cfg.restrictions)
        self.halted = cfg.halted
        self.protected = cfg.protected
        self._live: dict[CastProcess, list] = {}  # thread -> [its item, positions holding it]
        self._totals: dict[tuple, int] = {}  # class -> threads in it
        self._weights: dict[tuple, int] = {(_CHOICE, None): 2}  # class -> redexes a thread in it offers
        self._needs: dict[CReplicate, tuple[_Head, ...]] = {}  # replicated thread -> heads a copy could meet
        self._needers: dict[_Head, set[CReplicate]] = {}  # head -> replicated threads that need it
        self._moves: dict[tuple, tuple] = {}  # (kind, *participants) -> what ``_learn`` gives
        self._drawn: Optional[tuple[Redex, list]] = None  # the redex ``redex`` built last, and where it sits
        self._heads: dict[_Head, int] = {}  # head on a free name -> threads that have it
        self._count = 0
        self._n = len(cfg.threads)
        self._size = max(_MIN_BLOCK, isqrt(self._n))
        items = [self._item(thread) for thread in cfg.threads]
        self._blocks = [_Block(items[k : k + self._size]) for k in range(0, len(items), self._size)]
        for item in items:
            self._enter(item, 1)

    # -- per-thread facts and global counts ------------------------------------

    def _item(self, thread: CastProcess) -> tuple:
        """``(class, thread, heads)`` of a thread."""
        entry = self._live.get(thread)
        if entry is not None:
            return entry[0]
        kind, key, heads, paired = _facts(thread)
        if kind == _REP:
            key = thread
            needs = self._needs[key] = () if paired else _partner_heads(heads)  # a paired one is always useful
            for head in needs:
                self._needers.setdefault(head, set()).add(key)
            self._weights[kind, key] = int(paired or any(self._heads.get(head) for head in needs))
        item = ((kind, key), thread, heads)
        self._live[thread] = [item, 0]
        return item

    def _enter(self, item: tuple, delta: int) -> None:
        """Count a thread in (``delta`` 1) or out (-1) of the global counts."""
        cls, thread, heads = item
        kind, key = cls
        if kind == _OUT:  # one more or one fewer partner for each input on its key
            self._count += delta * self._totals.get((_IN, key), 0)
            _add(self._weights, (_IN, key), delta)
        else:
            self._count += delta * self._weights.get(cls, 0)
        _add(self._totals, cls, delta)
        for head in heads:
            if _add(self._heads, head, delta) == (1 if delta > 0 else 0):  # it appeared or disappeared
                for rep in self._needers.get(head, ()):
                    self._recompute(rep)
        self._hold(item, delta)

    def _hold(self, item: tuple, delta: int) -> None:
        """Count a position in (1) or out (-1) of those holding a thread."""
        (kind, key), thread, _ = item
        entry = self._live[thread]
        entry[1] += delta
        if not entry[1]:  # no position holds the thread any more
            del self._live[thread]
            if kind == _REP:
                for head in self._needs.pop(key):
                    self._needers[head].discard(key)
                del self._weights[kind, key]

    def _recompute(self, rep: CReplicate) -> None:
        cls = (_REP, rep)
        useful = int(any(self._heads.get(head) for head in self._needs[rep]))
        if useful != self._weights[cls]:
            self._count += (useful - self._weights[cls]) * self._totals.get(cls, 0)
            self._weights[cls] = useful

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        """The number of enabled redexes."""
        return 0 if self.halted is not None else self._count

    def threads(self) -> tuple[CastProcess, ...]:
        return tuple(self._iter_threads())

    def _iter_threads(self) -> Iterator[CastProcess]:
        for block in self._blocks:
            for item in block.items:
                yield item[1]

    def configuration(self) -> Configuration:
        return Configuration(tuple(self.restrictions), self.threads(), self.halted, self.protected)

    def redex(self, k: int) -> Redex:
        """The redex at position ``k`` of the order of ``redex_plan``."""
        if not 0 <= k < len(self):
            raise IndexError("redex position out of range")
        weights = self._weights
        start = 0
        for block in self._blocks:
            weight = sum(n * weights.get(cls, 0) for cls, n in block.counts.items())
            if k < weight:
                break
            k -= weight
            start += len(block.items)
        for offset, (cls, thread, _) in enumerate(block.items):
            weight = weights.get(cls, 0)
            if k < weight:
                kind, key = cls
                i = start + offset
                located = [(block, offset)]
                if kind == _CHOICE:
                    redex = Redex(_CHOICE_KINDS[k], (i,))
                elif kind == _REP:
                    redex = Redex("replicate", (i,))
                else:
                    j, other, at, out = self._nth_output(key, k)
                    located.append((other, at))
                    bare = thread.subject.is_bare and out.subject.is_bare
                    redex = Redex("comm" if bare else "c-solve", (i, j), thread.subject.base)
                self._drawn = (redex, located)
                return redex
            k -= weight
        raise AssertionError("block counts disagree with their threads")

    def _nth_output(self, key: tuple, k: int) -> tuple[int, _Block, int, COutput]:
        """The position, block, offset there and thread of the ``k``-th
        output on ``key``."""
        cls = (_OUT, key)
        start = 0
        for block in self._blocks:
            n = block.counts.get(cls, 0)
            if k < n:
                break
            k -= n
            start += len(block.items)
        for offset, (other, thread, _) in enumerate(block.items):
            if other == cls:
                if not k:
                    return start + offset, block, offset, thread
                k -= 1
        raise AssertionError("block counts disagree with their threads")

    def redexes(self) -> tuple[Redex, ...]:
        return tuple(self.redex(k) for k in range(len(self)))

    # -- stepping --------------------------------------------------------------

    def step(
        self, redex: Redex
    ) -> tuple[str, tuple[str, ...], tuple[CastProcess, ...], tuple[CastProcess, ...]]:
        """Apply one redex in place, as ``_reduce`` applies it to a configuration.

        Returns the trace rule and its detail, the participants and the
        processes that replaced them (before flattening), each in thread
        order.  A redex that ``redex`` has just built is not located again.
        """
        if self.halted is not None:
            raise ValueError("cannot step a halted configuration")
        drawn, self._drawn = self._drawn, None
        positions = redex.participants
        located = drawn[1] if drawn is not None and drawn[0] is redex else self._locate(positions)
        participants = tuple([block.items[offset][1] for block, offset in located])
        signature = (redex.kind, *participants)
        move = self._moves.get(signature)
        if move is None:
            move = self._moves[signature] = _learn(redex, participants)
        rule, detail, halted, flat, replaced, sides = move
        if flat is None:  # a hoisted name must be fresh in the current threads
            results = dict(zip(positions, replaced))
            hoist = _fresh_names(self.protected, self.restrictions, self._iter_threads(), results)
            flat, halted = _flatten(positions, replaced, self.restrictions, hoist, halted)
        for _, (block, offset), threads in sorted(zip(positions, located, flat), reverse=True):
            self._replace(block, offset, threads)  # in reverse thread order, so each earlier offset stays valid
        for block, _ in located:
            self._tidy(block)
        self.halted = halted
        return rule, detail, *sides[positions[0] > positions[-1]]

    def _locate(self, positions: tuple[int, ...]) -> list[tuple[_Block, int]]:
        """The block holding each of ``positions``, in their order, and the
        offset there, found in one walk over the blocks."""
        pending = sorted(positions, reverse=True)
        if pending and pending[-1] < 0:
            raise IndexError("thread position out of range")
        found = {}
        start = 0
        for block in self._blocks:
            if not pending:
                break
            end = start + len(block.items)
            while pending and pending[-1] < end:
                k = pending.pop()
                found[k] = (block, k - start)
            start = end
        if pending:
            raise IndexError("thread position out of range")
        return [found[k] for k in positions]

    def _replace(self, block: _Block, offset: int, threads: Iterable[CastProcess]) -> None:
        old = block.items[offset]
        new = list(map(self._item, threads))
        block.items[offset : offset + 1] = new
        self._n += len(new) - 1
        if len(new) == 1 and new[0][0] == old[0] and new[0][2] == old[2]:
            # Same class and heads (a c-solve's pair): no count changes.
            self._hold(new[0], 1)
            self._hold(old, -1)
            return
        stays = old in new  # a replicated thread stays beside its copy
        if stays:
            new.remove(old)
        for item in new:
            _add(block.counts, item[0], 1)
            self._enter(item, 1)
        if not stays:
            _add(block.counts, old[0], -1)
            self._enter(old, -1)

    def _tidy(self, block: _Block) -> None:
        """Keep ``block`` between a quarter of and twice the target size: an
        empty or small block is merged into its successor (or dropped), a
        big one split."""
        size = self._size
        if size // 4 <= len(block.items) <= 2 * size:
            return
        b = next((b for b, other in enumerate(self._blocks) if other is block), None)
        if b is None:  # merged or split already
            return
        items, end = block.items, b + 1
        if len(items) < size // 4 and end < len(self._blocks):
            items, end = items + self._blocks[end].items, end + 1
        self._size = size = max(_MIN_BLOCK, isqrt(self._n))
        self._blocks[b:end] = [_Block(items[k : k + size]) for k in range(0, len(items), size)]


def _learn(redex: Redex, participants: tuple[CastProcess, ...]) -> tuple:
    """What ``redex`` does to ``participants``, kept for each later step
    with the same kind and participants: its rule, detail and halt, the
    flattened threads that replace each participant (``None`` when it
    hoists a restriction, whose name depends on the current threads), the
    unflattened ones, and the trace's before and after sides with the
    participants in order and reversed."""
    rule, detail, results, halted = _effects(redex, participants)
    replaced = tuple(tuple(results[k]) for k in redex.participants)
    hoisted: list = []
    flat, halted = _flatten(redex.participants, replaced, hoisted, lambda x: x, halted)
    sides = ((participants, sum(replaced, ())), (participants[::-1], sum(replaced[::-1], ())))
    return rule, detail, halted, None if hoisted else flat, replaced, sides


def _flatten(
    positions: tuple[int, ...], replaced: tuple, restrictions: list, hoist: Callable, halted: Optional[Halt]
) -> tuple[list, Optional[Halt]]:
    """The threads that replace each participant, flattened in thread order,
    in which hoisted names are picked, and the halt of the step."""
    halts: list[Halt] = []
    flat: list[list[CastProcess]] = [[] for _ in positions]
    for n in sorted(range(len(positions)), key=positions.__getitem__):
        for item in replaced[n]:
            _flatten_into(item, restrictions, flat[n], hoist, halts)
    return flat, halted or (halts[0] if halts else None)
