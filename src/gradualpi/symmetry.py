"""State keys up to a permutation of names.

The cast calculus is equivariant: renaming names consistently across a
whole state changes no reachable status, since no rule looks at a name
other than to compare it with another, and no type mentions a name.  So the
exhaustive explorer keys a state by a canonical form up to such a
renaming.  Free names permute among themselves; restricted names permute
among themselves and keep their types.

A thread's canonical form (bound names renumbered by position, see
``syntax.canonical``) is split once into a *skeleton*, the form with its
free names replaced by their positions in first-use order, and the tuple
of those names.  A state is then a multiset of (skeleton id, name tuple),
the types of its restrictions and its halt status.  A name private to one
thread stands for its kind alone.  The others are numbered by colour
refinement over the thread-name incidence; when that leaves no two names
tied, the numbering is canonical.  Otherwise the state is split into
parts that share no name, and each part's names are numbered by
refinement with individualisation where ties remain (McKay and Piperno,
*Practical Graph Isomorphism II*, J. Symb. Comput. 2014): each branch
individualises one class of the first tied cell and refines again, and
the least certificate over all leaves is the part's.  Names whose
transposition fixes the state (twins) are interchangeable, so a class of
twins is individualised at once, in any order, and never branched over.
Taking the least certificate of the branches makes the key exact: two
states get the same key if and only if a permutation of names relates
them.

``runtime`` imports this module on the first exhaustive run, so commands
that explore nothing do not compile it.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .syntax import CastChannel, CastProcess, Name, Type, free_occurrences, substitute

_POSITION_BASE = "#f"  # '#' cannot appear in a parsed identifier

_Thread = tuple[tuple, tuple[int, ...]]  # (skeleton id, private names' positions and kinds), the numbers of the others


class StateKeys:
    """One search's keys: each form's skeleton, computed once, and each
    state's key, canonicalised once per distinct state (keyed by its sorted
    thread ids, halt status and restrictions as written).  A key is a small
    int, equal for two states of one search exactly when a permutation of
    names relates them.  Names and types are numbered by arrival, so that
    a state's names hash as ints."""

    def __init__(self, forms: Sequence[CastProcess]):
        self._forms = forms  # canonical thread forms by id, as interned by the search
        self._shapes: list[tuple[int, tuple[int, ...]]] = []  # per form: skeleton id, free names in first-use order
        self._skeletons: dict[CastProcess, int] = {}
        self._names: dict[Name, int] = {}
        self._types: dict[Type, int] = {}
        self._seen: dict[tuple, int] = {}
        self._keys: dict[tuple, int] = {}

    def key(self, thread_ids: Sequence[int], status, restrictions: tuple[tuple[Name, Type], ...]) -> int:
        state = (tuple(sorted(thread_ids)), status, restrictions)
        found = self._seen.get(state)
        if found is None:
            certificate = self._certificate(state[0], restrictions), status
            found = self._seen[state] = self._keys.setdefault(certificate, len(self._keys))
        return found

    def _shape(self, i: int) -> tuple[int, tuple[int, ...]]:
        """Form ``i``'s skeleton id and free names' numbers."""
        shapes = self._shapes
        while len(shapes) <= i:
            form = self._forms[len(shapes)]
            names = tuple(dict.fromkeys(name for name, _ in free_occurrences(form)))
            if names:  # the form's bound names are ``#b``s, so nothing is captured
                form = substitute(form, {name: CastChannel(Name(_POSITION_BASE, k)) for k, name in enumerate(names)})
            numbers = tuple(self._names.setdefault(name, len(self._names)) for name in names)
            shapes.append((self._skeletons.setdefault(form, len(self._skeletons)), numbers))
        return shapes[i]

    def _certificate(self, ids: tuple[int, ...], restrictions) -> tuple:
        """The least certificate of the state: its threads with every name
        replaced by its canonical number, the kind of each number (free, or
        the type of a restricted name) and the types of unused restrictions.

        A name that occurs in one thread only (and not in a copy of it) is
        private to it: any renaming maps it to a private name of the image
        thread, so it is replaced by its kind in the thread's skeleton and
        left unnumbered.
        """
        types = {self._names.setdefault(x, len(self._names)): self._types.setdefault(t, len(self._types)) for x, t in restrictions}
        shapes = [(self._shape(i), n) for i, n in Counter(ids).items()]
        occurs: dict[int, int] = {}
        for (_, names), n in shapes:
            for v in names:
                occurs[v] = occurs.get(v, 0) + n
        number: dict[int, int] = {}
        threads: dict[_Thread, int] = {}
        for (skeleton, names), n in shapes:
            private = tuple([(k, types.get(v, -1)) for k, v in enumerate(names) if occurs[v] == 1])
            shared = tuple([number.setdefault(v, len(number)) for v in names if occurs[v] > 1])
            thread = (skeleton, private), shared
            threads[thread] = threads.get(thread, 0) + n
        kinds = [types.get(v, -1) for v in number]  # -1: free
        unused = tuple(sorted(k for v, k in types.items() if v not in occurs))
        if len(number) > 1:
            # Refinement alone most often numbers every name apart; only a
            # state with tied names is split into parts and individualised.
            items = list(threads.items())
            colour = _refine(items, kinds)
            if len(set(colour)) < len(colour):
                return tuple(sorted(map(_least_certificate, _components(items, kinds)))), unused
            threads = {(s, tuple([colour[v] for v in names])): n for (s, names), n in items}
            kinds.sort()  # ranks keep the order of kinds
        return tuple(sorted(threads.items())), tuple(kinds), unused


def _components(threads: list[tuple[_Thread, int]], kinds: list[int]) -> list[tuple[list, list[int]]]:
    """The state split into parts that share no name, each with its names
    renumbered from 0 in order of use, and their kinds.  A renaming maps
    parts onto parts, so the parts are canonicalised apart and their
    certificates sorted; symmetric parts are never branched over."""
    owner = list(range(len(kinds)))
    for (_, names), _ in threads:
        for v in names[1:]:
            owner[_find(owner, v)] = _find(owner, names[0])
    parts: dict[Optional[int], list] = {}
    for thread in threads:
        names = thread[0][1]
        parts.setdefault(_find(owner, names[0]) if names else None, []).append(thread)
    split = []
    for part in parts.values():
        number: dict[int, int] = {}
        renamed = [((s, tuple([number.setdefault(v, len(number)) for v in names])), n) for (s, names), n in part]
        split.append((renamed, [kinds[v] for v in number]))
    return split


def _least_certificate(part: tuple[list[tuple[_Thread, int]], list[int]]) -> tuple:
    """The least, over the leaves of the individualisation-refinement tree,
    of the sorted threads renumbered by a leaf's discrete colouring, and the
    kinds of the numbers."""
    threads, kinds = part
    twins: list[int] = []
    best: Optional[tuple] = None
    stack = [kinds]
    while stack:
        colour = _refine(threads, stack.pop())
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        # Every tied cell of one class of twins is individualised in place;
        # the first tied cell of several classes is branched over, a class
        # per branch.
        single, branching = [], None
        for c in sorted(cells):
            cell = cells[c]
            if len(cell) == 1:
                continue
            twins = twins or _twin_classes(threads, colour)
            if all(twins[v] == twins[cell[0]] for v in cell):
                single.append(cell)
            elif branching is None:
                branching = cell
        if not single and branching is None:
            certificate = tuple(sorted(((s, tuple([colour[v] for v in names])), n) for (s, names), n in threads))
            if best is None or certificate < best:
                best = certificate
            continue
        if branching is None:
            stack.append(_individualise(colour, single))
            continue
        branches: dict[int, list[int]] = {}
        for v in branching:
            branches.setdefault(twins[v], []).append(v)
        stack.extend(_individualise(colour, single + [members]) for members in branches.values())
    return best, tuple(sorted(kinds))


def _find(owner: list[int], v: int) -> int:
    """The root of ``v`` in the union-find forest ``owner``, halving the path."""
    while owner[v] != v:
        owner[v] = v = owner[owner[v]]
    return v


def _refine(threads: list[tuple[_Thread, int]], colour: list[int]) -> list[int]:
    """Colour refinement to a stable colouring: a name's next colour ranks
    its colour and the multiset of (thread colour, position) over the
    threads it occurs in, where a thread's colour is its skeleton and its
    names' colours.  Ranks keep the order of the colours they refine."""
    cells = len(set(colour))
    while True:
        signatures: list[list] = [[] for _ in colour]
        for (skeleton, names), count in threads:
            coloured = (skeleton, tuple([colour[v] for v in names]), count)
            for position, v in enumerate(names):
                signatures[v].append((coloured, position))
        keyed = [(c, tuple(sorted(s))) for c, s in zip(colour, signatures)]
        rank = {s: k for k, s in enumerate(sorted(set(keyed)))}
        colour = [rank[s] for s in keyed]
        if len(rank) in (cells, len(colour)):  # stable, or discrete
            return colour
        cells = len(rank)


def _individualise(colour: list[int], classes: list[list[int]]) -> list[int]:
    """``colour`` with each member of ``classes`` given a colour of its own,
    placed before the rest of its cell in member order."""
    width = len(colour) + 1
    spread = [c * width + width - 1 for c in colour]
    for members in classes:
        for k, v in enumerate(members):
            spread[v] = colour[v] * width + k
    return spread


def _twin_classes(threads: list[tuple[_Thread, int]], colour: list[int]) -> list[int]:
    """Each name's class of twins, numbered: twins are names whose
    transposition fixes the state.  Twins share every refined colour, so
    only names of one colour are compared."""
    occurs: list[list[int]] = [[] for _ in colour]
    for t, ((_, names), _) in enumerate(threads):
        for v in names:
            occurs[v].append(t)
    twins = list(range(len(colour)))
    firsts: dict[int, list[int]] = {}  # colour -> the first name of each class of that colour
    for v, c in enumerate(colour):
        for u in firsts.setdefault(c, []):
            if _swap_fixes(threads, occurs, u, v):
                twins[v] = u
                break
        else:
            firsts[c].append(v)
    return twins


def _swap_fixes(threads: list[tuple[_Thread, int]], occurs: list[list[int]], u: int, v: int) -> bool:
    """Whether swapping names ``u`` and ``v`` maps the state's threads onto themselves."""
    touched = [threads[t] for t in set(occurs[u] + occurs[v])]
    swap = {u: v, v: u}
    return dict(touched) == {(s, tuple([swap.get(x, x) for x in names])): n for (s, names), n in touched}
