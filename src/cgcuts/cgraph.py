"""Conflict graph construction and the hybrid clique/pairwise store.

Cliques are extracted per knapsack row in O(n log n): after sorting by
coefficient, the largest suffix whose smallest two members overload the
rhs forms the initial clique, and each literal below it is paired with
the shortest suffix it still conflicts with.  ``bisect`` finds each
boundary, keyed by the pair-sum test.  Those extra cliques are kept as
(literal, row, start) tuples rather than being expanded, which is what
keeps the loop out of quadratic territory.

``build`` stores or dissolves each clique as soon as it is detected: a
clique of more than ``min_clq_size`` members stays in the tuple store, a
smaller one is filed under each of its members (a dissolved tuple files
its suffix under its outside literal, and that literal under each suffix
member).  Once the rows are read, each literal's filed cliques are
expanded, once, into its sorted pairwise adjacency list, so only one
literal's expansion is held beside the graph.  One walk over
the adjacency lists and the clique indices gives a literal's conflicts as
a small pairwise part plus the stored cliques and tuple suffixes that
hold it, so the split is invisible to callers.

Three readers take those stored blocks whole and fill no neighbor cache:
``degree`` counts a literal in one block from the block's size,
``conflicts_among`` reads each stored clique once per call, and
``greedy_extend`` tests only the candidates outside a stored clique that
holds its whole seed.  Counting the edges of a stored k-literal clique or
extending a row inside it thus costs O(k), not O(k^2).  ``neighbors``
expands the blocks and caches a sorted tuple per literal, for the readers
that ask again and again: ``conflicting``, the clique separator's
subgraph, the seed members of an extension and each joining literal that
lies in no stored block.  The trivial conflict between a literal and its
complement is never stored and always reported.

``greedy_extend`` grows a set of literals by intersecting conflicts;
clique strengthening, clique-cut extension and odd-wheel lifting all call
it with their own candidate order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable

from .model import (
    EPS,
    KnapsackRow,
    MilpInstance,
    complement_node,
    normalize_to_knapsack,
)


@dataclass
class RowCliques:
    """Cliques of one knapsack row in compressed form.

    ``initial`` is the first clique in non-decreasing coefficient order.
    Each additional clique is (literal, l) with l the 1-based position in
    ``initial`` where its shared suffix starts.
    """

    initial: list[int]
    addtl: list[tuple[int, int]]


def detect_cliques_compressed(row: KnapsackRow) -> RowCliques:
    items = sorted(row.literals, key=itemgetter(1, 0))  # (coefficient, literal)
    lits = [t[0] for t in items]
    a = [t[1] for t in items]
    bound = row.rhs + EPS
    m = len(a)
    if m < 2 or not a[m - 2] + a[m - 1] > bound:
        return RowCliques([], [])

    # Smallest k with a[k] + a[k+1] > rhs; the predicate is monotone, and
    # False sorts before True.
    k = bisect.bisect_left(range(m), True, 0, m - 2,
                           key=lambda i: a[i] + a[i + 1] > bound)
    initial = lits[k:]

    addtl: list[tuple[int, int]] = []
    for o in range(k - 1, -1, -1):
        if not a[o] + a[m - 1] > bound:
            break  # coefficients only shrink from here on
        # Smallest f > o with a[o] + a[f] > rhs.
        f = bisect.bisect_left(range(m), True, o + 1, m - 1,
                               key=lambda j: a[o] + a[j] > bound)
        assert f > k  # the suffix is always inside the initial clique
        addtl.append((lits[o], f - k + 1))
    return RowCliques(initial, addtl)


def detect_cliques(row: KnapsackRow) -> list[frozenset[int]]:
    """Expanded clique sets of one knapsack row (empty list if none)."""
    rc = detect_cliques_compressed(row)
    if not rc.initial:
        return []
    out = [frozenset(rc.initial)]
    for lit, l in rc.addtl:
        out.append(frozenset([lit, *rc.initial[l - 1:]]))
    return out


@dataclass
class CliqueStore:
    """Tuple-compressed clique storage.

    ``first[c]`` holds the initial clique of the c-th clique-bearing row in
    coefficient order.  ``addtl`` holds tuples (literal, c, l): the clique
    {literal} with positions l..len(first[c]) of ``first[c]`` (l is
    1-based).  ``adjfirst``/``adjaddtl`` index, per node, the stored
    cliques/tuples containing it.  ``first_stored[c]`` is False when the
    first clique was dissolved into pairwise entries instead.  Only the
    tuples larger than ``min_clq_size`` are kept, and none reads a
    dissolved first clique: detection gives every tuple l >= 2, so a tuple
    has at most ``len(first[c])`` members, and a kept one leaves
    ``first[c]`` larger than ``min_clq_size`` too, hence stored.
    """

    first: list[list[int]] = field(default_factory=list)
    addtl: list[tuple[int, int, int]] = field(default_factory=list)
    first_stored: list[bool] = field(default_factory=list)
    adjfirst: list[list[int]] = field(default_factory=list)
    adjaddtl: list[list[int]] = field(default_factory=list)


@dataclass
class ConflictGraph:
    """Immutable once built; safe for concurrent readers (the neighbor and
    member-position caches only memoize already-derivable answers)."""

    n_vars: int
    store: CliqueStore
    adjlist: list[list[int]]
    cliques_detected: int = 0
    _nbrs: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)
    _pos: dict[int, dict[int, int]] = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_vars

    def complement(self, node: int) -> int:
        return complement_node(node, self.n_vars)

    def conflicting(self, a: int, b: int) -> bool:
        """True iff literals a and b cannot both be active."""
        nbrs = self.neighbors(a)
        i = bisect.bisect_left(nbrs, b)
        return i < len(nbrs) and nbrs[i] == b

    def neighbors(self, a: int) -> tuple[int, ...]:
        """All literals conflicting with a, sorted; always includes the
        complement.  The one query that fills the cache: ``conflicting``,
        the clique separator and the extension of pairwise-only literals
        read the same literals again and again."""
        cached = self._nbrs.get(a)
        if cached is not None:
            return cached
        result = tuple(sorted(self._union(a, *self._parts(a))))
        self._nbrs[a] = result
        return result

    def _parts(self, a: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The one walk over the adjacency lists and the clique indices:
        the literals conflicting with a as a small pairwise part plus the
        stored blocks that hold them.  A block (c, s) stands for
        ``first[c][s:]``: s is 0 for a stored clique holding a, and the
        suffix start for a tuple whose outside literal is a.  The small
        part holds a's adjacency list, its complement and the outside
        literal of each tuple whose suffix holds a; it never holds a.
        A suffix member reaches the rest of the suffix through first[c],
        which is stored whenever the tuple is."""
        st = self.store
        small = set(self.adjlist[a])
        small.add(self.complement(a))
        blocks = [(c, 0) for c in st.adjfirst[a]]
        for t in st.adjaddtl[a]:
            lit, c, l = st.addtl[t]
            if lit == a:  # the one holder that reads the suffix
                blocks.append((c, l - 1))
            else:
                small.add(lit)
        return small, blocks

    def _union(self, a: int, small: set[int], blocks: list[tuple[int, int]]) -> set[int]:
        """``small`` grown by the members of ``blocks``, less a."""
        first = self.store.first
        for c, s in blocks:
            small.update(first[c][s:] if s else first[c])
        small.discard(a)
        return small

    def _members(self, c: int) -> dict[int, int]:
        """Each member of the stored clique c with its position in
        ``first[c]``; built once per clique on first use."""
        pos = self._pos.get(c)
        if pos is None:
            pos = self._pos[c] = {v: i for i, v in enumerate(self.store.first[c])}
        return pos

    def degree(self, a: int) -> int:
        """Number of literals conflicting with a, complement included.
        Fills no neighbor cache: a literal in one stored block counts the
        block's members other than itself plus the members of its small
        part outside the block."""
        small, blocks = self._parts(a)
        if len(blocks) != 1:
            return len(self._union(a, small, blocks))
        [(c, s)] = blocks
        pos = self._members(c)
        outside = (len(small.difference(pos)) if s == 0
                   else sum(pos.get(v, -1) < s for v in small))
        # first[c][s:] holds a only when it is a's own stored clique (s == 0).
        return len(self.store.first[c]) - s - (s == 0) + outside

    def conflicts_among(self, lits: Iterable[int]) -> dict[int, list[int]]:
        """For each literal of ``lits``, the sorted literals of ``lits``
        conflicting with it.  Fills no neighbor cache, and reads each
        stored clique once per call: the positions of its members in
        ``lits``, from which every block keeps the positions past its
        start."""
        within = set(lits)
        first = self.store.first
        active: dict[int, list[int]] = {}
        out = {}
        for a in within:
            small, blocks = self._parts(a)
            near = within.intersection(small)
            for c, s in blocks:
                at = active.get(c)
                if at is None:
                    at = active[c] = [i for i, v in enumerate(first[c]) if v in within]
                near.update(first[c][i] for i in at[bisect.bisect_left(at, s):])
            near.discard(a)
            out[a] = sorted(near)
        return out

    def _holder(self, lits: set[int]) -> dict[int, int]:
        """The members of the first stored clique that holds every literal
        of ``lits``, with their positions; empty when no clique does."""
        adjfirst = self.store.adjfirst
        held = adjfirst[min(lits)]
        if held:
            held = set(held).intersection(*(adjfirst[v] for v in lits))
        return self._members(min(held)) if held else {}

    def _conflicting_in(self, a: int, cands: set[int]) -> set[int]:
        """The members of ``cands`` conflicting with a.  A literal in no
        stored clique and no tuple reads its cached neighbors; any other
        tests each candidate against its small part and its blocks."""
        st = self.store
        if not cands:
            return cands
        if not (st.adjfirst[a] or st.adjaddtl[a]):
            return cands.intersection(self.neighbors(a))
        small, blocks = self._parts(a)
        held = [(self._members(c), s) for c, s in blocks]
        return {v for v in cands if v != a and (
            v in small or any(pos.get(v, -1) >= s for pos, s in held))}

    def dump(self, instance: MilpInstance) -> str:
        """Debug listing: stored cliques, tuples and adjacency lists."""
        lines = []
        st = self.store
        for c in range(len(st.first)):
            if st.first_stored[c]:
                lines.append(f"C {c}: " + " ".join(instance.node_name(v) for v in st.first[c]))
        for lit, c, l in st.addtl:
            lines.append(f"T {instance.node_name(lit)} {c} {l}")
        for a in range(self.n_nodes):
            if self.adjlist[a]:
                lines.append(f"A {instance.node_name(a)}: "
                             + " ".join(instance.node_name(v) for v in self.adjlist[a]))
        return "\n".join(lines) + ("\n" if lines else "")


def greedy_extend(g: ConflictGraph, seed: Iterable[int],
                  order_key: Callable[[int], tuple],
                  common: Iterable[int] | None = None) -> frozenset[int]:
    """Greedily add literals conflicting with the whole seed and each other.

    The common neighborhood of the seed is visited in ``order_key`` order;
    a literal joins if it is still in the common neighborhood, which then
    shrinks to that literal's neighbors.  The seed need not be a clique.
    ``order_key`` must be a total order (every key ends in the node id),
    so the result does not depend on set iteration order.  A caller that
    already knows the common neighborhood (or the part of it that can
    join) passes it as ``common``.

    When one stored clique holds the whole seed, the candidates inside it
    conflict with the seed and with every literal of it that joins, so
    such a join tests only the candidates outside it: extending a seed
    inside a stored k-clique costs O(k), not O(k^2), and caches only the
    seed members' neighbors.
    """
    ext = set(seed)
    if not ext:
        return frozenset()
    if common is None:
        nbrs = sorted((g.neighbors(m) for m in ext), key=len)
        outside = set(nbrs[0]).intersection(*nbrs[1:])
    else:
        outside = set(common)
    order = sorted(outside, key=order_key)
    inside = g._holder(ext).keys() & outside
    outside -= inside
    for lit in order:
        if lit in outside:
            inside = g._conflicting_in(lit, inside)
        elif lit in inside:
            inside.discard(lit)
        else:
            continue
        ext.add(lit)
        outside = g._conflicting_in(lit, outside)
    return frozenset(ext)


def build(instance: MilpInstance, min_clq_size: int = 512) -> ConflictGraph:
    """Build the conflict graph of an instance.

    Every row over binary variables is normalized to knapsack form and fed
    to the clique detector; rows touching non-binary variables contribute
    nothing.  A clique of more than ``min_clq_size`` members is stored; a
    smaller one is filed under its members and, after the last row, each
    literal's adjacency list is expanded once from what it holds.
    Identical output for identical input: all iteration orders are fixed.
    A negative ``min_clq_size`` raises ``ValueError``.
    """
    if min_clq_size < 0:
        raise ValueError(f"min_clq_size must be >= 0, not {min_clq_size!r}")
    n = instance.n_vars
    n_nodes = 2 * n
    store = CliqueStore(adjfirst=[[] for _ in range(n_nodes)],
                        adjaddtl=[[] for _ in range(n_nodes)])
    # The dissolved cliques, tuple suffixes and tuple literals that hold
    # each literal, filed as the rows are read.  At the end each literal's
    # list is expanded once and replaced by its sorted adjacency list.
    filed: list[list] = [[] for _ in range(n_nodes)]
    detected = 0

    for row in instance.rows:
        for krow in normalize_to_knapsack(row, instance):
            rc = detect_cliques_compressed(krow)
            initial = rc.initial
            if not initial:
                continue
            detected += 1 + len(rc.addtl)
            c = len(store.first)
            stored = len(initial) > min_clq_size
            store.first.append(initial)
            store.first_stored.append(stored)
            index, entry = (store.adjfirst, c) if stored else (filed, initial)
            for v in initial:
                index[v].append(entry)
            for lit, l in rc.addtl:
                suffix = initial[l - 1:]
                if len(suffix) + 1 > min_clq_size:
                    index, entry = store.adjaddtl, len(store.addtl)
                    store.addtl.append((lit, c, l))
                    index[lit].append(entry)
                else:
                    # Suffix-internal pairs are covered by ``initial``;
                    # only the outside literal needs new edges.
                    index, entry = filed, (lit,)
                    filed[lit].append(suffix)
                for v in suffix:
                    index[v].append(entry)

    union = set().union  # a new set of the members of its arguments
    for v, held in enumerate(filed):
        near = union(*held)
        near.discard(v)
        filed[v] = sorted(near)
    return ConflictGraph(n, store, filed, detected)
