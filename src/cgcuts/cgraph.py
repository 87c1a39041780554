"""Conflict graph construction and the hybrid clique/pairwise store.

Cliques are extracted per knapsack row in O(n log n): after sorting by
coefficient, the largest suffix whose smallest two members overload the
rhs forms the initial clique, and each literal below it is paired with
the shortest suffix it still conflicts with.  ``bisect`` finds each
boundary, keyed by the pair-sum test.  Those extra cliques are kept as
(literal, row, start) tuples rather than being expanded, which is what
keeps the loop out of quadratic territory.

``build`` stores or dissolves each clique as soon as it is detected: a
clique of at most ``min_clq_size`` members becomes plain pairwise
adjacency entries, a larger one stays in the tuple store.  One walk over the
adjacency lists and the clique indices lists the literals conflicting with
one literal, so the split is invisible to callers.  Only ``neighbors``
caches, a sorted tuple per literal, for the readers that ask again and
again: ``conflicting``, ``greedy_extend``, the clique separator and the
presolve order.  ``conflicts_among`` and ``degree`` walk afresh and
fill no cache, so counting the edges of a stored k-literal clique holds
one member's neighbors at a time, not k of them.  The trivial
conflict between a literal and its complement is never stored and always
reported.

``greedy_extend`` grows a set of literals by intersecting neighbor lists;
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
    """Immutable once built; safe for concurrent readers (the neighbor
    cache only memoizes already-derivable answers)."""

    n_vars: int
    store: CliqueStore
    adjlist: list[list[int]]
    cliques_detected: int = 0
    _nbrs: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)

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
        ``greedy_extend``, the clique separator and the presolve order read
        the same literals again and again."""
        cached = self._nbrs.get(a)
        if cached is not None:
            return cached
        result = tuple(sorted(self._walk(a)))
        self._nbrs[a] = result
        return result

    def conflicts_among(self, lits: Iterable[int]) -> dict[int, list[int]]:
        """For each literal of ``lits``, the sorted literals of ``lits``
        conflicting with it.  Fills no cache."""
        within = set(lits)
        return {a: sorted(within.intersection(self._walk(a))) for a in within}

    def _walk(self, a: int) -> set[int]:
        """The one walk over the adjacency lists and the clique indices:
        the literals conflicting with a.  A tuple's suffix is read only by
        its outside literal."""
        st = self.store
        s = set(self.adjlist[a])
        s.add(self.complement(a))
        for c in st.adjfirst[a]:
            s.update(st.first[c])
        for t in st.adjaddtl[a]:
            lit, c, l = st.addtl[t]
            if lit == a:  # the one holder that reads the suffix
                s.update(st.first[c][l - 1:])
            else:
                # A suffix member reaches the rest of the suffix through
                # first[c], which is stored whenever the tuple is.
                s.add(lit)
        s.discard(a)
        return s

    def degree(self, a: int) -> int:
        """Number of literals conflicting with a, complement included.
        Fills no cache, so counting every degree holds one literal's
        neighbors at a time."""
        return len(self._walk(a))

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
    """
    ext = set(seed)
    if not ext:
        return frozenset()
    if common is None:
        nbrs = sorted((g.neighbors(m) for m in ext), key=len)
        common = set(nbrs[0]).intersection(*nbrs[1:])
    else:
        common = set(common)
    for lit in sorted(common, key=order_key):
        if lit in common:
            ext.add(lit)
            common.intersection_update(g.neighbors(lit))
    return frozenset(ext)


def build(instance: MilpInstance, min_clq_size: int = 512) -> ConflictGraph:
    """Build the conflict graph of an instance.

    Every row over binary variables is normalized to knapsack form and fed
    to the clique detector; rows touching non-binary variables contribute
    nothing.  Identical output for identical input: all iteration orders
    are fixed.
    """
    n = instance.n_vars
    n_nodes = 2 * n
    store = CliqueStore(adjfirst=[[] for _ in range(n_nodes)],
                        adjaddtl=[[] for _ in range(n_nodes)])
    pair_sets: list[set[int]] = [set() for _ in range(n_nodes)]
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
            for v in initial:
                if stored:
                    store.adjfirst[v].append(c)
                else:
                    pair_sets[v].update(initial)  # v itself is dropped below
            for lit, l in rc.addtl:
                suffix = initial[l - 1:]
                if len(suffix) + 1 > min_clq_size:
                    t = len(store.addtl)
                    store.addtl.append((lit, c, l))
                    for v in (lit, *suffix):
                        store.adjaddtl[v].append(t)
                else:
                    # Suffix-internal pairs are covered by ``initial``;
                    # only the outside literal needs new edges.
                    pair_sets[lit].update(suffix)
                    for v in suffix:
                        pair_sets[v].add(lit)

    for v, s in enumerate(pair_sets):
        s.discard(v)
    adjlist = [sorted(s) for s in pair_sets]
    return ConflictGraph(n, store, adjlist, detected)
