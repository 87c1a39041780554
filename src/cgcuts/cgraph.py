"""Conflict graph construction and the hybrid clique/pairwise store.

Cliques are extracted per knapsack row in O(n log n): after sorting by
coefficient, the largest suffix whose smallest two members overload the
rhs forms the initial clique, and each literal below it is paired (by
binary search) with the shortest suffix it still conflicts with.  Those
extra cliques are kept as (literal, row, start) tuples rather than being
expanded, which is what keeps the loop out of quadratic territory.

After construction, every stored clique whose size is at most
``min_clq_size`` is dissolved into plain pairwise adjacency entries; the
remaining large cliques stay in the tuple store.  One walk over the
adjacency lists and the clique indices serves two queries: ``neighbors``
caches a sorted tuple per literal, which ``conflicting`` and ``degree``
read, and ``conflicts_among`` lists the conflicts inside a set of literals
without caching, so the split is invisible to callers.  The trivial
conflict between a literal and its complement is never stored and always
reported.

``greedy_extend`` grows a set of literals by intersecting neighbor lists;
clique strengthening, clique-cut extension and odd-wheel lifting all call
it with their own candidate order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
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
    items = sorted(row.literals, key=lambda t: (t[1], t[0]))
    lits = [t[0] for t in items]
    a = [t[1] for t in items]
    b = row.rhs
    m = len(a)
    if m < 2 or not a[m - 2] + a[m - 1] > b + EPS:
        return RowCliques([], [])

    # Smallest k with a[k] + a[k+1] > b; the predicate is monotone.
    lo, hi = 0, m - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] + a[mid + 1] > b + EPS:
            hi = mid
        else:
            lo = mid + 1
    k = lo
    initial = lits[k:]

    addtl: list[tuple[int, int]] = []
    for o in range(k - 1, -1, -1):
        if not a[o] + a[m - 1] > b + EPS:
            break  # coefficients only shrink from here on
        lo2, hi2 = o + 1, m - 1
        while lo2 < hi2:
            mid = (lo2 + hi2) // 2
            if a[o] + a[mid] > b + EPS:
                hi2 = mid
            else:
                lo2 = mid + 1
        f = lo2
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
    cliques/tuples containing it.  ``first_stored[c]`` is False once a
    first clique has been dissolved into pairwise entries; its row data
    stays because tuples may still reference it.
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
        """All literals conflicting with a, sorted; always includes the complement."""
        cached = self._nbrs.get(a)
        if cached is not None:
            return cached
        result = tuple(sorted(self._walk((a,))[a]))
        self._nbrs[a] = result
        return result

    def conflicts_among(self, lits: Iterable[int]) -> dict[int, list[int]]:
        """For each literal of ``lits``, the sorted literals of ``lits``
        conflicting with it.  Fills no cache: a stored clique is read once
        for the whole set, not once per member."""
        within = set(lits)
        return {a: sorted(s) for a, s in self._walk(within, within).items()}

    def _walk(self, lits: Iterable[int],
              within: set[int] | None = None) -> dict[int, set[int]]:
        """The one walk over the adjacency lists and the clique indices:
        for each literal of ``lits``, the literals conflicting with it (only
        those in ``within`` when given).  A stored clique is filtered once,
        however many of ``lits`` it holds, and a tuple's suffix is read
        only by its outside literal."""
        st = self.store
        out: dict[int, set[int]] = {}
        inside: dict[int, set[int]] = {}  # stored clique -> its members in ``within``
        for a in lits:
            s = set(self.adjlist[a])
            s.add(self.complement(a))
            if within is not None:
                s.intersection_update(within)
            for c in st.adjfirst[a]:
                if within is None:
                    s.update(st.first[c])
                else:
                    members = inside.get(c)
                    if members is None:
                        members = inside[c] = within.intersection(st.first[c])
                    s.update(members)
            for t in st.adjaddtl[a]:
                lit, c, l = st.addtl[t]
                if lit == a:  # the one holder that reads the suffix
                    suffix = st.first[c][l - 1:]
                    s.update(suffix if within is None else within.intersection(suffix))
                elif within is None or lit in within:
                    # A suffix member reaches the rest of the suffix through
                    # first[c], stored or dissolved into pairs.
                    s.add(lit)
            s.discard(a)
            out[a] = s
        return out

    def degree(self, a: int) -> int:
        return len(self.neighbors(a))

    def edge_set(self) -> set[frozenset[int]]:
        """All stored (non-trivial) conflict edges."""
        edges: set[frozenset[int]] = set()
        for a in range(self.n_nodes):
            comp = self.complement(a)
            for b in self.neighbors(a):
                if b != comp:
                    edges.add(frozenset((a, b)))
        return edges

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
    store = CliqueStore()
    pair_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    detected = 0

    for row in instance.rows:
        for krow in normalize_to_knapsack(row, instance):
            rc = detect_cliques_compressed(krow)
            if not rc.initial:
                continue
            detected += 1 + len(rc.addtl)
            c = len(store.first)
            store.first.append(rc.initial)
            for lit, l in rc.addtl:
                store.addtl.append((lit, c, l))

    def add_pair(u: int, v: int) -> None:
        pair_sets[u].add(v)
        pair_sets[v].add(u)

    store.first_stored = [len(f) > min_clq_size for f in store.first]
    for c, f in enumerate(store.first):
        if not store.first_stored[c]:
            for i in range(len(f)):
                for k in range(i + 1, len(f)):
                    add_pair(f[i], f[k])

    kept: list[tuple[int, int, int]] = []
    for lit, c, l in store.addtl:
        if len(store.first[c]) - l + 2 <= min_clq_size:
            # Suffix-internal pairs are covered by first[c] (stored or
            # dissolved above); only the outside literal needs new edges.
            for v in store.first[c][l - 1:]:
                add_pair(lit, v)
        else:
            kept.append((lit, c, l))
    store.addtl = kept

    store.adjfirst = [[] for _ in range(n_nodes)]
    store.adjaddtl = [[] for _ in range(n_nodes)]
    for c in range(len(store.first)):
        if store.first_stored[c]:
            for v in store.first[c]:
                store.adjfirst[v].append(c)
    for t, (lit, c, l) in enumerate(store.addtl):
        store.adjaddtl[lit].append(t)
        for v in store.first[c][l - 1:]:
            store.adjaddtl[v].append(t)

    adjlist = [sorted(s) for s in pair_sets]
    return ConflictGraph(n, store, adjlist, detected)
