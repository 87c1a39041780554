"""Conflict graph construction and the hybrid clique/pairwise store.

Every row is read through ``model``'s one knapsack direction rule.  A row
whose terms are all binary with coefficient 1 or -1 is read by
``unit_knapsacks``, the rule's directions with their literals sorted: each
direction whose rhs any two literals overload is one clique of all its
literals, with no tuples, so the row is neither weighted nor sorted by
coefficient.  Cliques of any other row are extracted from
``normalize_to_knapsack``'s rows in O(n log n): after sorting by
coefficient, the largest suffix whose smallest two members overload the
rhs forms the initial clique, and each literal below it is paired with
the shortest suffix it still conflicts with.  ``bisect`` finds each
boundary, keyed by the pair-sum test.  Those extra cliques are kept as
(literal, row, start) tuples rather than being expanded, which is what
keeps the loop out of quadratic territory.  Both paths give the same
cliques for a +-1 row.

``build`` stores or dissolves each clique as soon as it is detected: a
clique of more than ``min_clq_size`` members stays in the tuple store, a
smaller one is filed under each of its members (a dissolved tuple files
its suffix under its outside literal).  Every tuple, stored or dissolved,
files its outside literal under each suffix member.  Once the rows are
read, each literal's filed cliques are expanded, once, into its sorted
pairwise adjacency tuple, with its complement, so only one literal's
expansion is held beside the graph.  Each literal also keeps one list of
the stored blocks whose members all conflict with it: its stored cliques
and the suffix of each stored tuple it is the outside literal of.  A
literal's conflicts are its adjacency tuple and its blocks' members, so
the split is invisible to callers.

Nothing caches a literal's conflicts.  For a literal in no stored block
``neighbors`` returns its adjacency tuple itself, and for any other it
builds a new tuple from its blocks.  ``degree`` counts a literal in
stored blocks from the size of their union, memoized per block list,
``conflicts_among`` and ``conflicting`` intersect the candidates with the
tuple and with each block's member set, cached once per block, and
``greedy_extend`` tests only the candidates outside a stored clique that
holds its whole seed.  Counting the edges of stored k-literal cliques,
overlapping or not, or extending a row inside one thus costs O(k), not
O(k^2).

``greedy_extend`` grows a set of literals by intersecting conflicts;
clique strengthening, clique-cut extension and odd-wheel lifting all call
it with their own candidate order.  Most rows cannot grow, and such a
seed costs its smallest member list and the lists read until the common
neighborhood runs empty, not every member's list.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable
from operator import itemgetter

from .model import (
    EPS,
    KnapsackRow,
    MilpInstance,
    _Record,
    complement_node,
    normalize_to_knapsack,
    unit_knapsacks,
)


class RowCliques(_Record):
    """Cliques of one knapsack row in compressed form.

    ``initial`` is the first clique in non-decreasing coefficient order.
    Each additional clique is (literal, l) with l the 1-based position in
    ``initial`` where its shared suffix starts.
    """

    _fields = ("initial", "addtl")

    def __init__(self, initial: list[int], addtl: list[tuple[int, int]]):
        self.initial, self.addtl = initial, addtl


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


class CliqueStore(_Record):
    """Tuple-compressed clique storage.

    ``first[c]`` holds the initial clique of the c-th clique-bearing row in
    coefficient order.  ``addtl`` holds tuples (literal, c, l): the clique
    {literal} with positions l..len(first[c]) of ``first[c]`` (l is
    1-based).  ``first_stored[c]`` is False when the first clique was
    dissolved into pairwise entries instead.  ``blocks[a]`` lists the
    stored blocks (c, s) whose members ``first[c][s:]`` all conflict with
    literal a: (c, 0) for each stored clique holding a, and (c, l - 1) for
    each stored tuple whose outside literal is a.  Only the tuples larger
    than ``min_clq_size`` are kept, and none reads a dissolved first
    clique: detection gives every tuple l >= 2, so a tuple has at most
    ``len(first[c])`` members, and a kept one leaves ``first[c]`` larger
    than ``min_clq_size`` too, hence stored.  Each list not given starts
    empty.
    """

    _fields = ("first", "addtl", "first_stored", "blocks")

    def __init__(self, first: list[list[int]] | None = None,
                 addtl: list[tuple[int, int, int]] | None = None,
                 first_stored: list[bool] | None = None,
                 blocks: list[list[tuple[int, int]]] | None = None):
        self.first = [] if first is None else first
        self.addtl = [] if addtl is None else addtl
        self.first_stored = [] if first_stored is None else first_stored
        self.blocks = [] if blocks is None else blocks


class ConflictGraph(_Record):
    """Immutable once built; safe for concurrent readers (the memos only
    hold already-derivable answers).

    The literals conflicting with a are ``adjlist[a]`` and the members of
    ``store.blocks[a]``, less a itself.  ``adjlist[a]`` is a sorted tuple
    that holds a's complement and never a: every clique comes from one
    row, and a row holds each variable once.

    Two memos, filled on first use and left out of ``==`` and ``repr``:
    ``_sets`` maps a stored block (c, s) to the frozenset of its members,
    and ``_sizes`` maps a literal's block list, as a tuple, to the size of
    the union of its blocks' members, which every literal with that list
    shares."""

    _fields = ("n_vars", "store", "adjlist", "cliques_detected")

    def __init__(self, n_vars: int, store: CliqueStore, adjlist: list[tuple[int, ...]],
                 cliques_detected: int = 0):
        self.n_vars, self.store, self.adjlist = n_vars, store, adjlist
        self.cliques_detected = cliques_detected
        self._sets: dict[tuple[int, int], frozenset[int]] = {}
        self._sizes: dict[tuple[tuple[int, int], ...], int] = {}

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_vars

    def complement(self, node: int) -> int:
        return complement_node(node, self.n_vars)

    @property
    def adj_entries(self) -> int:
        """Pairwise conflicts stored in ``adjlist``, complements left out."""
        return sum(map(len, self.adjlist)) - self.n_nodes

    def conflicting(self, a: int, b: int) -> bool:
        """True iff literals a and b cannot both be active.  Walks a's
        adjacency tuple, so one call costs O(degree(a))."""
        return b in self._conflicting_in(a, {b})

    def neighbors(self, a: int) -> tuple[int, ...]:
        """All literals conflicting with a, sorted; always includes the
        complement.  A literal in no stored block gets its adjacency tuple
        itself; any other gets a new tuple that adds its blocks' members."""
        return tuple(sorted(self._near(a))) if self.store.blocks[a] else self.adjlist[a]

    def _near(self, a: int) -> set[int]:
        """The literals conflicting with a, as a new set."""
        first = self.store.first
        near = set(self.adjlist[a])
        for c, s in self.store.blocks[a]:
            near.update(first[c][s:])
        near.discard(a)
        return near

    def _members(self, c: int, s: int) -> frozenset[int]:
        """The members ``first[c][s:]`` of a stored block; built once per
        block on first use."""
        members = self._sets.get((c, s))
        if members is None:
            members = self._sets[c, s] = frozenset(self.store.first[c][s:])
        return members

    def degree(self, a: int) -> int:
        """Number of literals conflicting with a, complement included.
        Builds no neighbor tuple: a literal in no stored block counts its
        adjacency tuple, and any other counts the union of its blocks'
        members other than itself, whose size is memoized per block list,
        plus its pairwise conflicts outside every block.  So it costs
        O(len(adjlist[a]) * len(blocks[a])) once the union is known, not
        the size of the union."""
        blocks = self.store.blocks[a]
        if not blocks:
            return len(self.adjlist[a])
        sets = [self._members(c, s) for c, s in blocks]
        key = tuple(blocks)
        size = self._sizes.get(key)
        if size is None:
            size = self._sizes[key] = len(frozenset().union(*sets))
        outside = set(self.adjlist[a])
        for members in sets:
            outside = outside.difference(members)  # walks outside, not a larger block
        # The blocks hold a only in its own stored cliques (s == 0).
        return size - any(s == 0 for _, s in blocks) + len(outside)

    def conflicts_among(self, lits: Iterable[int]) -> dict[int, list[int]]:
        """For each literal of ``lits``, the sorted literals of ``lits``
        conflicting with it.  Builds no neighbor tuple."""
        within = set(lits)
        return {a: sorted(self._conflicting_in(a, within)) for a in within}

    def _holder(self, lits: set[int]) -> frozenset[int]:
        """The members of the first stored clique that holds every literal
        of ``lits``; empty when no clique does."""
        blocks = self.store.blocks
        held = {c for c, s in blocks[min(lits)] if not s}
        for v in lits:
            if held:
                held.intersection_update(c for c, s in blocks[v] if not s)
        return self._members(min(held), 0) if held else frozenset()

    def _conflicting_in(self, a: int, cands: set[int]) -> set[int]:
        """The members of ``cands`` conflicting with a: those in its
        adjacency tuple and the members of its stored blocks.  Each
        block's intersection walks the smaller of ``cands`` and the
        block."""
        if not cands:
            return set()
        out = cands.intersection(self.adjlist[a])
        for c, s in self.store.blocks[a]:
            out |= cands & self._members(c, s)
        out.discard(a)
        return out

    def dump(self, instance: MilpInstance) -> str:
        """Debug listing: stored cliques, tuples and adjacency lists,
        each literal's complement left out."""
        lines = []
        st = self.store
        for c in range(len(st.first)):
            if st.first_stored[c]:
                lines.append(f"C {c}: " + " ".join(instance.node_name(v) for v in st.first[c]))
        for lit, c, l in st.addtl:
            lines.append(f"T {instance.node_name(lit)} {c} {l}")
        for a, adj in enumerate(self.adjlist):
            comp = self.complement(a)
            names = [instance.node_name(v) for v in adj if v != comp]
            if names:
                lines.append(f"A {instance.node_name(a)}: " + " ".join(names))
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
    join) passes it as ``common``.  Otherwise the seed is dropped from the
    smallest of its members' neighbor lists, and the other lists are
    intersected one at a time until nothing is left.  A seed with no
    common neighbor is returned as it is, with no sort.

    When one stored clique holds the whole seed, the candidates inside it
    conflict with the seed and with every literal of it that joins, so
    such a join tests only the candidates outside it: extending a seed
    inside a stored k-clique costs O(k), not O(k^2), and reads only the
    seed members' neighbors.
    """
    ext = set(seed)
    if not ext:
        return frozenset()
    if common is None:
        first, *rest = sorted(map(g.neighbors, ext), key=len)
        outside = set(first).difference(ext)
        for nbrs in rest:
            if not outside:
                break
            outside.intersection_update(nbrs)
    else:
        outside = set(common)
    if not outside:
        return frozenset(ext)
    order = sorted(outside, key=order_key)
    inside = outside & g._holder(ext)
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

    A row whose terms are all binary with coefficient 1 or -1 is read by
    ``unit_knapsacks``: each direction with two literals or more that
    overload its rhs is one clique of all of them.  Every other row over
    binary variables is normalized to knapsack form and fed to the clique
    detector, which finds the same cliques for a +-1 row.  Rows touching
    non-binary variables contribute nothing.  A clique of more than
    ``min_clq_size`` members is stored; a smaller one is filed under its
    members and, after the last row, each literal's adjacency tuple is
    expanded once from what it holds, with its complement.
    Identical output for identical input: all iteration orders are fixed.
    A negative ``min_clq_size`` raises ``ValueError``.
    """
    if min_clq_size < 0:
        raise ValueError(f"min_clq_size must be >= 0, not {min_clq_size!r}")
    n = instance.n_vars
    n_nodes = 2 * n
    store = CliqueStore(blocks=[[] for _ in range(n_nodes)])
    # The dissolved cliques, tuple suffixes and tuple literals that hold
    # each literal, filed as the rows are read.  At the end each literal's
    # list is expanded once and replaced by its sorted adjacency tuple.
    filed: list[list] = [[] for _ in range(n_nodes)]
    detected = 0

    for row in instance.rows:
        units = unit_knapsacks(row, instance)
        if units is None:
            found = [(rc.initial, rc.addtl) for rc in map(detect_cliques_compressed,
                                                           normalize_to_knapsack(row, instance))]
        else:
            # All coefficients are 1: every literal of a direction is in its
            # one clique when two of them overload the rhs, as detection finds.
            found = [(lits, ()) for lits, b in units if len(lits) > 1 and 2.0 > b + EPS]
        for initial, addtl in found:
            if not initial:
                continue
            detected += 1 + len(addtl)
            c = len(store.first)
            stored = len(initial) > min_clq_size
            store.first.append(initial)
            store.first_stored.append(stored)
            index, entry = (store.blocks, (c, 0)) if stored else (filed, initial)
            for v in initial:
                index[v].append(entry)
            for lit, l in addtl:
                suffix = initial[l - 1:]
                if len(suffix) + 1 > min_clq_size:
                    store.addtl.append((lit, c, l))
                    store.blocks[lit].append((c, l - 1))
                else:
                    filed[lit].append(suffix)
                # Suffix-internal pairs are covered by ``initial``; only
                # the outside literal needs new edges.
                entry = (lit,)
                for v in suffix:
                    filed[v].append(entry)

    union = set().union  # a new set of the members of its arguments
    for v, held in enumerate(filed):
        near = union(*held)
        near.discard(v)
        near.add(complement_node(v, n))
        filed[v] = tuple(sorted(near))
    return ConflictGraph(n, store, filed, detected)
