"""Odd-cycle cut separation with greedy wheel-center lifting.

Every conflict edge (j, k) becomes two edges of a bipartite auxiliary
graph joining opposite-side copies of j and k, weighted
(1 - value_j - value_k) / 2 and clamped at zero.  A shortest path between
the two copies of a literal projects to a closed odd walk; its simple odd
cycles of length >= 5 whose induced edges cost less than 0.5 are violated
cuts; the cost of a cycle's chords is read from the same clamped arc
weights.  The cover numbers only the literals with an auxiliary edge, in
id order, and the search keeps its distances and predecessors in flat
lists over them: a literal with no edge lies on no path, and its two
copies cannot be joined.  A relaxation pushes its heap entry only when it
is no farther than the target, since a farther one would pop after the
target.

No arc of the cover enters a dead end, a literal with exactly one
auxiliary neighbor: a simple path between two other nodes never passes
through it, and settling it never lowers another distance (weights are
>= 0 and relaxation is strict), so every other search settles the same
nodes in the same order with the same predecessors.  A dead end keeps its
own arcs.  Its search leaves by its one arc and stops at the opposite copy
of its neighbor, from which the forced last arc closes the path; a lone
edge, two dead ends joined, leaves a dead end with no arc, holds no cycle
and is not searched.

A dead end's search is also skipped when it would mirror a search already
run: its arc weighs exactly 0 and its neighbor b was searched earlier with
no tie between the two copies of a literal (see ``_shortest_path``).  From
``2b + 1`` on, that search is b's own search with the sides swapped, so it
projects to the same closed walk and finds the same cycles.  The weight is
0 for every dead end built here (its one neighbor is its complement, or
the weight is clamped), but the argument needs it, so it is checked.  Each
kept cycle is lifted by a clique of literals conflicting with the whole
cycle, turning it into an odd wheel.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Sequence

from .cgraph import ConflictGraph, greedy_extend
from .model import FractionalPoint, Row, _Record, literals_to_row
from .sep_clique import FRAC_EPS, candidate_order_key

log = logging.getLogger(__name__)


class OddCycleCut(_Record):
    """An odd cycle (length >= 5) plus an optional wheel-center clique."""

    _fields = ("cycle", "center", "violation")

    def __init__(self, cycle: tuple[int, ...], center: frozenset[int], violation: float):
        if len(cycle) < 5 or len(cycle) % 2 == 0:
            raise ValueError("cycle must have odd length >= 5")
        self.cycle, self.center, self.violation = cycle, center, violation


class AuxiliaryGraph(_Record):
    """Bipartite double cover of the active literals that conflict with
    another active literal.

    Auxiliary node ids are 2 * local + side for side in {0, 1}; edges only
    join opposite sides.  ``dead[local]`` marks a dead end, a literal with
    exactly one conflict: no arc enters it, but its own arcs stay.
    ``clamped_edges`` counts weights cut off at 0, those of the arcs left
    out included.
    """

    _fields = ("nodes", "adj", "dead", "clamped_edges")

    def __init__(self, nodes: list[int], adj: list[list[tuple[int, float]]], dead: list[bool],
                 clamped_edges: int):
        self.nodes, self.adj, self.dead, self.clamped_edges = nodes, adj, dead, clamped_edges


def build_auxiliary(g: ConflictGraph, point: FractionalPoint) -> AuxiliaryGraph:
    """Build the auxiliary graph over the literals with value above the
    fractionality floor, since zero-valued literals cannot sit on a cycle
    worth cutting, less those with no conflict among them, which lie on no
    path.  Complements join in: a literal and its complement always
    conflict.  Nodes keep id order, and each arc list keeps the order in
    which its edges are met: leaving out the arcs into dead ends drops
    entries but moves none."""
    lit_values = point.literal_values(g.n_vars)
    near = g.conflicts_among(v for v, x in enumerate(lit_values) if x > FRAC_EPS)
    nodes = sorted(v for v, nbrs in near.items() if nbrs)
    index = {v: i for i, v in enumerate(nodes)}
    dead = [len(near[v]) == 1 for v in nodes]
    adj: list[list[tuple[int, float]]] = [[] for _ in range(2 * len(nodes))]
    clamped = 0
    for ia, a in enumerate(nodes):
        va = lit_values[a]
        for b in near[a]:
            if b <= a:
                continue
            ib = index[b]
            w = (1.0 - va - lit_values[b]) / 2.0
            if w < 0.0:
                w = 0.0
                clamped += 1
            if not dead[ib]:
                adj[2 * ia].append((2 * ib + 1, w))
                adj[2 * ia + 1].append((2 * ib, w))
            if not dead[ia]:
                adj[2 * ib + 1].append((2 * ia, w))
                adj[2 * ib].append((2 * ia + 1, w))
    if clamped:
        log.debug("clamped %d negative edge weights to zero", clamped)
    return AuxiliaryGraph(nodes, adj, dead, clamped)


def _shortest_path(adj: list[list[tuple[int, float]]], source: int,
                   target: int) -> tuple[list[int] | None, bool]:
    """Dijkstra from ``source``, stopping when ``target`` is popped.

    Returns the path (None when ``target`` is unreachable) and whether the
    search was clean: no relaxation set ``dist[v]`` to the distance that
    ``v``'s opposite copy ``v ^ 1`` already held.  Swapping sides,
    ``v -> v ^ 1``, maps the double cover onto itself, arc weights and
    arc-list order included, and keeps every heap comparison between
    entries but one: ``(d, v)`` against ``(d, v ^ 1)``.  Such a tie between
    two live entries is what the flag records (a tie against a stale entry
    only moves a no-op pop), so a clean search from ``2b`` to ``2b + 1``
    is the mirror image of the search from ``2b + 1`` to ``2b``: that
    search returns ``[v ^ 1 for v in path]``.  An unreachable target is
    clean, since reachability is the same on both sides.

    Every strict improvement sets ``dist[v]`` and ``prev[v]`` and checks
    for a tie, but ``(nd, v)`` is pushed only when ``nd <= dist[target]``.
    Once the target has a finite distance its entry ``(dist[target],
    target)`` is on the heap, and that distance only falls, so a skipped
    entry would compare greater than it and pop after the search stopped.
    The pops are therefore those of the search that pushes every entry,
    and with them every relaxation and tie check: the path and the flag
    are the same.
    """
    push, pop = heapq.heappush, heapq.heappop
    inf = float("inf")
    dist = [inf] * len(adj)
    prev = [-1] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    clean = True
    while heap:
        d, u = pop(heap)
        if u == target:
            break
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                if nd == dist[v ^ 1]:
                    clean = False
                dist[v] = nd
                prev[v] = u
                if nd <= dist[target]:
                    push(heap, (nd, v))
    if dist[target] == inf:
        return None, True
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path, clean


def _walk_cycles(walk: list[int]) -> list[list[int]]:
    """Decompose a closed walk into the simple cycles along it."""
    stack = [walk[0]]
    pos = {walk[0]: 0}
    out = []
    for v in walk[1:]:
        if v in pos:
            i = pos[v]
            cyc = stack[i:]
            if len(cyc) >= 3:
                out.append(cyc)
            for u in stack[i + 1:]:
                pos.pop(u)
            del stack[i + 1:]
        else:
            stack.append(v)
            pos[v] = len(stack) - 1
    return out


def _canonical_cycle(seq: list[int]) -> tuple[int, ...]:
    """The smallest rotation or reflection of a cycle of distinct members,
    in O(k): start at the smallest member, then go towards its smaller
    neighbor."""
    r = seq.index(min(seq))
    seq = seq[r:] + seq[:r]
    if seq[-1] < seq[1]:
        seq = seq[:1] + seq[:0:-1]
    return tuple(seq)


def lift_center(g: ConflictGraph, cycle: Sequence[int],
                point: FractionalPoint) -> frozenset[int]:
    """Greedy wheel center: a clique of literals conflicting with every
    cycle member, consumed in reduced-cost order (possibly empty)."""
    members = frozenset(cycle)
    return greedy_extend(g, members, candidate_order_key(point, g.n_vars)) - members


def separate_odd_cycles(g: ConflictGraph, point: FractionalPoint) -> list[OddCycleCut]:
    """Return violated odd-cycle (wheel) cuts, best first.

    One shortest-path query per literal of the cover (lone edges and
    mirrored dead ends excepted), on the cover as ``build_auxiliary``
    built it; a recovered cycle is kept when it has odd length >= 5 and
    the edges of its induced subgraph (chords included) cost less than
    0.5.  Those costs are the clamped weights of the auxiliary arcs.
    Cycles are deduplicated on their canonical rotation/reflection.
    """
    value = point.literal_values(g.n_vars)
    aux = build_auxiliary(g, point)
    adj, dead = aux.adj, aux.dead
    # Per literal, its side-0 arcs: edge weight keyed by the side-1 copy.
    # No cycle holds a dead end, so the arcs left out are never looked up.
    weight = [dict(arcs) for arcs in adj[::2]]
    kept: dict[tuple[int, ...], None] = {}
    # Per literal, whether its own search ran and was clean.
    clean = [False] * len(dead)
    for local, end in enumerate(dead):
        if end:
            if not adj[2 * local]:
                continue  # a lone edge holds no cycle
            # The path leaves by the one arc and must return by its twin,
            # from the other copy of the same neighbor.
            [(first, w)] = adj[2 * local]
            if w == 0.0 and clean[first >> 1]:
                continue  # the mirror image of the neighbor's search
            path, _ = _shortest_path(adj, 2 * local, first ^ 1)
            if path is not None:
                path.append(2 * local + 1)
        else:
            path, clean[local] = _shortest_path(adj, 2 * local, 2 * local + 1)
        if path is None:
            continue
        assert (len(path) - 1) % 2 == 1, "bipartite path must have odd length"
        for cyc in _walk_cycles([a >> 1 for a in path]):
            if len(cyc) < 5 or len(cyc) % 2 == 0:
                continue
            cost = 0.0
            for i, a in enumerate(cyc):
                wa = weight[a]
                for b in cyc[i + 1:]:
                    cost += wa.get(2 * b + 1, 0.0)  # a non-edge adds nothing
            if cost < 0.5 - 1e-9:
                kept.setdefault(_canonical_cycle([aux.nodes[a] for a in cyc]))
    cuts = []
    for cycle in kept:
        center = lift_center(g, cycle, point)
        half = (len(cycle) - 1) // 2
        violation = (
            math.fsum(value[v] for v in cycle)
            + half * math.fsum(value[v] for v in center)
            - half
        )
        cuts.append(OddCycleCut(cycle, center, violation))
    return sorted(cuts, key=lambda c: (-c.violation, c.cycle))


def oddwheel_to_row(cut: OddCycleCut, n_vars: int, name: str = "oddcycle") -> Row:
    """The cut as a row over original variables: cycle literals get 1,
    center literals (|O|-1)/2, complements substituted."""
    half = (len(cut.cycle) - 1) // 2
    terms = [(v, 1.0) for v in sorted(cut.cycle)]
    terms += [(v, float(half)) for v in sorted(cut.center)]
    return literals_to_row(terms, float(half), n_vars, name)
