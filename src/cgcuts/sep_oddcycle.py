"""Odd-cycle cut separation with greedy wheel-center lifting.

Every conflict edge (j, k) becomes two edges of a bipartite auxiliary
graph joining opposite-side copies of j and k, weighted
(1 - value_j - value_k) / 2 and clamped at zero.  A shortest path between
the two copies of a literal projects to a closed odd walk; its simple odd
cycles of length >= 5 whose induced edges cost less than 0.5 are violated
cuts.  The search keeps its distances and predecessors in flat lists
indexed by auxiliary node id, and literals with no auxiliary edge are not
searched from, since their two copies cannot be joined.  Each kept cycle
is lifted by a clique of literals conflicting with the whole cycle,
turning it into an odd wheel.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Sequence

from .cgraph import ConflictGraph, greedy_extend
from .model import FractionalPoint, Row, literals_to_row
from .sep_clique import FRAC_EPS, candidate_order_key

log = logging.getLogger(__name__)


@dataclass
class OddCycleCut:
    """An odd cycle (length >= 5) plus an optional wheel-center clique."""

    cycle: tuple[int, ...]
    center: frozenset[int]
    violation: float

    def __post_init__(self):
        if len(self.cycle) < 5 or len(self.cycle) % 2 == 0:
            raise ValueError("cycle must have odd length >= 5")


@dataclass
class AuxiliaryGraph:
    """Bipartite double cover of the active literals.

    Auxiliary node ids are 2 * local + side for side in {0, 1}; edges only
    join opposite sides.  ``clamped_edges`` counts weights cut off at 0.
    """

    nodes: list[int]
    adj: list[list[tuple[int, float]]]
    clamped_edges: int

    @property
    def n_aux(self) -> int:
        return 2 * len(self.nodes)


def build_auxiliary(g: ConflictGraph, point: FractionalPoint,
                    nodes: Sequence[int] | None = None) -> AuxiliaryGraph:
    """Build the auxiliary graph over ``nodes`` (default: literals with
    value above the fractionality floor, since zero-valued literals cannot
    sit on a cycle worth cutting)."""
    n = g.n_vars
    if nodes is None:
        nodes = [v for v in range(2 * n) if point.lit_value(v, n) > FRAC_EPS]
    nodes = sorted(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj: list[list[tuple[int, float]]] = [[] for _ in range(2 * len(nodes))]
    clamped = 0
    for a in nodes:
        ia = index[a]
        va = point.lit_value(a, n)
        for b in g.neighbors(a):
            if b <= a:
                continue
            ib = index.get(b)
            if ib is None:
                continue
            w = (1.0 - va - point.lit_value(b, n)) / 2.0
            if w < 0.0:
                w = 0.0
                clamped += 1
            adj[2 * ia].append((2 * ib + 1, w))
            adj[2 * ib + 1].append((2 * ia, w))
            adj[2 * ia + 1].append((2 * ib, w))
            adj[2 * ib].append((2 * ia + 1, w))
    if clamped:
        log.debug("clamped %d negative edge weights to zero", clamped)
    return AuxiliaryGraph(nodes, adj, clamped)


def _shortest_path(aux: AuxiliaryGraph, source: int, target: int) -> list[int] | None:
    adj = aux.adj
    push, pop = heapq.heappush, heapq.heappop
    inf = float("inf")
    dist = [inf] * aux.n_aux
    prev = [-1] * aux.n_aux
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = pop(heap)
        if u == target:
            break
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                push(heap, (nd, v))
    if dist[target] == inf:
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


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
    best: tuple[int, ...] | None = None
    for base in (seq, seq[::-1]):
        for r in range(len(base)):
            cand = tuple(base[r:] + base[:r])
            if best is None or cand < best:
                best = cand
    return best  # type: ignore[return-value]


def lift_center(g: ConflictGraph, cycle: Sequence[int],
                point: FractionalPoint) -> frozenset[int]:
    """Greedy wheel center: a clique of literals conflicting with every
    cycle member, consumed in reduced-cost order (possibly empty)."""
    members = frozenset(cycle)
    return greedy_extend(g, members, candidate_order_key(point, g.n_vars)) - members


def separate_odd_cycles(g: ConflictGraph, point: FractionalPoint) -> list[OddCycleCut]:
    """Return violated odd-cycle (wheel) cuts, best first.

    One shortest-path query per active literal; a recovered cycle is kept
    when it has odd length >= 5 and the edges of its induced subgraph
    (chords included) cost less than 0.5.  Cycles are deduplicated on
    their canonical rotation/reflection.
    """
    n = g.n_vars
    aux = build_auxiliary(g, point)
    kept: dict[tuple[int, ...], None] = {}
    for local in range(len(aux.nodes)):
        if not aux.adj[2 * local]:
            continue  # no edge: the two copies cannot be joined
        path = _shortest_path(aux, 2 * local, 2 * local + 1)
        if path is None:
            continue
        assert (len(path) - 1) % 2 == 1, "bipartite path must have odd length"
        walk = [aux.nodes[a >> 1] for a in path]
        for cyc in _walk_cycles(walk):
            if len(cyc) < 5 or len(cyc) % 2 == 0:
                continue
            cost = 0.0
            for i, a in enumerate(cyc):
                for b in cyc[i + 1:]:
                    if g.conflicting(a, b):
                        w = (1.0 - point.lit_value(a, n) - point.lit_value(b, n)) / 2.0
                        cost += max(0.0, w)
            if cost < 0.5 - 1e-9:
                kept.setdefault(_canonical_cycle(cyc))
    cuts = []
    for cycle in kept:
        center = lift_center(g, cycle, point)
        half = (len(cycle) - 1) // 2
        violation = (
            sum(point.lit_value(v, n) for v in cycle)
            + half * sum(point.lit_value(v, n) for v in center)
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
