"""Budgeted, pivoted Bron-Kerbosch over weighted subgraphs.

Vertex sets (P, X, adjacency rows) are arbitrary-precision ints used as
bit strings, so the hot set operations are single AND/OR expressions.
The search enumerates maximal cliques whose weight reaches ``min_weight``,
skipping any subtree where the weight of the current clique plus all
remaining candidates cannot reach it.  It runs on an explicit stack of
frames, not by recursion, so clique size is not bounded by the
interpreter's recursion limit.  Every search node is counted and visited
at one place, and a node's branch set is P minus the pivot's adjacency
row, so no complement rows are kept.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Slack applied to min_weight comparisons.
WEIGHT_EPS = 1e-9

PIVOT_RULES = ("rnd", "deg", "wgt", "mdg", "mwt")


@dataclass
class WeightedSubgraph:
    """A small vertex-weighted graph with bitmask adjacency.

    ``nodes`` are the external ids (ascending); all masks are over local
    indices.
    """

    nodes: list[int]
    weights: list[float]
    adj: list[int]

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_edges(cls, weights: dict[int, float],
                   edges: "list[tuple[int, int]] | set"):
        nodes = sorted(weights)
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        adj = [0] * n
        for e in edges:
            u, v = tuple(e)
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        return cls(nodes, [weights[v] for v in nodes], adj)


@dataclass
class BkParams:
    min_weight: float = 1.0
    max_calls: int = 100_000
    pivot_rule: str = "wgt"
    rng_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.min_weight):
            raise ValueError(f"min_weight must be finite, not {self.min_weight!r}")
        if self.max_calls < 1:
            raise ValueError("max_calls must be at least 1")
        if self.pivot_rule not in PIVOT_RULES:
            raise ValueError(f"unknown pivot rule {self.pivot_rule!r}")


@dataclass
class BkResult:
    cliques: list[frozenset[int]]
    exact: bool
    calls: int


def _mask_weight(mask: int, weights: list[float]) -> float:
    total = 0.0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def choose_pivot(rule: str, g: WeightedSubgraph, p_mask: int, x_mask: int,
                 rng: random.Random | None = None) -> int:
    """Pick the pivot from P | X; ties go to the smallest local index.

    rnd: seeded uniform pick.  deg/wgt: highest degree/weight in the whole
    subgraph.  mdg: highest degree counting only candidates still in P.
    mwt: highest weight plus total neighbor weight.
    """
    cand = p_mask | x_mask
    if cand == 0:
        raise ValueError("empty candidate set")
    if rule == "rnd":
        if rng is None:
            rng = random.Random(0)
        pick = rng.randrange(cand.bit_count())
        m = cand
        for _ in range(pick):
            m ^= m & -m
        return (m & -m).bit_length() - 1

    best = -1
    best_score = 0.0
    m = cand
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if rule == "deg":
            score = float(g.adj[u].bit_count())
        elif rule == "wgt":
            score = g.weights[u]
        elif rule == "mdg":
            score = float((g.adj[u] & p_mask).bit_count())
        else:  # mwt
            score = g.weights[u] + _mask_weight(g.adj[u], g.weights)
        if best < 0 or score > best_score:
            best, best_score = u, score
    return best


def find_cliques(g: WeightedSubgraph, params: BkParams) -> BkResult:
    """Enumerate maximal cliques with weight >= params.min_weight.

    ``calls`` counts search nodes: a node is one (R, P, X) state, visited
    in depth-first order at the top of one loop.  A node with candidates
    pushes a frame whose branches are P minus the pivot's neighbors; a node
    without them emits R when X is empty too.  The search stops when node
    ``params.max_calls + 1`` is reached, which is counted too, so the run
    was exact iff ``calls <= max_calls``.  Cliques already emitted are
    always maximal and heavy enough, budget or not.  A subtree is skipped
    when the weight of R plus the weight of P cannot reach the threshold.
    """
    n = len(g)
    minw = params.min_weight - WEIGHT_EPS
    max_calls = params.max_calls
    rule = params.pivot_rule
    rng = random.Random(params.rng_seed)
    adj, weights = g.adj, g.weights
    # deg, wgt and mwt score a vertex by the whole subgraph, so their
    # scores are fixed for the search; rnd and mdg go through choose_pivot.
    if rule == "deg":
        scores = [float(a.bit_count()) for a in adj]
    elif rule == "wgt":
        scores = weights
    elif rule == "mwt":
        scores = [w + _mask_weight(a, weights) for w, a in zip(weights, adj)]
    else:
        scores = None
    out: list[int] = []
    calls = 0
    # Frames are [R, P, X, weight of R, branch vertices not yet taken].
    stack: list[list] = []
    r_mask, p_mask, x_mask, r_weight = 0, (1 << n) - 1, 0, 0.0
    while True:
        # Visit the node (R, P, X).
        calls += 1
        if calls > max_calls:
            break
        if p_mask:
            p_weight = 0.0
            m = p_mask
            while m:
                low = m & -m
                p_weight += weights[low.bit_length() - 1]
                m ^= low
            if r_weight + p_weight >= minw:
                if scores is None:
                    u = choose_pivot(rule, g, p_mask, x_mask, rng)
                else:
                    # Highest score in P | X; ties go to the smallest index.
                    u = -1
                    best = 0.0
                    m = p_mask | x_mask
                    while m:
                        low = m & -m
                        v = low.bit_length() - 1
                        if u < 0 or scores[v] > best:
                            u, best = v, scores[v]
                        m ^= low
                # P minus N(u): the pivot itself stays when it sits in P.
                stack.append([r_mask, p_mask, x_mask, r_weight, p_mask & ~adj[u]])
        elif r_weight >= minw:
            # No candidates: R is maximal when X is empty too, and a dead
            # end otherwise, whose pivot still draws from the rnd stream.
            if x_mask:
                if rule == "rnd":
                    choose_pivot(rule, g, 0, x_mask, rng)
            elif r_mask:
                out.append(r_mask)
        # The next node is the first untaken branch of the deepest frame.
        # Its P and X are taken before the frame moves v from P to X.
        while stack:
            frame = stack[-1]
            ext = frame[4]
            if ext:
                break
            stack.pop()
        else:
            break  # the stack is empty: the search is done
        low = ext & -ext
        v = low.bit_length() - 1
        r_mask, p_mask, x_mask, r_weight, _ = frame
        frame[1] = p_mask & ~low
        frame[2] = x_mask | low
        frame[4] = ext ^ low
        r_mask |= low
        p_mask &= adj[v]
        x_mask &= adj[v]
        r_weight += weights[v]

    nodes = g.nodes
    cliques = []
    for mask in out:
        members = []
        while mask:
            low = mask & -mask
            members.append(nodes[low.bit_length() - 1])
            mask ^= low
        cliques.append(frozenset(members))
    return BkResult(cliques, calls <= max_calls, calls)
