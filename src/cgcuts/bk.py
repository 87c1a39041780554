"""Budgeted, pivoted Bron-Kerbosch over weighted subgraphs.

Vertex sets (P, X, adjacency rows) are arbitrary-precision ints used as
bit strings, so the hot set operations are single AND/OR expressions.
The current clique R is a tuple of local indices, one longer per branch
taken, and a maximal clique is emitted as the frozenset of its external ids.
The search enumerates maximal cliques whose weight reaches ``min_weight``,
skipping any subtree where the weight of the current clique plus all
remaining candidates cannot reach it.  It runs on an explicit stack of
frames, not by recursion, so clique size is not bounded by the
interpreter's recursion limit.  Every search node is counted and visited
at one place, and a node's branch set is P minus the pivot's adjacency
row, so no complement rows are kept.

A subgraph numbers its vertices by weight, heaviest first (ties by
external id), the vertex order of Östergård's weighted cliquer.  So the
pivot, the heaviest vertex of P | X (ties to the smallest id), is its
lowest set bit, and the weight bound, which sums P heaviest first, can
stop as soon as the threshold is reached.
"""

from __future__ import annotations

import math

from .model import _Record

# Slack applied to min_weight comparisons.
WEIGHT_EPS = 1e-9


def weight_order(weights: dict[int, float]) -> list[int]:
    """Ids by (weight descending, id): the numbering ``WeightedSubgraph``
    requires."""
    # A reverse sort is stable, so equal weights keep ascending ids.
    return sorted(sorted(weights), key=weights.__getitem__, reverse=True)


class WeightedSubgraph(_Record):
    """A small vertex-weighted graph with bitmask adjacency.

    ``nodes`` are the external ids in ``weight_order``: local index 0 is
    the heaviest vertex.  All masks are over local indices.  Weights must
    be non-negative, for the weight bound.
    """

    _fields = ("nodes", "weights", "adj")

    def __init__(self, nodes: list[int], weights: list[float], adj: list[int]):
        if weights != sorted(weights, reverse=True) or (weights and weights[-1] < 0):
            raise ValueError("subgraph weights must be non-negative and must "
                             "not increase with the local index")
        self.nodes, self.weights, self.adj = nodes, weights, adj

    def __len__(self) -> int:
        return len(self.nodes)


class BkParams(_Record):
    _fields = ("min_weight", "max_calls")

    def __init__(self, min_weight: float = 1.0, max_calls: int = 100_000):
        if not math.isfinite(min_weight):
            raise ValueError(f"min_weight must be finite, not {min_weight!r}")
        if max_calls < 1:
            raise ValueError("max_calls must be at least 1")
        self.min_weight, self.max_calls = min_weight, max_calls


class BkResult(_Record):
    _fields = ("cliques", "exact", "calls")

    def __init__(self, cliques: list[frozenset[int]], exact: bool, calls: int):
        self.cliques, self.exact, self.calls = cliques, exact, calls


def find_cliques(g: WeightedSubgraph, params: BkParams) -> BkResult:
    """Enumerate maximal cliques with weight >= params.min_weight.

    ``calls`` counts search nodes: a node is one (R, P, X) state, visited
    in depth-first order at the top of one loop.  A node with candidates
    pushes a frame whose branches are P minus the neighbors of the pivot,
    the heaviest vertex of P | X; a node without them emits R, the
    branch vertices taken to reach it, as external ids when X is empty too.
    The search stops when node ``params.max_calls + 1`` is reached, which
    is counted too, so the run was exact iff ``calls <= max_calls``.
    Cliques already emitted are always maximal and heavy enough, budget or
    not.  A subtree is skipped when the weight of R plus the weight of P
    cannot reach the threshold.

    P's weight is summed heaviest first (lowest bit first) and the sum
    stops once R plus the part summed reaches the threshold: with
    non-negative weights the partial sums only grow, so every node is
    pruned or kept as by the full sum.  Branches are taken lowest bit
    first, so the order of the search, and with it ``calls`` and the
    cliques found under a binding budget, follows the subgraph's
    numbering.
    """
    n = len(g)
    minw = params.min_weight - WEIGHT_EPS
    max_calls = params.max_calls
    adj, weights, node = g.adj, g.weights, g.nodes.__getitem__
    out: list[frozenset[int]] = []
    calls = 0
    # Frames are [R, P, X, weight of R, branch vertices not yet taken]; R
    # is the tuple of the branch vertices taken, P and X are masks.
    stack: list[list] = []
    r, p_mask, x_mask, r_weight = (), (1 << n) - 1, 0, 0.0
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
                if r_weight + p_weight >= minw:
                    break
                m ^= low
            if m:
                # The pivot u is the heaviest vertex of P | X, its lowest
                # set bit; P minus N(u) keeps u itself when it sits in P.
                m = p_mask | x_mask
                u = (m & -m).bit_length() - 1
                stack.append([r, p_mask, x_mask, r_weight, p_mask & ~adj[u]])
        elif r_weight >= minw and not x_mask and r:
            # No candidates and X empty: R is maximal.
            out.append(frozenset(map(node, r)))
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
        r, p_mask, x_mask, r_weight, _ = frame
        frame[1] = p_mask & ~low
        frame[2] = x_mask | low
        frame[4] = ext ^ low
        r += (v,)
        p_mask &= adj[v]
        x_mask &= adj[v]
        r_weight += weights[v]

    return BkResult(out, calls <= max_calls, calls)
