"""Clique cut separation against a fractional point.

The subgraph induced by fractional literals (weights = literal values) is
searched for maximal cliques of weight >= 1 + min_viol; each hit is then
extended over the full graph with integral-valued literals so one cut can
do the work of several rounds of smaller ones.
"""

from __future__ import annotations

import logging
import math
from operator import attrgetter

from .bk import WEIGHT_EPS, BkParams, WeightedSubgraph, find_cliques, weight_order
from .cgraph import ConflictGraph, greedy_extend
from .model import FRAC_EPS, FractionalPoint, Row, _Record, candidate_order_key, literals_to_row

# The lift set of a literal with no non-fractional neighbor, and the
# lifted members of a cut whose extension adds nothing: one object shared
# by all of them.
_NO_LITERALS: frozenset[int] = frozenset()

log = logging.getLogger(__name__)


class CliqueCut(_Record):
    """members: the full clique (lifted literals included); violation is the
    cut's excess over its rhs at the separating point.  A slotted record,
    so a cut carries no instance dict."""

    __slots__ = _fields = ("members", "violation", "lifted_members")

    def __init__(self, members: frozenset[int], violation: float,
                 lifted_members: frozenset[int]):
        self.members, self.violation, self.lifted_members = members, violation, lifted_members


class FractionalSubgraph(WeightedSubgraph):
    """The fractional subgraph plus, per literal, its non-fractional
    neighbors: the only literals that can extend a maximal clique of the
    subgraph over the full graph."""

    _fields = WeightedSubgraph._fields + ("lift",)

    def __init__(self, nodes: list[int], weights: list[float], adj: list[int],
                 lift: dict[int, frozenset[int]]):
        super().__init__(nodes, weights, adj)
        self.lift = lift


def fractional_subgraph(g: ConflictGraph, point: FractionalPoint,
                        min_weight: float = 0.0) -> FractionalSubgraph:
    """Subgraph over fractional literals, weighted by literal value.

    Both the plain literal and its complement enter (one is fractional iff
    the other is), so trivial edges participate and a clique may contain a
    variable together with its complement.  A literal whose value plus its
    fractional neighbors' values is below ``min_weight`` is left out: no
    clique of that weight can hold it, and leaving it out keeps every
    maximal clique that reaches ``min_weight``.  Local indices follow
    ``bk.weight_order``.

    ``neighbors`` is called once per fractional literal.  One pass over
    its tuple sums the weight; a kept literal's tuple is then passed once
    more to OR its bit row from a ``{literal: 1 << i}`` map, and, only
    when the first pass met a non-fractional neighbor, to collect its lift
    set.  Every other literal shares one empty lift set.
    """
    n = g.n_vars
    lit_values = point.literal_values(n)
    value: dict[int, float] = {}
    for j in range(n):
        if FRAC_EPS < lit_values[j] < 1.0 - FRAC_EPS:
            value[j] = lit_values[j]
            value[j + n] = lit_values[j + n]
    # BK's own slack, plus as much again for sums taken in another order.
    bound = min_weight - 2 * WEIGHT_EPS
    get = value.get
    nodes: list[int] = []
    weights: list[float] = []
    kept_nbrs: list[tuple[int, ...]] = []
    lift: dict[int, frozenset[int]] = {}
    for a in weight_order(value):
        nbrs = g.neighbors(a)
        total = value[a]
        lifts = False
        for b in nbrs:
            w = get(b)
            if w is None:
                lifts = True
            else:
                total += w
        if total >= bound:
            nodes.append(a)
            weights.append(value[a])
            kept_nbrs.append(nbrs)
            lift[a] = frozenset([b for b in nbrs if b not in value]) if lifts else _NO_LITERALS
    bit = {a: 1 << i for i, a in enumerate(nodes)}.get
    adj = []
    for nbrs in kept_nbrs:
        row = 0
        for b in nbrs:
            m = bit(b)
            if m is not None:
                row |= m
        adj.append(row)
    return FractionalSubgraph(nodes, weights, adj, lift)


def extend_cut(g: ConflictGraph, clique, point: FractionalPoint,
               common=None) -> frozenset[int]:
    """Extend a clique over the full graph (a violated K3 can become a K4).

    Literals conflicting with every member are consumed in reduced-cost
    order; each joins only if it conflicts with everything accepted so far.
    ``common``, when given, is the members' common neighborhood (or the
    part of it that can join); when it is empty, the clique is returned as
    it is.
    """
    if common is not None and not common:
        return frozenset(clique)
    return greedy_extend(g, clique, candidate_order_key(point, g.n_vars), common)


def separate_cliques(g: ConflictGraph, point: FractionalPoint,
                     min_viol: float = 0.02,
                     bk_params: BkParams | None = None) -> list[CliqueCut]:
    """Return clique cuts violated by at least ``min_viol``, best first.

    ``bk_params`` supplies the call budget; its min_weight is overridden
    with 1 + min_viol.  Cuts are sorted by decreasing violation, and cuts
    whose violations tie exactly by their sorted members.
    When Bron-Kerbosch stops on its budget, one warning on this module's
    logger gives the calls counted and the budget.

    Each clique is extended only by non-fractional literals: a fractional
    literal conflicting with a whole maximal clique would contradict its
    maximality.  So a cut's fractional members are exactly its clique, and
    distinct cliques give distinct cuts.  A cut of a literal and its
    complement alone reads ``0 <= 0`` and is dropped; that clique weighs
    exactly 1, so it reaches the threshold only when ``min_viol`` is at
    most BK's slack.  A negative or non-finite ``min_viol`` raises
    ``ValueError``.

    A cut whose extension adds nothing (decided by size) shares one empty
    ``lifted_members`` set.  When its members have no common lift
    candidate, its ``members`` is the frozenset Bron-Kerbosch emitted, so
    such a cut allocates only its record.
    """
    if not (math.isfinite(min_viol) and min_viol >= 0):
        raise ValueError(f"min_viol must be finite and >= 0, not {min_viol!r}")
    params = BkParams(1.0 + min_viol, (bk_params or BkParams()).max_calls)
    sub = fractional_subgraph(g, point, params.min_weight)
    result = find_cliques(sub, params)
    if not result.exact:
        log.warning("Bron-Kerbosch stopped at its budget: %d calls counted, "
                    "max_calls %d; violated cliques may be missing",
                    result.calls, params.max_calls)
    value = point.literal_values(g.n_vars).__getitem__
    lift = sub.lift
    cuts = []
    for clique in result.cliques:
        # The members' common lift set, intersected pairwise until empty.
        common = None
        for v in clique:
            common = lift[v] if common is None else common & lift[v]
            if not common:
                break
        ext = extend_cut(g, clique, point, common)
        if len(ext) == 2 and max(ext) - min(ext) == g.n_vars:
            continue
        lifted = ext - clique if len(ext) > len(clique) else _NO_LITERALS
        cuts.append(CliqueCut(ext, math.fsum(map(value, ext)) - 1.0, lifted))
    # Decreasing violation, then sorted members on exact ties only: the
    # order of the key (-violation, sorted(members)), with no key built for
    # a cut that ties nothing.
    violation = attrgetter("violation")
    cuts.sort(key=violation, reverse=True)
    vs = list(map(violation, cuts))
    end = 0
    for k in [k for k in range(1, len(vs)) if vs[k] == vs[k - 1]]:
        if k >= end:  # cuts[k - 1] starts a run of ties
            end = k + 1
            while end < len(vs) and vs[end] == vs[k]:
                end += 1
            cuts[k - 1:end] = sorted(cuts[k - 1:end], key=lambda c: sorted(c.members))
    return cuts


def cut_to_row(cut: CliqueCut, n_vars: int, name: str = "clique") -> Row:
    """The cut as a row over original variables (complements substituted)."""
    terms = [(v, 1.0) for v in sorted(cut.members)]
    return literals_to_row(terms, 1.0, n_vars, name)
