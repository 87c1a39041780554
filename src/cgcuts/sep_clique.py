"""Clique cut separation against a fractional point.

The subgraph induced by fractional literals (weights = literal values) is
searched for maximal cliques of weight >= 1 + min_viol; each hit is then
extended over the full graph with integral-valued literals so one cut can
do the work of several rounds of smaller ones.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .bk import WEIGHT_EPS, BkParams, WeightedSubgraph, find_cliques, weight_order
from .cgraph import ConflictGraph, greedy_extend
from .model import FractionalPoint, Row, literals_to_row

# A value v is fractional iff FRAC_EPS < v < 1 - FRAC_EPS.
FRAC_EPS = 1e-6

log = logging.getLogger(__name__)


@dataclass
class CliqueCut:
    """members: the full clique (lifted literals included); violation is the
    cut's excess over its rhs at the separating point."""

    members: frozenset[int]
    violation: float
    lifted_members: frozenset[int]


@dataclass
class FractionalSubgraph(WeightedSubgraph):
    """The fractional subgraph plus, per literal, its non-fractional
    neighbors: the only literals that can extend a maximal clique of the
    subgraph over the full graph."""

    lift: dict[int, frozenset[int]]


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
    kept: list[tuple[int, list[int], list[int]]] = []
    get = value.get
    for a in weight_order(value):
        frac: list[int] = []
        other: list[int] = []
        total = value[a]
        for b in g.neighbors(a):
            w = get(b)
            if w is None:
                other.append(b)
            else:
                frac.append(b)
                total += w
        if total >= bound:
            kept.append((a, frac, other))
    index = {a: i for i, (a, _, _) in enumerate(kept)}
    bits = [1 << i for i in range(len(kept))]
    adj = []
    for _, frac, _ in kept:
        row = 0
        for b in frac:
            i = index.get(b)
            if i is not None:
                row |= bits[i]
        adj.append(row)
    nodes = [a for a, _, _ in kept]
    return FractionalSubgraph(nodes, [value[a] for a in nodes], adj,
                              {a: frozenset(other) for a, _, other in kept})


def candidate_order_key(point: FractionalPoint, n_vars: int):
    """Lifting order: smallest reduced cost when costs are available,
    otherwise largest value; ties by node id."""
    if point.reduced_costs is not None:
        return lambda v: (point.lit_reduced_cost(v, n_vars), v)
    return lambda v: (-point.lit_value(v, n_vars), v)


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
    with 1 + min_viol.  Cuts are sorted by decreasing violation.
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
    """
    if not (math.isfinite(min_viol) and min_viol >= 0):
        raise ValueError(f"min_viol must be finite and >= 0, not {min_viol!r}")
    params = replace(bk_params or BkParams(), min_weight=1.0 + min_viol)
    sub = fractional_subgraph(g, point, params.min_weight)
    if not sub.nodes:
        return []
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
        cuts.append(CliqueCut(ext, math.fsum(map(value, ext)) - 1.0, ext - clique))
    cuts.sort(key=lambda c: (-c.violation, sorted(c.members)))
    return cuts


def cut_to_row(cut: CliqueCut, n_vars: int, name: str = "clique") -> Row:
    """The cut as a row over original variables (complements substituted)."""
    terms = [(v, 1.0) for v in sorted(cut.members)]
    return literals_to_row(terms, 1.0, n_vars, name)
