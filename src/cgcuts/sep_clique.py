"""Clique cut separation against a fractional point.

The subgraph induced by fractional literals (weights = literal values) is
searched for maximal cliques of weight >= 1 + min_viol; each hit is then
extended over the full graph with integral-valued literals so one cut can
do the work of several rounds of smaller ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .bk import BkParams, WeightedSubgraph, find_cliques
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


def fractional_subgraph(g: ConflictGraph, point: FractionalPoint) -> WeightedSubgraph:
    """Subgraph over fractional literals, weighted by literal value.

    Both the plain literal and its complement enter (one is fractional iff
    the other is), so trivial edges participate and a clique may contain a
    variable together with its complement.
    """
    n = g.n_vars
    weights: dict[int, float] = {}
    for j in range(n):
        v = point.var_value(j)
        if FRAC_EPS < v < 1.0 - FRAC_EPS:
            weights[j] = v
            weights[j + n] = 1.0 - v
    edges = []
    for a in weights:
        for b in g.neighbors(a):
            if b > a and b in weights:
                edges.append((a, b))
    return WeightedSubgraph.from_edges(weights, edges)


def candidate_order_key(point: FractionalPoint, n_vars: int):
    """Lifting order: smallest reduced cost when costs are available,
    otherwise largest value; ties by node id."""
    if point.reduced_costs is not None:
        return lambda v: (point.lit_reduced_cost(v, n_vars), v)
    return lambda v: (-point.lit_value(v, n_vars), v)


def extend_cut(g: ConflictGraph, clique, point: FractionalPoint) -> frozenset[int]:
    """Extend a clique over the full graph (a violated K3 can become a K4).

    Literals conflicting with every member are consumed in reduced-cost
    order; each joins only if it conflicts with everything accepted so far.
    """
    return greedy_extend(g, clique, candidate_order_key(point, g.n_vars))


def separate_cliques(g: ConflictGraph, point: FractionalPoint,
                     min_viol: float = 0.02,
                     bk_params: BkParams | None = None) -> list[CliqueCut]:
    """Return clique cuts violated by at least ``min_viol``, best first.

    ``bk_params`` supplies budget, pivot rule and seed; its min_weight is
    overridden with 1 + min_viol.  Cuts are deduplicated on their extended
    member sets and sorted by decreasing violation.  When Bron-Kerbosch
    stops on its budget, one warning on this module's logger gives the
    calls counted and the budget.
    """
    sub = fractional_subgraph(g, point)
    if not sub.nodes:
        return []
    params = replace(bk_params or BkParams(), min_weight=1.0 + min_viol)
    result = find_cliques(sub, params)
    if not result.exact:
        log.warning("Bron-Kerbosch stopped at its budget: %d calls counted, "
                    "max_calls %d; violated cliques may be missing",
                    result.calls, params.max_calls)
    n = g.n_vars
    cuts: dict[tuple[int, ...], CliqueCut] = {}
    for clique in result.cliques:
        ext = extend_cut(g, clique, point)
        key = tuple(sorted(ext))
        if key in cuts:
            continue
        violation = sum(point.lit_value(v, n) for v in ext) - 1.0
        cuts[key] = CliqueCut(ext, violation, ext - clique)
    return sorted(cuts.values(),
                  key=lambda c: (-c.violation, tuple(sorted(c.members))))


def cut_to_row(cut: CliqueCut, n_vars: int, name: str = "clique") -> Row:
    """The cut as a row over original variables (complements substituted)."""
    terms = [(v, 1.0) for v in sorted(cut.members)]
    return literals_to_row(terms, 1.0, n_vars, name)
