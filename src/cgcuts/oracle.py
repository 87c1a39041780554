"""Pairwise probing: the brute-force reference for the conflict graph.

It reads the raw rows, with no knapsack normalization and no clique
detection, so it shares no code path with ``cgcuts.cgraph``.  The tests
and the benchmark's correctness gate compare built graphs against it.
"""

from __future__ import annotations

from .model import EPS, SENSE_GE, SENSE_LE, MilpInstance, _Record


class ProbeResult(_Record):
    _fields = ("edges",)

    def __init__(self, edges: set[frozenset[int]]):
        self.edges = edges


def probe_pairs(instance: MilpInstance) -> ProbeResult:
    """Pairwise probing over all binary rows.

    For a row ``sum a_j x_j <= b`` and assignments x_p = v1, x_q = v2, the
    lower bound of the left-hand side activates every other negative
    coefficient; exceeding b marks the literal pair as conflicting.  Rows
    with non-binary variables are skipped, >= rows are negated, equalities
    probed in both directions.
    """
    n = instance.n_vars
    edges: set[frozenset[int]] = set()
    for row in instance.rows:
        if any(not instance.is_binary(j) for j, _ in row.coeffs):
            continue
        if row.sense == SENSE_LE:
            directions = [(row.coeffs, row.rhs)]
        elif row.sense == SENSE_GE:
            directions = [([(j, -a) for j, a in row.coeffs], -row.rhs)]
        else:
            directions = [
                (row.coeffs, row.rhs),
                ([(j, -a) for j, a in row.coeffs], -row.rhs),
            ]
        for coeffs, b in directions:
            neg_total = sum(a for _, a in coeffs if a < 0)
            for i in range(len(coeffs)):
                p, ap = coeffs[i]
                for k in range(i + 1, len(coeffs)):
                    q, aq = coeffs[k]
                    base = neg_total - min(ap, 0.0) - min(aq, 0.0)
                    for v1 in (0, 1):
                        for v2 in (0, 1):
                            lhs = v1 * ap + v2 * aq + base
                            if lhs > b + EPS:
                                lp = p if v1 else p + n
                                lq = q if v2 else q + n
                                edges.add(frozenset((lp, lq)))
    return ProbeResult(edges)
