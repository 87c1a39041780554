"""Brute-force reference implementations for desk-scale verification.

Everything here trades speed for obviousness: pairwise probing over raw
rows, subset enumeration for maximal cliques, DFS enumeration of odd
cycles, and exhaustive 0/1 feasibility checks.  Hard node/variable budgets
refuse oversized inputs instead of silently crawling.  The feasibility
checks import numpy on first use, so the rest of the package runs
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .model import EPS, SENSE_GE, SENSE_LE, MilpInstance

if TYPE_CHECKING:
    import numpy as np

MAX_CLIQUE_NODES = 20
MAX_CYCLE_NODES = 14
MAX_FEASIBLE_VARS = 20


class BudgetExceededError(ValueError):
    pass


@dataclass
class ProbeResult:
    edges: set[frozenset[int]]
    per_constraint: dict[int, set[frozenset[int]]]


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
    per: dict[int, set[frozenset[int]]] = {}
    for ri, row in enumerate(instance.rows):
        if any(not instance.is_binary(j) for j, _ in row.coeffs):
            continue
        row_edges: set[frozenset[int]] = set()
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
                                row_edges.add(frozenset((lp, lq)))
        per[ri] = row_edges
        edges |= row_edges
    return ProbeResult(edges, per)


def enum_maximal_cliques(adj: Mapping[int, set[int]], weights: Mapping[int, float],
                         min_weight: float) -> set[frozenset[int]]:
    """All maximal cliques of weight >= min_weight, by subset enumeration.

    ``adj`` maps every node to its neighbor set (symmetric, irreflexive).
    Subsets are checked bottom-up: S is a clique iff S minus its lowest
    node is one and that node covers the rest.
    """
    nodes = sorted(adj)
    n = len(nodes)
    if n > MAX_CLIQUE_NODES:
        raise BudgetExceededError(f"{n} nodes exceeds the {MAX_CLIQUE_NODES}-node budget")
    index = {v: i for i, v in enumerate(nodes)}
    masks = [0] * n
    for v, nbrs in adj.items():
        for u in nbrs:
            masks[index[v]] |= 1 << index[u]
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        is_clique[s] = is_clique[rest] and (masks[v] & rest) == rest
    out: set[frozenset[int]] = set()
    full = (1 << n) - 1
    for s in range(1, 1 << n):
        if not is_clique[s]:
            continue
        common = full
        w = 0.0
        m = s
        while m:
            low = m & -m
            i = low.bit_length() - 1
            common &= masks[i]
            w += weights[nodes[i]]
            m ^= low
        if common:
            continue  # extensible, not maximal
        if w >= min_weight - 1e-9:
            out.add(frozenset(nodes[i] for i in range(n) if s >> i & 1))
    return out


def _canonical_cycle(seq: list[int]) -> tuple[int, ...]:
    best: tuple[int, ...] | None = None
    for base in (seq, seq[::-1]):
        for r in range(len(base)):
            cand = tuple(base[r:] + base[:r])
            if best is None or cand < best:
                best = cand
    return best  # type: ignore[return-value]


def enum_odd_cycles(adj: Mapping[int, set[int]], values: Mapping[int, float],
                    tol: float = 1e-9) -> set[tuple[int, ...]]:
    """All simple odd cycles of length >= 5 whose value sum beats (|O|-1)/2.

    Cycles are returned in canonical rotation/reflection order.  DFS roots
    at the smallest cycle member, so each cycle is generated from exactly
    one root (twice, once per direction) and deduplicated.
    """
    nodes = sorted(adj)
    if len(nodes) > MAX_CYCLE_NODES:
        raise BudgetExceededError(f"{len(nodes)} nodes exceeds the {MAX_CYCLE_NODES}-node budget")
    out: set[tuple[int, ...]] = set()
    for s in nodes:
        path = [s]
        on_path = {s}

        def dfs(v: int) -> None:
            for u in sorted(adj[v]):
                if u == s:
                    k = len(path)
                    if k >= 5 and k % 2 == 1:
                        if sum(values[w] for w in path) > (k - 1) / 2 + tol:
                            out.add(_canonical_cycle(path))
                elif u > s and u not in on_path:
                    path.append(u)
                    on_path.add(u)
                    dfs(u)
                    path.pop()
                    on_path.remove(u)

        dfs(s)
    return out


def _all_points(n: int) -> np.ndarray:
    import numpy as np

    shifts = np.arange(n, dtype=np.int64)
    return ((np.arange(1 << n, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.float64)


def enum_feasible(instance: MilpInstance) -> set[tuple[int, ...]]:
    """All 0/1 points satisfying every row of a pure-binary instance."""
    import numpy as np

    if any(not v.is_binary for v in instance.variables):
        raise BudgetExceededError("feasibility enumeration requires a pure-binary instance")
    n = instance.n_vars
    if n > MAX_FEASIBLE_VARS:
        raise BudgetExceededError(f"{n} variables exceeds the {MAX_FEASIBLE_VARS}-variable budget")
    pts = _all_points(n)
    feasible = np.ones(len(pts), dtype=bool)
    for row in instance.rows:
        if not row.coeffs:
            idx = np.zeros(0, dtype=np.int64)
            coeff = np.zeros(0)
        else:
            idx = np.array([j for j, _ in row.coeffs], dtype=np.int64)
            coeff = np.array([a for _, a in row.coeffs])
        lhs = pts[:, idx] @ coeff if len(idx) else np.zeros(len(pts))
        if row.sense == SENSE_LE:
            feasible &= lhs <= row.rhs + EPS
        elif row.sense == SENSE_GE:
            feasible &= lhs >= row.rhs - EPS
        else:
            feasible &= np.abs(lhs - row.rhs) <= EPS
    kept = pts[feasible].astype(np.int64)
    return {tuple(int(x) for x in p) for p in kept}


def enum_conflict_feasible(edges: Iterable[frozenset[int]], n_vars: int) -> set[tuple[int, ...]]:
    """All 0/1 points respecting every literal-pair conflict edge."""
    import numpy as np

    if n_vars > MAX_FEASIBLE_VARS:
        raise BudgetExceededError(f"{n_vars} variables exceeds the {MAX_FEASIBLE_VARS}-variable budget")
    pts = _all_points(n_vars)
    lit_vals = np.hstack([pts, 1.0 - pts])
    feasible = np.ones(len(pts), dtype=bool)
    for edge in edges:
        a, b = tuple(edge)
        feasible &= lit_vals[:, a] + lit_vals[:, b] <= 1.0 + EPS
    kept = pts[feasible].astype(np.int64)
    return {tuple(int(x) for x in p) for p in kept}
