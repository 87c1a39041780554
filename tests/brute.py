"""Brute-force references the tests check the package against.

Everything here trades speed for obviousness: subset enumeration for
maximal cliques, DFS enumeration of odd cycles, and exhaustive 0/1
feasibility checks.  Hard node/variable budgets refuse oversized inputs
instead of silently crawling.  Pairwise probing, the reference for the
conflict graph itself, is ``cgcuts.oracle.probe_pairs``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from cgcuts.model import EPS, SENSE_GE, SENSE_LE, MilpInstance

MAX_CLIQUE_NODES = 20
MAX_CYCLE_NODES = 14
MAX_FEASIBLE_VARS = 20


class BudgetExceededError(ValueError):
    pass


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
    shifts = np.arange(n, dtype=np.int64)
    return ((np.arange(1 << n, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.float64)


def enum_feasible(instance: MilpInstance) -> set[tuple[int, ...]]:
    """All 0/1 points satisfying every row of a pure-binary instance."""
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
