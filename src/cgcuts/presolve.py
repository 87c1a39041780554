"""Clique strengthening: grow set-packing rows to maximal cliques.

Each set-packing row (unit coefficients, rhs 1 after knapsack
normalization, so complements qualify too) is extended greedily over the
conflict graph; the extended row replaces it and every other collected
set-packing row whose literal set the extension covers is dropped as
dominated.  Everything else in the instance is left untouched.

An extension may hold both literals of one variable x_j, since x_j
always conflicts with its complement.  In the written row x_j and
(1 - x_j) cancel and the rhs drops by one: the row then forces every
other literal of the extension to 0, for example
``(1 - x596) + x1171 <= 0`` is written as ``-x596 + x1171 <= -1``.  The
row is valid, because each of those literals conflicts with both x_j and
its complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cgraph import ConflictGraph, greedy_extend
from .model import (
    EPS,
    SENSE_EQ,
    MilpInstance,
    literals_to_row,
    normalize_to_knapsack,
)


@dataclass
class StrengthenReport:
    """extended: (origin row index, literals added); removed_rows: dominated
    rows dropped outright.  ``instance`` is the rewritten model."""

    extended: list[tuple[int, int]]
    removed_rows: list[int]
    instance: MilpInstance


def extend_clique(g: ConflictGraph, clique: Iterable[int]) -> frozenset[int]:
    """Greedily extend a clique to a maximal one.

    Literals conflicting with every member are visited by descending
    degree (ties by node id); each joins only if it conflicts with
    everything accepted so far.
    """
    c = frozenset(clique)
    members = sorted(c)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if not g.conflicting(u, v):
                raise ValueError(f"input is not a clique: {u} and {v} do not conflict")
    return greedy_extend(g, c, lambda v: (-g.degree(v), v))


def _set_packing_clique(krow) -> frozenset[int] | None:
    if len(krow.literals) < 2:
        return None
    if abs(krow.rhs - 1.0) > EPS:
        return None
    if any(abs(a - 1.0) > EPS for _, a in krow.literals):
        return None
    return frozenset(lit for lit, _ in krow.literals)


def strengthen(instance: MilpInstance, g: ConflictGraph,
               alpha_max: int = 128) -> StrengthenReport:
    """Extend set-packing rows with at most ``alpha_max`` variables.

    Equality rows stay out: replacing one with a <= row would lose its >=
    direction.  A row is replaced only when its extension is strict; rows
    whose clique lands inside another row's extension are removed.  Rows
    already removed are never extended themselves.
    """
    eligible: list[tuple[int, frozenset[int]]] = []
    for ri, row in enumerate(instance.rows):
        if row.sense == SENSE_EQ or len(row.coeffs) > alpha_max:
            continue
        krows = normalize_to_knapsack(row, instance)
        if len(krows) != 1:
            continue
        clique = _set_packing_clique(krows[0])
        if clique is not None:
            eligible.append((ri, clique))

    alive = dict(eligible)
    extended: dict[int, frozenset[int]] = {}
    added: dict[int, int] = {}
    removed: list[int] = []
    for ri, clique in eligible:
        if ri not in alive:
            continue
        ext = extend_clique(g, clique)
        if ext == clique:
            continue
        extended[ri] = ext
        added[ri] = len(ext) - len(clique)
        alive.pop(ri)
        for rj in list(alive):
            if alive[rj] <= ext:
                alive.pop(rj)
                removed.append(rj)

    removed_set = set(removed)
    new_rows = []
    for ri, row in enumerate(instance.rows):
        if ri in removed_set:
            continue
        if ri in extended:
            terms = [(lit, 1.0) for lit in sorted(extended[ri])]
            new_rows.append(literals_to_row(terms, 1.0, instance.n_vars,
                                            row.name + "_clqext"))
        else:
            new_rows.append(row)

    result = MilpInstance(list(instance.variables), new_rows,
                          name=instance.name,
                          objective_name=instance.objective_name)
    return StrengthenReport(
        extended=sorted(added.items()),
        removed_rows=sorted(removed),
        instance=result,
    )
