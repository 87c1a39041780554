"""Clique strengthening: grow set-packing rows to maximal cliques.

Each set-packing row (at least two literals, unit coefficients and rhs 1
in knapsack form, so complements qualify too) is extended greedily over the
conflict graph; the extended row replaces it and every other collected
set-packing row whose literal set the extension covers is dropped as
dominated.  Everything else in the instance is left untouched.

A row is read once, one way: every knapsack direction weighs a literal by
its row coefficient's magnitude, so one test that each |a_j| is within
``EPS`` of 1 passes or fails the row, and a row that passes is read
through ``model._directions``, the direction rule that ``build`` reads
too, for its literals and rhs.

An extension may hold both literals of one variable x_j, since x_j
always conflicts with its complement.  In the written row x_j and
(1 - x_j) cancel and the rhs drops by one: the row then forces every
other literal of the extension to 0, for example
``(1 - x596) + x1171 <= 0`` is written as ``-x596 + x1171 <= -1``.  The
row is valid, because each of those literals conflicts with both x_j and
its complement.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from .cgraph import ConflictGraph, greedy_extend
from .model import (
    EPS,
    SENSE_EQ,
    MilpInstance,
    _directions,
    _instance,
    _Record,
    literals_to_row,
)


class StrengthenReport(_Record):
    """extended: (origin row index, literals added); removed_rows: dominated
    rows dropped outright.  ``instance`` is the rewritten model."""

    _fields = ("extended", "removed_rows", "instance")

    def __init__(self, extended: list[tuple[int, int]], removed_rows: list[int],
                 instance: MilpInstance):
        self.extended, self.removed_rows, self.instance = extended, removed_rows, instance


def extend_clique(g: ConflictGraph, clique: Iterable[int]) -> frozenset[int]:
    """Greedily extend a clique to a maximal one.

    Literals conflicting with every member are visited by descending
    degree (ties by node id); each joins only if it conflicts with
    everything accepted so far.  The degree is ``ConflictGraph.degree``,
    an exact count that takes a stored clique whole and caches nothing,
    so ordering the members of a stored k-clique costs O(k), not k
    neighbor lists of k literals each.  The input must be a clique: each
    member's neighbor list is read once and the later members are found
    in it by ``bisect``; the first pair (in sorted order) that does not
    conflict raises ``ValueError``.
    """
    c = frozenset(clique)
    members = sorted(c)
    for i, u in enumerate(members):
        nbrs, j = g.neighbors(u), 0
        for v in members[i + 1:]:
            j = bisect.bisect_left(nbrs, v, j)
            if j == len(nbrs) or nbrs[j] != v:
                raise ValueError(f"input is not a clique: {u} and {v} do not conflict")
    return greedy_extend(g, c, lambda v: (-g.degree(v), v))


def strengthen(instance: MilpInstance, g: ConflictGraph,
               alpha_max: int = 128) -> StrengthenReport:
    """Extend set-packing rows with at most ``alpha_max`` variables.

    Equality rows stay out: replacing one with a <= row would lose its >=
    direction.  A row is replaced only when its extension is strict; rows
    whose clique lands inside another row's extension are removed.  Rows
    already removed are never extended themselves.  A negative
    ``alpha_max`` raises ``ValueError``.
    """
    if alpha_max < 0:
        raise ValueError(f"alpha_max must be >= 0, not {alpha_max!r}")
    eligible: list[tuple[int, frozenset[int]]] = []
    for ri, row in enumerate(instance.rows):
        # An equality is skipped before it is read, which would give both
        # of its directions only to have them dropped.
        if row.sense == SENSE_EQ or not 2 <= len(row.coeffs) <= alpha_max:
            continue
        # Every direction weighs a literal by its |a_j|: one test reads the
        # row, and an exact +-1, the common case, needs no tolerance.
        for _, a in row.coeffs:
            if a != 1.0 and a != -1.0 and abs(abs(a) - 1.0) > EPS:
                break
        else:
            for lits, b in _directions(row, instance):
                if abs(b - 1.0) <= EPS:
                    eligible.append((ri, frozenset(lits)))

    alive = dict(eligible)
    # A row inside an extension has its smallest literal there, so each row
    # is filed under that literal and only the extension's files are read.
    filed: dict[int, list[int]] = {}
    for ri, clique in eligible:
        filed.setdefault(min(clique), []).append(ri)
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
        for lit in ext:
            for rj in filed.get(lit, ()):
                other = alive.get(rj)
                if other is not None and other <= ext:
                    alive.pop(rj)
                    removed.append(rj)

    removed_set = set(removed)
    taken = {row.name for row in instance.rows} | {instance.objective_name}
    new_rows = []
    for ri, row in enumerate(instance.rows):
        if ri in removed_set:
            continue
        if ri in extended:
            name, k = row.name + "_clqext", 2
            while name in taken:  # the model may already use the name
                name, k = f"{row.name}_clqext{k}", k + 1
            taken.add(name)
            terms = [(lit, 1.0) for lit in sorted(extended[ri])]
            new_rows.append(literals_to_row(terms, 1.0, instance.n_vars, name))
        else:
            new_rows.append(row)

    # Every kept row and variable is the input's, and each new row has a
    # fresh name, so the result needs no second check.
    result = _instance(list(instance.variables), new_rows, instance.name,
                       instance.objective_name)
    return StrengthenReport(
        extended=sorted(added.items()),
        removed_rows=sorted(removed),
        instance=result,
    )
