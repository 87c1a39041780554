"""Correctness gates, independent of ``cgcuts.cgraph``.

Conflicts come from ``cgcuts.oracle.probe_pairs`` (pairwise probing of the
raw rows), computed once per model, plus the trivial literal-complement
pairs.  Each gate returns ``None`` when the output passes, else a short
reason; a failing op is counted, never fatal.
"""

from __future__ import annotations

from cgcuts.model import parse_mps
from cgcuts.oracle import probe_pairs

TOL = 1e-6


class Conflicts:
    def __init__(self, mps: str):
        instance = parse_mps(mps)
        self.n = instance.n_vars
        self.names = [v.name for v in instance.variables]
        self.adj: dict[int, set[int]] = {}
        for edge in probe_pairs(instance).edges:
            a, b = tuple(edge)
            self.adj.setdefault(a, set()).add(b)
            self.adj.setdefault(b, set()).add(a)

    def conflict(self, a: int, b: int) -> bool:
        return a != b and (abs(a - b) == self.n or b in self.adj.get(a, ()))

    def is_clique(self, lits) -> bool:
        lits = list(lits)
        return all(self.conflict(a, b) for i, a in enumerate(lits) for b in lits[i + 1:])


def lit_value(x: dict[int, float], lit: int, n: int) -> float:
    return 1.0 - x.get(lit - n, 0.0) if lit >= n else x.get(lit, 0.0)


def check_clique_cuts(cf: Conflicts, x: dict[int, float], cuts: list,
                      min_viol: float) -> str | None:
    """cuts: [members, violation text, lifted members], members sorted."""
    keys = set()
    for members, viol_text, lifted in cuts:
        key = tuple(members)
        if key in keys:
            return f"duplicate cut {key}"
        keys.add(key)
        if not cf.is_clique(members):
            return f"cut {key} is not a clique"
        if not set(lifted) <= set(members):
            return f"cut {key} lifts literals outside it"
        viol = sum(lit_value(x, v, cf.n) for v in members) - 1.0
        if viol < min_viol - TOL or abs(viol - float(viol_text)) > TOL:
            return f"cut {key} violation {viol_text}, recomputed {viol:.9f}"
    return None


def check_oddwheel_cuts(cf: Conflicts, x: dict[int, float], cuts: list) -> str | None:
    """cuts: [cycle, center (sorted), violation text]."""
    keys = set()
    for cycle, center, viol_text in cuts:
        key = (tuple(cycle), tuple(center))
        if key in keys:
            return f"duplicate cut {key}"
        keys.add(key)
        k = len(cycle)
        if k < 5 or k % 2 == 0 or len(set(cycle) | set(center)) != k + len(center):
            return f"cut {key} is not an odd cycle of length >= 5 with a disjoint center"
        if not all(cf.conflict(cycle[i], cycle[(i + 1) % k]) for i in range(k)):
            return f"cut {key}: cycle neighbors do not conflict"
        if not all(cf.conflict(c, v) for c in center for v in cycle):
            return f"cut {key}: center does not conflict with the whole cycle"
        if not cf.is_clique(center):
            return f"cut {key}: center is not a clique"
        half = (k - 1) // 2
        viol = (sum(lit_value(x, v, cf.n) for v in cycle)
                + half * sum(lit_value(x, v, cf.n) for v in center) - half)
        if viol <= 0.0 or abs(viol - float(viol_text)) > TOL:
            return f"cut {key} violation {viol_text}, recomputed {viol:.9f}"
    return None


def _packing_lits(sense: str, coeffs: list[tuple[int, float]], rhs: float,
                  n: int) -> frozenset[int] | None:
    """Literal set of a row that is a set-packing row in knapsack form."""
    if sense == "G":
        coeffs, rhs = [(j, -a) for j, a in coeffs], -rhs
    elif sense != "L":
        return None
    if len(coeffs) < 2 or any(abs(a) != 1.0 for _, a in coeffs):
        return None
    if rhs + sum(1 for _, a in coeffs if a < 0) != 1.0:
        return None
    return frozenset(j if a > 0 else j + n for j, a in coeffs)


def _extension_lits(cf: Conflicts, coeffs: list[tuple[int, float]], rhs: float,
                    base: frozenset[int]) -> frozenset[int] | None:
    """Literal set of a written ``<= `` extension row.

    An extension that holds both literals of a variable is written with
    that variable cancelled and the rhs one lower (the other literals must
    then all be 0).  That variable is recovered from the conflicts: both
    of its literals conflict with every literal left in the row.
    """
    if any(abs(a) != 1.0 for _, a in coeffs):
        return None
    n = cf.n
    lits = frozenset(j if a > 0 else j + n for j, a in coeffs)
    cancelled = 1.0 - sum(1 for _, a in coeffs if a < 0) - rhs
    if cancelled == 0.0:
        return lits
    if cancelled != 1.0 or not lits:
        return None
    vars_in_row = {j for j, _ in coeffs}
    first = cf.adj.get(next(iter(lits)), set())
    for v in sorted({u % n for u in first} - vars_in_row):
        pair = {v, v + n}
        if all(cf.conflict(u, l) for u in pair for l in lits) and base <= lits | pair:
            return lits | pair
    return None


SENSE = {"<=": "L", ">=": "G", "=": "E"}


def check_strengthened(cf: Conflicts, rows: list, out_text: str) -> tuple[str | None, int, int]:
    """Gate one ``cgcuts strengthen`` output against the input row specs.

    Returns (failure, extended rows, literals added).  The output must
    re-parse with the same columns; each ``_clqext`` row must be a clique
    containing its set-packing origin; every row not extended or removed
    must be unchanged; each removed row must lie inside some extension.
    """
    try:
        out = parse_mps(out_text)
    except ValueError as exc:
        return f"output does not re-parse: {exc}", 0, 0
    n = cf.n
    if [v.name for v in out.variables] != cf.names:
        return "output columns differ from the input", 0, 0
    spec = {name: (sense, [(j, float(a)) for j, a in coeffs], float(rhs))
            for name, sense, coeffs, rhs in rows}
    kept, exts, added = set(), [], 0
    for row in out.rows:
        sense = SENSE[row.sense]
        if row.name.endswith("_clqext"):
            origin = row.name[:-len("_clqext")]
            if origin not in spec:
                return f"{row.name} has no origin row", 0, 0
            base = _packing_lits(*spec[origin], n)
            ext = None if base is None else _extension_lits(cf, row.coeffs, row.rhs, base)
            if ext is None or sense != "L" or not base < ext:
                return f"{row.name} is not a strict set-packing extension", 0, 0
            if not cf.is_clique(ext):
                return f"{row.name} is not a clique", 0, 0
            kept.add(origin)
            exts.append(ext)
            added += len(ext) - len(base)
        elif spec.get(row.name) != (sense, row.coeffs, row.rhs):
            return f"row {row.name} changed", 0, 0
        else:
            kept.add(row.name)
    for name, (sense, coeffs, rhs) in spec.items():
        if name in kept:
            continue
        lits = _packing_lits(sense, coeffs, rhs, n)
        if lits is None or not any(lits <= e for e in exts):
            return f"removed row {name} lies inside no extension", 0, 0
    return None, len(exts), added
