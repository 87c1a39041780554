"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import random

from cgcuts import MilpInstance, Row, Variable, normalize_to_knapsack
from cgcuts.bk import WeightedSubgraph, weight_order
from cgcuts.model import KnapsackRow, complement_node


def binary_vars(n: int, prefix: str = "x") -> list[Variable]:
    return [Variable(f"{prefix}{i + 1}", 0.0, 1.0, True) for i in range(n)]


def knapsack_example_instance() -> MilpInstance:
    """Two rows: a mixed-sign knapsack and a covering row.

    Expected cliques after normalization: {!x3,x4,x5,x6}, {x2,x5,x6},
    {!x1,x6} from the first row and none from the second.
    """
    rows = [
        Row("c1", [(0, -3.0), (1, 4.0), (2, -5.0), (3, 6.0), (4, 7.0), (5, 8.0)], "<=", 2.0),
        Row("c2", [(0, 1.0), (1, 1.0), (2, 1.0)], ">=", 1.0),
    ]
    return MilpInstance(binary_vars(6), rows, name="KNPEX")


def tuple_store_instance() -> MilpInstance:
    """Three plain rows whose detected cliques fill the tuple store with
    first cliques {x3,x4,x5,x6}, {x2,x6,x8}, {x4,x6,x8,x9,x10} and tuples
    (x2,c1,3), (x1,c1,4), (x3,c3,2), (x2,c3,2), (x1,c3,4)."""
    rows = [
        Row("r1", [(0, 3.0), (1, 4.0), (2, 5.0), (3, 6.0), (4, 7.0), (5, 8.0)], "<=", 10.0),
        Row("r2", [(1, 1.0), (5, 1.0), (7, 1.0)], "<=", 1.0),
        Row("r3", [(0, 5.0), (1, 9.0), (2, 9.0), (3, 11.0), (5, 12.0),
                   (7, 14.0), (8, 16.0), (9, 17.0)], "<=", 20.0),
    ]
    return MilpInstance(binary_vars(10), rows, name="TUPLES")


def strengthen_example_instance() -> MilpInstance:
    """A knapsack row plus two set-packing rows; extending the first
    set-packing row yields x2+x3+x4+x5+x6 <= 1 and dominates the second."""
    rows = [
        Row("k1", [(0, -4.0), (1, 4.0), (2, 5.0), (3, 6.0), (4, 7.0), (5, 10.0)], "<=", 6.0),
        Row("p1", [(1, 1.0), (2, 1.0), (3, 1.0)], "<=", 1.0),
        Row("p2", [(1, 1.0), (4, 1.0)], "<=", 1.0),
    ]
    return MilpInstance(binary_vars(6), rows, name="CLQSTR")


def crossed_clique_instance(rng: random.Random) -> tuple[MilpInstance, list[int], list[int]]:
    """A knapsack row whose first clique has 20-60 literals, low-coefficient
    literals that each form a tuple with a suffix of it, pair rows that
    cross it and set-packing rows inside it.

    In knapsack form the row has rhs 100: clique members weigh 51-100 (any
    two overload it), tuple literals 20-49 (they pair only with the
    heaviest members).  About a fifth of the variables enter negated, so
    their complements are the literals.  Returns the instance and the
    variable indices of the clique and of the tuple literals.
    """
    m, t, extra = rng.randint(20, 60), rng.randint(3, 8), rng.randint(2, 6)
    n = m + t + extra
    clique, tuples, other = list(range(m)), list(range(m, m + t)), list(range(m + t, n))
    coeffs = [(j, float(rng.randint(51, 100))) for j in clique]
    coeffs += [(j, float(rng.randint(20, 49))) for j in tuples]
    coeffs = [(j, -a) if rng.random() < 0.2 else (j, a) for j, a in coeffs]
    rows = [Row("knap", coeffs, "<=", 100.0 + sum(a for _, a in coeffs if a < 0))]
    pairs = {(rng.choice(clique), rng.choice(tuples + other)) for _ in range(rng.randint(3, 12))}
    pairs |= {tuple(rng.sample(tuples + other, 2)) for _ in range(rng.randint(2, 8))}
    rows += pair_rows(sorted(pairs))
    for i in range(rng.randint(2, 6)):
        support = rng.sample(clique, rng.randint(2, 5))
        rows.append(Row(f"p{i}", [(j, 1.0) for j in support], "<=", 1.0))
    return MilpInstance(binary_vars(n), rows, name="CROSSED"), clique, tuples


# A row named 'MARKER' (the parser keeps it, with no entries) over one
# binary, and an objective named 'MARKER' with a column whose only entry is
# 0.0, which the writer would declare by a zero objective line.  Written
# out, either name's COLUMNS lines would read as marker lines.
MARKER_ROW_MPS = """\
NAME M
ROWS
 N OBJ
 L 'MARKER'
COLUMNS
    x OBJ 1.0
RHS
    RHS 'MARKER' 1.0
BOUNDS
 BV BND x
ENDATA
"""
MARKER_OBJECTIVE_MPS = """\
NAME M
ROWS
 N 'MARKER'
 L r
COLUMNS
    x r 0.0
    y r 1.0
RHS
BOUNDS
 BV BND x
 BV BND y
ENDATA
"""


def pair_rows(pairs: list[tuple[int, int]], offset: int = 0) -> list[Row]:
    return [
        Row(f"e{offset + i}", [(a, 1.0), (b, 1.0)], "<=", 1.0)
        for i, (a, b) in enumerate(pairs)
    ]


def odd_wheel_instance() -> MilpInstance:
    """A 5-cycle x1..x5 with a center triangle x6,x7,x8 conflicting with
    every cycle vertex and with each other."""
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(c, i) for c in (5, 6, 7) for i in range(5)]
    hub = [(5, 6), (5, 7), (6, 7)]
    return MilpInstance(binary_vars(8), pair_rows(cycle + spokes + hub), name="WHEEL")


def five_cycle_instance() -> MilpInstance:
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    return MilpInstance(binary_vars(5), pair_rows(cycle), name="C5")


def triangle_instance() -> MilpInstance:
    return MilpInstance(binary_vars(3), [Row("t", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0)],
                        name="K3")


# ---------------------------------------------------------------------------
# Random generators


def random_row(rng: random.Random, n_vars: int, name: str,
               guard_fixings: bool = True) -> Row:
    """A random row with mixed-sign integer coefficients.

    With ``guard_fixings`` the rhs is placed so that, in knapsack form,
    the largest coefficient alone never overloads the row: such rows imply
    variable fixings rather than pure pairwise conflicts, which is outside
    what the per-row clique detector models.
    """
    size = rng.randint(2, min(8, n_vars))
    support = sorted(rng.sample(range(n_vars), size))
    coeffs = [(j, float(rng.choice([-1, 1]) * rng.randint(1, 10))) for j in support]
    sense = rng.choice(["<=", ">=", "="])
    abs_sum = sum(abs(a) for _, a in coeffs)
    abs_max = max(abs(a) for _, a in coeffs)
    if guard_fixings:
        if sense == "=":
            neg = -sum(a for _, a in coeffs if a < 0)
            pos = sum(a for _, a in coeffs if a > 0)
            lo = abs_max - neg
            hi = pos - abs_max
            if lo > hi:
                sense = "<="
            else:
                return Row(name, coeffs, "=", float(rng.randint(int(lo), int(hi))))
        # knapsack rhs b' = b + sum(|neg|)  =>  pick b' in [abs_max, abs_sum]
        neg = -sum(a for _, a in coeffs if a < 0)
        b_knap = rng.randint(int(abs_max), int(abs_sum))
        if sense == "<=":
            return Row(name, coeffs, "<=", float(b_knap - neg))
        # >= row normalizes with flipped signs: b' = -b + sum(pos)
        pos = sum(a for _, a in coeffs if a > 0)
        return Row(name, coeffs, ">=", float(pos - b_knap))
    rhs = float(rng.randint(-int(abs_sum), int(abs_sum)))
    return Row(name, coeffs, sense, rhs)


def random_binary_instance(rng: random.Random, n_vars: int | None = None,
                           n_rows: int | None = None,
                           guard_fixings: bool = True) -> MilpInstance:
    n = n_vars if n_vars is not None else rng.randint(3, 16)
    m = n_rows if n_rows is not None else rng.randint(1, 8)
    rows = [random_row(rng, n, f"c{i}", guard_fixings) for i in range(m)]
    return MilpInstance(binary_vars(n), rows, name="RND")


def random_setpacking_instance(rng: random.Random, n_vars: int | None = None) -> MilpInstance:
    """Mix of set-packing rows (some as >= covers) and knapsack rows."""
    n = n_vars if n_vars is not None else rng.randint(4, 12)
    rows = []
    for i in range(rng.randint(2, 7)):
        kind = rng.random()
        size = rng.randint(2, min(4, n))
        support = rng.sample(range(n), size)
        if kind < 0.55:
            rows.append(Row(f"p{i}", [(j, 1.0) for j in support], "<=", 1.0))
        elif kind < 0.75:
            # cover row: set-packing over complements after normalization
            rows.append(Row(f"p{i}", [(j, 1.0) for j in support], ">=", float(size - 1)))
        else:
            rows.append(random_row(rng, n, f"p{i}"))
    return MilpInstance(binary_vars(n), rows, name="RNDSP")


def random_point(rng: random.Random, instance: MilpInstance,
                 lo: float = 0.0, hi: float = 1.0, with_rc: bool = False):
    from cgcuts import FractionalPoint

    values = {j: rng.uniform(lo, hi) for j in instance.binary_indices()}
    rcs = None
    if with_rc:
        rcs = {j: rng.uniform(-5.0, 5.0) for j in instance.binary_indices()}
    return FractionalPoint(values, rcs)


def random_weighted_graph(rng: random.Random, n: int, density: float):
    """(adjacency dict, weights dict) over nodes 0..n-1."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u].add(v)
                adj[v].add(u)
    weights = {v: rng.uniform(0.0, 1.0) for v in range(n)}
    return adj, weights


def knapsack_row_pairwise_edges(krow: KnapsackRow) -> set[frozenset[int]]:
    """Direct pairwise conflicts of a knapsack row: a_i + a_j > rhs."""
    edges = set()
    lits = krow.literals
    for i in range(len(lits)):
        for k in range(i + 1, len(lits)):
            if lits[i][1] + lits[k][1] > krow.rhs + 1e-8:
                edges.add(frozenset((lits[i][0], lits[k][0])))
    return edges


def single_swap_cliques(krow: KnapsackRow) -> list[frozenset[int]]:
    """Baseline clique extraction: initial clique plus one-variable swaps.

    Replaces only the smallest-coefficient member of the initial clique by
    an outside literal, keeping the clique property; additional cliques
    therefore always differ from the initial one in a single position.
    """
    items = sorted(krow.literals, key=lambda t: (t[1], t[0]))
    lits = [t[0] for t in items]
    a = [t[1] for t in items]
    b = krow.rhs
    m = len(a)
    if m < 2 or not a[m - 2] + a[m - 1] > b + 1e-8:
        return []
    k = 0
    while not a[k] + a[k + 1] > b + 1e-8:
        k += 1
    out = [frozenset(lits[k:])]
    tail = lits[k + 1:]
    for o in range(k):
        if tail and a[o] + a[k + 1] > b + 1e-8:
            out.append(frozenset([lits[o], *tail]))
    return out


def cliques_edge_set(cliques) -> set[frozenset[int]]:
    edges = set()
    for c in cliques:
        members = sorted(c)
        for i in range(len(members)):
            for k in range(i + 1, len(members)):
                edges.add(frozenset((members[i], members[k])))
    return edges


def edge_set(g) -> set[frozenset[int]]:
    """All non-trivial conflict edges of a graph, complement pairs left out.
    Calls no ``neighbors``."""
    return {frozenset((a, b))
            for a, nbrs in g.conflicts_among(range(g.n_nodes)).items()
            for b in nbrs if b != complement_node(a, g.n_vars)}


def count_neighbors_calls(g) -> list[int]:
    """Counts the ``neighbors`` calls made on this one graph from now on,
    in the returned one-element list."""
    calls = [0]
    neighbors = g.neighbors

    def counted(a):
        calls[0] += 1
        return neighbors(a)

    g.neighbors = counted
    return calls


def weighted_subgraph(weights: dict[int, float], edges) -> WeightedSubgraph:
    """The subgraph over ``weights``' ids with the given edges, numbered
    by ``bk.weight_order``; each edge is any pair of ids."""
    nodes = weight_order(weights)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for e in edges:
        u, v = tuple(e)
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return WeightedSubgraph(nodes, [weights[v] for v in nodes], adj)


def graph_adjacency(g) -> dict[int, set[int]]:
    """Full adjacency (trivial conflicts included) as a dict of sets."""
    return {v: set(g.neighbors(v)) for v in range(g.n_nodes)}


def all_knapsack_rows(instance: MilpInstance) -> list[KnapsackRow]:
    out = []
    for row in instance.rows:
        out.extend(normalize_to_knapsack(row, instance))
    return out
