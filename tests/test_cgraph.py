import itertools
import random
from collections import Counter

from cgcuts import (
    BkParams,
    FractionalPoint,
    MilpInstance,
    Row,
    build,
    detect_cliques,
    normalize_to_knapsack,
)
from cgcuts.bk import find_cliques
from cgcuts.cgraph import RowCliques, detect_cliques_compressed, greedy_extend
from cgcuts.model import EPS, KnapsackRow
from cgcuts.oracle import probe_pairs
from cgcuts.sep_clique import candidate_order_key, fractional_subgraph

import gen


def _lit(j, n, neg=False):
    return j + n if neg else j


def test_detect_cliques_knapsack_example():
    inst = gen.knapsack_example_instance()
    n = inst.n_vars
    [k1] = normalize_to_knapsack(inst.rows[0], inst)
    cliques = {frozenset(c) for c in detect_cliques(k1)}
    x = lambda j: _lit(j - 1, n)
    nx = lambda j: _lit(j - 1, n, True)
    assert cliques == {
        frozenset({nx(3), x(4), x(5), x(6)}),
        frozenset({x(2), x(5), x(6)}),
        frozenset({nx(1), x(6)}),
    }
    # covering row rewrites to !x1+!x2+!x3 <= 2: no pair overloads it
    [k2] = normalize_to_knapsack(inst.rows[1], inst)
    assert detect_cliques(k2) == []


def test_detect_cliques_set_packing_row():
    inst = gen.triangle_instance()
    [k] = normalize_to_knapsack(inst.rows[0], inst)
    assert detect_cliques(k) == [frozenset({0, 1, 2})]


def test_detect_cliques_empty_row():
    assert detect_cliques(KnapsackRow([], 1.0)) == []
    assert detect_cliques(KnapsackRow([(0, 1.0)], 1.0)) == []


def _reference_detect(row):
    """Detection by linear scans: k is the first i with a[i] + a[i+1] > b,
    and each f the first j > o with a[o] + a[j] > b."""
    items = sorted(row.literals, key=lambda t: (t[1], t[0]))
    lits = [t[0] for t in items]
    a = [t[1] for t in items]
    b = row.rhs
    ks = [i for i in range(len(a) - 1) if a[i] + a[i + 1] > b + EPS]
    if not ks:
        return RowCliques([], [])
    k = ks[0]
    addtl = []
    for o in range(k - 1, -1, -1):
        fs = [j for j in range(o + 1, len(a)) if a[o] + a[j] > b + EPS]
        if not fs:
            break
        addtl.append((lits[o], fs[0] - k + 1))
    return RowCliques(lits[k:], addtl)


def test_detect_per_row_completeness_random():
    """Union of pairwise edges from the detector == direct a_i+a_j > b pairs,
    and the cliques are those of the linear-scan reference."""
    rng = random.Random(21)
    for _ in range(200):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 16), n_rows=1)
        for k in gen.all_knapsack_rows(inst):
            got = gen.cliques_edge_set(detect_cliques(k))
            assert got == gen.knapsack_row_pairwise_edges(k)
            assert detect_cliques_compressed(k) == _reference_detect(k)


def test_detect_matches_reference_on_ties_and_eps_boundaries():
    rng = random.Random(27)
    covered = Counter()
    for _ in range(300):
        m = rng.randint(2, 14)
        coeffs = [rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)) for _ in range(m)]
        ids = rng.sample(range(2 * m), m)  # ties break by literal id
        i, j = rng.sample(range(m), 2)
        # A pair sum within a few EPS of the rhs, either side of b + EPS.
        rhs = coeffs[i] + coeffs[j] + rng.choice((-2, -1, -0.5, 0, 0.5, 1, 2)) * EPS
        row = KnapsackRow(list(zip(ids, coeffs)), rhs)
        ref = _reference_detect(row)
        assert detect_cliques_compressed(row) == ref
        covered["cliques"] += bool(ref.initial)
        covered["tuples"] += bool(ref.addtl)
        covered["ties"] += len(set(coeffs)) < m
    assert min(covered.values()) >= 30, covered


def test_detect_covers_single_swap_baseline():
    rng = random.Random(22)
    for _ in range(200):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 12), n_rows=1)
        for k in gen.all_knapsack_rows(inst):
            baseline = gen.cliques_edge_set(gen.single_swap_cliques(k))
            improved = gen.cliques_edge_set(detect_cliques(k))
            assert baseline <= improved


def test_build_tuple_store_golden():
    inst = gen.tuple_store_instance()
    g = build(inst, min_clq_size=0)
    x = lambda j: j - 1  # all literals plain here
    assert g.store.first == [
        [x(3), x(4), x(5), x(6)],
        [x(2), x(6), x(8)],
        [x(4), x(6), x(8), x(9), x(10)],
    ]
    assert [len(f) for f in g.store.first] == [4, 3, 5]
    assert g.store.addtl == [
        (x(2), 0, 3),
        (x(1), 0, 4),
        (x(3), 2, 2),
        (x(2), 2, 2),
        (x(1), 2, 4),
    ]
    # expanding the tuples reproduces the detected cliques
    members = [[lit, *g.store.first[c][l - 1:]] for lit, c, l in g.store.addtl]
    assert members == [
        [x(2), x(5), x(6)],
        [x(1), x(6)],
        [x(3), x(6), x(8), x(9), x(10)],
        [x(2), x(6), x(8), x(9), x(10)],
        [x(1), x(9), x(10)],
    ]


def test_build_no_binary_rows():
    from cgcuts import MilpInstance, Row, Variable

    variables = [Variable("x", 0.0, 1.0, True), Variable("y", 0.0, 3.0, True)]
    inst = MilpInstance(variables, [Row("r", [(0, 1.0), (1, 1.0)], "<=", 1.0)])
    g = build(inst)
    assert g.n_nodes == 4
    assert gen.edge_set(g) == set()
    assert g.conflicting(0, 2)  # trivial pair still answered
    assert g.neighbors(0) == (2,)


def test_conflicting_trivial_and_isolated():
    g = build(gen.triangle_instance(), 0)
    assert g.conflicting(0, 3)
    assert g.conflicting(3, 0)
    assert not g.conflicting(3, 4)  # two isolated complements
    assert not g.conflicting(0, 0)


def test_conflicting_strengthen_example_edge():
    inst = gen.strengthen_example_instance()
    g = build(inst)
    assert g.conflicting(1, 4)  # x2 and x5 share a packing row
    assert g.conflicting(4, 1)
    assert not g.conflicting(0, 1)


def test_neighbors_contains_clique_and_complement():
    g = build(gen.triangle_instance(), 0)
    assert set(g.neighbors(0)) >= {1, 2, 3}


def test_neighbors_symmetry_and_oracle_equivalence():
    rng = random.Random(23)
    for _ in range(50):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 12))
        g = build(inst, min_clq_size=rng.choice([0, 2, 512]))
        probe = probe_pairs(inst)
        assert gen.edge_set(g) == probe.edges
        degrees = [g.degree(a) for a in range(g.n_nodes)]
        assert not g._nbrs  # edge_set and degree fill no cache
        for a in range(g.n_nodes):
            assert degrees[a] == len(g.neighbors(a))
            for b in g.neighbors(a):
                assert a in g.neighbors(b)
                assert g.conflicting(a, b) and g.conflicting(b, a)
            for b in range(g.n_nodes):
                expect = b == g.complement(a) or frozenset((a, b)) in probe.edges
                assert g.conflicting(a, b) == expect


def test_storage_transparency():
    """Query answers are independent of where the split parameter lands."""
    rng = random.Random(24)
    pick = random.Random(124)  # subsets drawn apart, so the instances stay put
    for _ in range(30):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 10))
        graphs = [build(inst, m) for m in (0, 1, 2, 3, 512)]
        base = graphs[-1]
        subset = pick.sample(range(base.n_nodes), pick.randint(0, base.n_nodes))
        among = base.conflicts_among(subset)
        assert among == {a: [b for b in base.neighbors(a) if b in among]
                         for a in subset}
        for g in graphs[:-1]:
            assert g.conflicts_among(subset) == among
            for a in range(base.n_nodes):
                assert g.neighbors(a) == base.neighbors(a)
                for b in range(a + 1, base.n_nodes):
                    assert g.conflicting(a, b) == base.conflicting(a, b)


def test_tuple_expansion_edges_are_row_edges():
    rng = random.Random(25)
    for _ in range(50):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 12), n_rows=1)
        for k in gen.all_knapsack_rows(inst):
            rc = detect_cliques_compressed(k)
            direct = gen.knapsack_row_pairwise_edges(k)
            for lit, l in rc.addtl:
                assert 1 <= l <= len(rc.initial)
                members = [lit, *rc.initial[l - 1:]]
                assert gen.cliques_edge_set([members]) <= direct


def test_store_tuple_positions_in_range():
    # A kept tuple has l >= 2, so it is no larger than its first clique,
    # which is therefore stored too: no tuple reads a dissolved clique.
    rng = random.Random(26)
    instances = [gen.random_binary_instance(rng, n_vars=rng.randint(2, 12))
                 for _ in range(30)]
    # Random rows have at most 8 literals, too few to keep a tuple at 4.
    instances.append(MilpInstance(gen.binary_vars(10), [
        Row("k", [(j, float(j + 1)) for j in range(10)], "<=", 10.0)]))
    kept = Counter()
    for inst in instances:
        for min_clq_size in (0, 2, 4):
            g = build(inst, min_clq_size=min_clq_size)
            for lit, c, l in g.store.addtl:
                assert 2 <= l <= len(g.store.first[c])
                assert lit not in g.store.first[c][l - 1:]
                assert g.store.first_stored[c]
            kept[min_clq_size] += len(g.store.addtl)
    assert min(kept.values()) > 0, kept


def test_build_determinism():
    inst = gen.tuple_store_instance()
    g1 = build(inst, 0)
    g2 = build(inst, 0)
    assert g1.store.first == g2.store.first
    assert g1.store.addtl == g2.store.addtl
    assert g1.adjlist == g2.adjlist


def test_dissolution_moves_small_cliques_to_adjlist():
    inst = gen.tuple_store_instance()
    g = build(inst, min_clq_size=3)
    # the 3-clique of r2 and both 2-/3-literal tuples dissolve
    assert g.store.first_stored == [True, False, True]
    assert all(len(g.store.first[c]) - l + 2 > 3 for _, c, l in g.store.addtl)
    assert gen.edge_set(g) == gen.edge_set(build(inst, 0))


def test_keep_dissolve_boundary():
    # A clique is kept iff it has more than min_clq_size members, so each
    # size below stores or dissolves a clique of exactly that many.  The
    # first cliques have 4, 3 and 5 members, the tuples 3, 2, 5, 5 and 3.
    inst = gen.tuple_store_instance()
    expected = {
        2: ([True, True, True], [(1, 0, 3), (2, 2, 2), (1, 2, 2), (0, 2, 4)]),
        4: ([False, False, True], [(2, 2, 2), (1, 2, 2)]),
        5: ([False, False, False], []),
    }
    for min_clq_size, (first_stored, addtl) in expected.items():
        g = build(inst, min_clq_size)
        assert g.store.first_stored == first_stored, min_clq_size
        assert g.store.addtl == addtl, min_clq_size
        assert gen.edge_set(g) == gen.edge_set(build(inst, 0))


def test_dump_format():
    inst = gen.tuple_store_instance()
    g = build(inst, min_clq_size=0)
    text = g.dump(inst)
    assert "C 0: x3 x4 x5 x6" in text
    assert "T x2 0 3" in text
    g512 = build(inst, min_clq_size=512)
    assert "A x3:" in g512.dump(inst)


def test_dump_complement_names():
    inst = gen.knapsack_example_instance()
    g = build(inst, min_clq_size=0)
    assert "!x3" in g.dump(inst)


def _pairwise_extend(g, seed, order_key):
    """Reference: the pairwise-query loop that greedy_extend replaced.

    Candidates are the smallest-degree member's neighbors in ``order_key``
    order; each joins only if ``conflicting`` holds against every literal
    accepted so far, seed included.
    """
    ext = set(seed)
    if not ext:
        return frozenset()
    d = min(ext, key=lambda v: (g.degree(v), v))
    for lit in sorted((k for k in g.neighbors(d) if k not in ext), key=order_key):
        if all(g.conflicting(lit, m) for m in ext):
            ext.add(lit)
    return frozenset(ext)


def _random_odd_cycle(rng, g, length):
    """A simple cycle of conflicting literals found by a random walk, or None."""
    path = [rng.randrange(g.n_nodes)]
    while len(path) < length:
        nxt = [v for v in g.neighbors(path[-1]) if v not in path]
        if not nxt:
            return None
        path.append(rng.choice(nxt))
    return path if g.conflicting(path[-1], path[0]) else None


def test_greedy_extend_matches_pairwise_loop():
    rng = random.Random(27)
    covered = Counter()
    for _ in range(40):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(4, 14),
                                          n_rows=rng.randint(2, 10))
        n = inst.n_vars
        # Few distinct values and costs, so order keys tie up to the node id.
        values = {j: rng.choice([0.0, 0.3, 0.5, 0.5, 0.7, 1.0]) for j in range(n)}
        costs = {j: float(rng.randint(-2, 2)) for j in range(n)}
        by_cost, by_value = FractionalPoint(values, costs), FractionalPoint(values)
        for mcs in (0, 4, 512):
            g = build(inst, mcs)
            covered["tuples"] += bool(g.store.addtl)
            covered["stored first cliques"] += any(g.store.first_stored)
            covered["pairwise entries"] += any(g.adjlist)
            seeds = [{v} for v in range(g.n_nodes)]
            seeds += [set(e) for e in sorted(gen.edge_set(g), key=sorted)]
            sub = fractional_subgraph(g, by_value)
            if sub.nodes:
                bk = find_cliques(sub, BkParams(min_weight=0.0)).cliques
                covered["bk cliques"] += len(bk)
                seeds += bk
            for length in (5, 7, 9) * 4:
                cycle = _random_odd_cycle(rng, g, length)
                if cycle is not None and not all(
                        g.conflicting(a, b) for a, b in itertools.combinations(cycle, 2)):
                    covered["non-clique cycles"] += 1
                    seeds.append(cycle)
            keys = [lambda v: (-g.degree(v), v),
                    candidate_order_key(by_cost, n),
                    candidate_order_key(by_value, n)]
            for seed in seeds:
                for key in keys:
                    assert greedy_extend(g, seed, key) == _pairwise_extend(g, seed, key)
    kinds = ("tuples", "stored first cliques", "pairwise entries", "bk cliques",
             "non-clique cycles")
    assert all(covered[k] >= 10 for k in kinds), covered
