import itertools
import random
import tracemalloc
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
from cgcuts.cgraph import detect_cliques_compressed, greedy_extend
from cgcuts.model import EPS, KnapsackRow, Variable, complement_node, unit_knapsacks
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
        return [], []
    k = ks[0]
    addtl = []
    for o in range(k - 1, -1, -1):
        fs = [j for j in range(o + 1, len(a)) if a[o] + a[j] > b + EPS]
        if not fs:
            break
        addtl.append((lits[o], fs[0] - k + 1))
    return lits[k:], addtl


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
        initial, addtl = ref = _reference_detect(row)
        assert detect_cliques_compressed(row) == ref
        covered["cliques"] += bool(initial)
        covered["tuples"] += bool(addtl)
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


def _count_block_shapes(g, covered):
    """Counts the store layouts that take distinct paths through ``degree``
    and ``_conflicting_in``: literals with 0, 1 and 2 or more stored blocks,
    a literal whose one block is a tuple suffix, and a stored tuple whose
    outside literal also sits in a stored clique."""
    blocks = g.store.blocks
    for held in blocks:
        covered["blocks", min(len(held), 2)] += 1
        covered["tuple suffix only"] += len(held) == 1 and held[0][1] > 0
    covered["tuple literal in a clique"] += sum(
        any(s == 0 for _, s in blocks[lit]) for lit, _, _ in g.store.addtl)


def _assert_block_shapes_covered(covered):
    shapes = [("blocks", 0), ("blocks", 1), ("blocks", 2), "tuple suffix only",
              "tuple literal in a clique"]
    assert all(covered[shape] > 0 for shape in shapes), covered


def _assert_sorted_list_invariant(g, a):
    """What ``neighbors`` and ``degree`` rely on: ``adjlist[a]`` is a
    sorted tuple that holds a's complement and not a, ``neighbors`` equals
    the sorted conflict set, and a literal in no stored block gets its
    adjacency tuple itself."""
    adj = g.adjlist[a]
    assert type(adj) is tuple and adj == tuple(sorted(adj))
    assert a not in adj and complement_node(a, g.n_vars) in adj
    assert g.neighbors(a) == tuple(b for b in range(g.n_nodes) if g.conflicting(a, b))
    if not g.store.blocks[a]:
        assert g.neighbors(a) is adj


def test_neighbors_symmetry_and_oracle_equivalence():
    rng = random.Random(23)
    cases = [(gen.random_binary_instance(rng, n_vars=rng.randint(2, 12)),
              rng.choice([0, 2, 512])) for _ in range(50)]
    crossed = random.Random(28)
    for inst in [gen.tuple_store_instance(), gen.knapsack_example_instance(),
                 *(gen.crossed_clique_instance(crossed)[0] for _ in range(8))]:
        cases += [(inst, mcs) for mcs in (0, 1, 2, 4, 512)]
    kept = Counter()
    covered = Counter()
    for inst, mcs in cases:
        g = build(inst, min_clq_size=mcs)
        kept[mcs] += len(g.store.addtl)
        _count_block_shapes(g, covered)
        probe = probe_pairs(inst)
        calls = gen.count_neighbors_calls(g)
        assert gen.edge_set(g) == probe.edges
        degrees = [g.degree(a) for a in range(g.n_nodes)]
        assert calls == [0]  # edge_set and degree build no neighbor tuple
        for a in range(g.n_nodes):
            _assert_sorted_list_invariant(g, a)
            assert degrees[a] == len(g.neighbors(a))
            for b in g.neighbors(a):
                assert a in g.neighbors(b)
                assert g.conflicting(a, b) and g.conflicting(b, a)
            for b in range(g.n_nodes):
                expect = (b == complement_node(a, g.n_vars)
                          or frozenset((a, b)) in probe.edges)
                assert g.conflicting(a, b) == expect
    assert all(kept[mcs] > 0 for mcs in (0, 1, 2, 4)), kept
    _assert_block_shapes_covered(covered)


def test_degree_counts_literals_in_overlapping_stored_blocks():
    """``degree`` is the size of the conflict set when literals sit in
    several stored blocks: a knapsack row's first clique and tuple
    suffixes, overlapping set-packing and cover rows, and a repeated row,
    all stored.  Its memo holds one size per distinct block list."""
    rng = random.Random(41)
    shapes = Counter()
    for _ in range(30):
        inst, _, _ = gen.crossed_clique_instance(rng)
        rows = list(inst.rows)
        for i in range(rng.randint(2, 6)):
            support = rng.sample(range(inst.n_vars), rng.randint(3, 12))
            sense, rhs = rng.choice((("<=", 1.0), (">=", len(support) - 1.0)))
            rows.append(Row(f"o{i}", [(j, 1.0) for j in support], sense, rhs))
        rows.append(Row("again", rows[-1].coeffs, rows[-1].sense, rows[-1].rhs))
        inst = MilpInstance(inst.variables, rows)
        for mcs in (1, 2, 4):
            g = build(inst, min_clq_size=mcs)
            for a, held in enumerate(g.store.blocks):
                assert g.degree(a) == len(g.neighbors(a)), (a, mcs)
                shapes["blocks", min(len(held), 3)] += 1
                shapes["suffix among several"] += len(held) > 1 and any(s for _, s in held)
            assert len(g._sizes) == len({tuple(held) for held in g.store.blocks if held})
    assert all(shapes["blocks", k] > 0 for k in range(4)), shapes
    assert shapes["suffix among several"] > 0, shapes


def test_storage_transparency():
    """Query answers are independent of where the split parameter lands."""
    rng = random.Random(24)
    pick = random.Random(124)  # subsets drawn apart, so the instances stay put
    covered = Counter()
    for _ in range(30):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 10))
        graphs = [build(inst, m) for m in (0, 1, 2, 3, 512)]
        for g in graphs:
            _count_block_shapes(g, covered)
            for a in range(g.n_nodes):
                _assert_sorted_list_invariant(g, a)
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
    _assert_block_shapes_covered(covered)


def test_tuple_expansion_edges_are_row_edges():
    rng = random.Random(25)
    for _ in range(50):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 12), n_rows=1)
        for k in gen.all_knapsack_rows(inst):
            initial, addtl = detect_cliques_compressed(k)
            direct = gen.knapsack_row_pairwise_edges(k)
            for lit, l in addtl:
                assert 1 <= l <= len(initial)
                members = [lit, *initial[l - 1:]]
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


def _reference_build(inst, min_clq_size):
    """``build`` with the set-based pairwise expansion: one set per literal
    takes every pair of each dissolved first clique, the outside literal
    x suffix of each dissolved tuple, and each stored tuple's outside
    literal under its suffix members, and each literal's complement.
    Each literal's stored blocks are read off the finished store.  Returns
    the graph's fields."""
    n_nodes = 2 * inst.n_vars
    first, first_stored, addtl = [], [], []
    pair_sets = [set() for _ in range(n_nodes)]
    detected = 0
    for krow in gen.all_knapsack_rows(inst):
        initial, row_addtl = detect_cliques_compressed(krow)
        if not initial:
            continue
        detected += 1 + len(row_addtl)
        c = len(first)
        stored = len(initial) > min_clq_size
        first.append(initial)
        first_stored.append(stored)
        if not stored:
            for v in initial:
                pair_sets[v].update(initial)
        for lit, l in row_addtl:
            suffix = initial[l - 1:]
            if len(suffix) + 1 > min_clq_size:
                addtl.append((lit, c, l))
            else:
                pair_sets[lit].update(suffix)
            for v in suffix:
                pair_sets[v].add(lit)
    n = inst.n_vars
    adjlist = [tuple(sorted(s - {v} | {(v + n) % n_nodes})) for v, s in enumerate(pair_sets)]
    # A literal's blocks in row order: its stored cliques (c, 0) and the
    # suffix (c, l - 1) of each stored tuple it is the outside literal of.
    blocks = [sorted([(c, 0) for c, f in enumerate(first) if first_stored[c] and v in f]
                     + [(c, l - 1) for lit, c, l in addtl if lit == v])
              for v in range(n_nodes)]
    return adjlist, first, first_stored, addtl, blocks, detected


def test_build_matches_set_based_pairwise_expansion():
    rng = random.Random(29)
    models = [gen.random_binary_instance(rng, n_vars=rng.randint(2, 14)) for _ in range(40)]
    models += [gen.crossed_clique_instance(rng)[0] for _ in range(6)]
    models.append(gen.tuple_store_instance())
    senses = Counter(row.sense for inst in models for row in inst.rows)
    assert senses["<="] and senses[">="] and senses["="], senses
    assert any(a < 0 for inst in models for row in inst.rows for _, a in row.coeffs)
    dissolved = Counter()
    for inst in models:
        for mcs in (0, 2, 3, 4, 512):
            g = build(inst, mcs)
            st = g.store
            got = (g.adjlist, st.first, st.first_stored, st.addtl, st.blocks,
                   g.cliques_detected)
            assert got == _reference_build(inst, mcs), mcs
            dissolved["first", mcs] += st.first_stored.count(False)
            dissolved["tuples", mcs] += g.cliques_detected - len(st.first) - len(st.addtl)
    # Every size above 0 dissolves some first cliques and some tuples.
    assert all(dissolved[kind, mcs] > 0 for kind in ("first", "tuples")
               for mcs in (2, 3, 4, 512)), dissolved


def _unit_rows(rng, count):
    """Rows of one to four terms over four binaries and one continuous
    column, in any column order: coefficients of +-1, or one of them
    1 +- 1e-9; every sense; rhs from -1, 0, 0.3, 1, 1.5, 2 - EPS, 2 - EPS / 2,
    2.  At 2 - EPS the pair sum 2.0 equals rhs + EPS exactly, so no pair
    overloads it."""
    rhs_values = (-1.0, 0.0, 0.3, 1.0, 1.5, 2.0 - EPS, 2.0 - EPS / 2, 2.0)
    rows = []
    for i in range(count):
        columns = rng.sample(range(5), rng.randint(1, 4))
        coeffs = [(j, rng.choice((-1.0, 1.0))) for j in columns]
        if rng.random() < 0.15:
            t = rng.randrange(len(coeffs))
            coeffs[t] = (coeffs[t][0], coeffs[t][1] * rng.choice((1 + 1e-9, 1 - 1e-9)))
        rows.append(Row(f"r{i}", coeffs, rng.choice(("<=", ">=", "=")), rng.choice(rhs_values)))
    variables = gen.binary_vars(4) + [Variable("c", 0.0, 10.0, False)]
    return MilpInstance(variables, rows)


def test_unit_knapsacks_give_the_cliques_detection_finds():
    inst = _unit_rows(random.Random(31), 3000)
    n = inst.n_vars
    seen = Counter()
    for row in inst.rows:
        units = unit_knapsacks(row, inst)
        krows = normalize_to_knapsack(row, inst)
        if units is None:
            # Only a row touching the continuous column or holding a
            # coefficient that is not exactly 1 in magnitude is refused.
            assert any(j == 4 or abs(a) != 1.0 for j, a in row.coeffs), row
            seen["refused, continuous" if any(j == 4 for j, _ in row.coeffs)
                 else "refused, 1 +- 1e-9"] += 1
            continue
        assert units == [(sorted(lit for lit, _ in k.literals), k.rhs) for k in krows], row
        # All coefficients are 1: detection puts a direction's literals in
        # one clique, with no tuples, when two of them overload its rhs.
        cliques = [(lits if len(lits) > 1 and 2.0 > b + EPS else [], [])
                   for lits, b in units]
        assert cliques == [detect_cliques_compressed(k) for k in krows], row
        seen[row.sense] += 1
        seen["complemented"] += any(lit >= n for lits, _ in units for lit in lits)
        seen["one term"] += len(row.coeffs) == 1
        seen["clique"] += any(initial for initial, _ in cliques)
        seen["no clique, two or more terms"] += (len(row.coeffs) > 1
                                                 and not any(initial for initial, _ in cliques))
        seen["out of column order"] += row.coeffs != sorted(row.coeffs)
    for rhs in (-1.0, 0.0, 0.3, 1.0, 1.5, 2.0 - EPS, 2.0 - EPS / 2, 2.0):
        seen[f"rhs {rhs}"] = sum(r.rhs == rhs and unit_knapsacks(r, inst) is not None
                                 for r in inst.rows)
    assert min(seen.values()) >= 20, seen


def test_build_reads_unit_rows_as_the_knapsack_path_does():
    """``build`` takes +-1 rows as cliques without detection; its graph is
    the reference's, which sends every row through detection, at sizes
    that store and that dissolve the long rows."""
    rng = random.Random(37)
    models = [_unit_rows(rng, rng.randint(1, 12)) for _ in range(60)]
    models += [gen.random_setpacking_instance(rng) for _ in range(40)]
    # A 40-literal +-1 row of each sense, 14 of its terms negative, whose
    # knapsack form has rhs 1 in one direction, over pair rows.
    for sense, rhs in (("<=", -13.0), (">=", 25.0), ("=", -13.0)):
        long_row = Row("long", [(j, 1.0 if j % 3 else -1.0) for j in range(40)], sense, rhs)
        models.append(MilpInstance(gen.binary_vars(40), [long_row] + gen.pair_rows(
            [(j, j + 1) for j in range(0, 40, 2)])))
    stored = 0
    for inst in models:
        for mcs in (0, 2, 3, 16, 512):
            g = build(inst, mcs)
            st = g.store
            got = (g.adjlist, st.first, st.first_stored, st.addtl, st.blocks,
                   g.cliques_detected)
            assert got == _reference_build(inst, mcs), (inst.rows, mcs)
            stored += st.first_stored.count(True)
    assert stored >= 3 * 4, stored  # each long row is stored at 0, 2, 3 and 16


def test_build_of_a_dissolved_row_peaks_near_its_graph_size():
    # A 512-literal set-packing row is dissolved at the default size.  The
    # expansion holds one literal's conflicts at a time beside the graph it
    # returns, so build's traced peak stays close to the graph's size.
    k = 512
    inst = MilpInstance(gen.binary_vars(k), [Row("pack", [(j, 1.0) for j in range(k)], "<=", 1.0)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build(inst)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.store.first_stored == [False]
    assert peak - base <= 1.5 * (size - base), (peak - base, size - base)


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
            covered["pairwise entries"] += g.adj_entries > 0
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


def test_greedy_extend_matches_pairwise_loop_across_a_stored_clique():
    """Seeds inside a stored first clique, extended past tuple literals and
    pair rows that cross it; under the cost key the tuple literals come
    first, so an outsider joins before the clique's members do."""
    rng = random.Random(29)
    covered = Counter()
    for _ in range(12):
        inst, clique, tuples = gen.crossed_clique_instance(rng)
        n = inst.n_vars
        values = {j: rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]) for j in range(n)}
        costs = {j: float(rng.randint(0, 3)) for j in range(n)}
        costs.update({j: -5.0 for j in tuples})
        by_cost, by_value = FractionalPoint(values, costs), FractionalPoint(values)
        tuple_lits = set(tuples) | {j + n for j in tuples}
        for mcs in (0, 4, 16):
            g = build(inst, mcs)
            covered["stored tuples"] += bool(g.store.addtl)
            [first, *_] = g.store.first
            seeds = [[v] for v in first[::5]]
            seeds += [rng.sample(first, rng.randint(2, 5)) for _ in range(6)]
            seeds += [[lit, *first[l - 1:][:2]] for lit, _, l in g.store.addtl]
            keys = [lambda v: (-g.degree(v), v),
                    candidate_order_key(by_cost, n),
                    candidate_order_key(by_value, n)]
            for seed in seeds:
                for key in keys:
                    ext = greedy_extend(g, seed, key)
                    assert ext == _pairwise_extend(g, seed, key), (mcs, seed)
                    if ext & tuple_lits and len(ext - tuple_lits) > len(seed):
                        covered["outsider and clique members joined"] += 1
    assert covered["stored tuples"] >= 12, covered
    assert covered["outsider and clique members joined"] >= 20, covered
