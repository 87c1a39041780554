"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from cgcuts import (
    BkParams,
    FractionalPoint,
    KnapsackRow,
    MilpInstance,
    Row,
    build,
    detect_cliques,
    detect_cliques_compressed,
    normalize_to_knapsack,
    oddwheel_to_row,
    separate_cliques,
    separate_odd_cycles,
    strengthen,
)
from cgcuts.bk import WeightedSubgraph, find_cliques
from cgcuts.oracle import (
    enum_conflict_feasible,
    enum_feasible,
    enum_maximal_cliques,
    enum_odd_cycles,
    probe_pairs,
)
from cgcuts.sep_clique import cut_to_row, fractional_subgraph

import gen


def _report(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {num} ({desc}): {elapsed:.2f}s < {budget:.0f}s")


def test_criterion_1_clique_detection_golden():
    inst = gen.knapsack_example_instance()
    n = inst.n_vars
    [k1] = normalize_to_knapsack(inst.rows[0], inst)
    [k2] = normalize_to_knapsack(inst.rows[1], inst)
    store_inst = gen.tuple_store_instance()

    # warm-up, then time one full detection + store construction
    detect_cliques(k1), detect_cliques(k2), build(store_inst, 0)
    t0 = time.perf_counter()
    got1 = detect_cliques(k1)
    got2 = detect_cliques(k2)
    g = build(store_inst, min_clq_size=0)
    elapsed = time.perf_counter() - t0

    x = lambda j: j - 1
    nx = lambda j: j - 1 + n
    assert {frozenset(c) for c in got1} == {
        frozenset({nx(3), x(4), x(5), x(6)}),
        frozenset({x(2), x(5), x(6)}),
        frozenset({nx(1), x(6)}),
    }
    assert got2 == []
    assert g.store.first == [
        [x(3), x(4), x(5), x(6)],
        [x(2), x(6), x(8)],
        [x(4), x(6), x(8), x(9), x(10)],
    ]
    assert g.store.addtl == [
        (x(2), 0, 3), (x(1), 0, 4),
        (x(3), 2, 2), (x(2), 2, 2), (x(1), 2, 4),
    ]
    assert elapsed < 1e-3, f"detection took {elapsed * 1e3:.3f} ms"
    print(f"PASS criterion 1 (clique detection golden): {elapsed * 1e6:.0f}us < 1ms")


def test_criterion_2_oracle_edge_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 16),
                                          n_rows=rng.randint(1, 8))
        probe = probe_pairs(inst)
        for mcs in (0, 2, 512):
            assert build(inst, mcs).edge_set() == probe.edges
    _report(2, "graph edges == probing oracle, 500 instances x 3 split sizes", t0, 30.0)


def test_criterion_3_presolve_golden_and_preservation():
    t0 = time.perf_counter()
    inst = gen.strengthen_example_instance()
    report = strengthen(inst, build(inst))
    out = report.instance
    assert [r.name for r in out.rows] == ["k1", "p1_clqext"]
    assert out.rows[0] == inst.rows[0]
    assert out.rows[1].coeffs == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]
    assert out.rows[1].rhs == 1.0 and out.rows[1].sense == "<="
    assert report.extended == [(1, 2)] and report.removed_rows == [2]

    rng = random.Random(103)
    for i in range(200):
        rinst = gen.random_setpacking_instance(rng, n_vars=rng.randint(4, 16))
        g = build(rinst, min_clq_size=(0 if i % 2 else 512))
        rep = strengthen(rinst, g)
        assert enum_feasible(rep.instance) == enum_feasible(rinst)
        assert len(rep.instance.rows) <= len(rinst.rows)
    _report(3, "strengthening golden + solution-set preservation x 200", t0, 30.0)


def test_criterion_4_bk_exactness():
    t0 = time.perf_counter()
    rng = random.Random(104)
    for _ in range(300):
        n = rng.randint(2, 18)
        adj, weights = gen.random_weighted_graph(rng, n, rng.uniform(0.1, 0.9))
        minw = rng.uniform(0.0, 2.5)
        expect = enum_maximal_cliques(adj, weights, minw)
        edges = {frozenset((u, v)) for u in adj for v in adj[u]}
        sub = WeightedSubgraph.from_edges(weights, edges)
        res = find_cliques(sub, BkParams(min_weight=minw, max_calls=10**9))
        assert res.exact
        assert set(res.cliques) == expect
    _report(4, "BK == subset enumeration, 300 graphs", t0, 60.0)


def test_criterion_5_clique_cut_validity_and_completeness():
    t0 = time.perf_counter()
    rng = random.Random(105)
    min_viol = 0.02
    violated_fixtures = 0
    for _ in range(300):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 7))
        g = build(inst, min_clq_size=rng.choice([0, 512]))
        point = gen.random_point(rng, inst)
        n = inst.n_vars
        cuts = separate_cliques(g, point, min_viol, BkParams(max_calls=10**9))

        sub = fractional_subgraph(g, point)
        adj = {v: set() for v in sub.nodes}
        for i, v in enumerate(sub.nodes):
            for k, u in enumerate(sub.nodes):
                if sub.adj[i] >> k & 1:
                    adj[v].add(u)
        oracle = enum_maximal_cliques(adj, dict(zip(sub.nodes, sub.weights)),
                                      1.0 + min_viol)
        if oracle:
            assert cuts, "oracle found a violated clique but separation returned none"
            violated_fixtures += 1

        feasible = enum_conflict_feasible(probe_pairs(inst).edges, n)
        for cut in cuts:
            lhs = sum(point.lit_value(v, n) for v in cut.members)
            assert abs((lhs - 1.0) - cut.violation) < 1e-9
            row = cut_to_row(cut, n)
            for p in feasible:
                assert sum(a * p[j] for j, a in row.coeffs) <= row.rhs + 1e-9
    assert violated_fixtures >= 50
    _report(5, f"clique cuts valid + complete, 300 fixtures ({violated_fixtures} violated)",
            t0, 60.0)


def test_criterion_6_odd_cycle_golden_and_properties():
    t0 = time.perf_counter()

    # 5-cycle at one-half: single cut, violation one-half
    g5 = build(gen.five_cycle_instance())
    p5 = FractionalPoint({j: 0.5 for j in range(5)})
    cuts = separate_odd_cycles(g5, p5)
    assert len(cuts) == 1
    assert len(cuts[0].cycle) == 5 and cuts[0].center == frozenset()
    assert abs(cuts[0].violation - 0.5) < 1e-12

    # wheel fixture: exact lifted inequality
    winst = gen.odd_wheel_instance()
    gw = build(winst)
    pw = FractionalPoint({j: 0.5 for j in range(5)} | {5: 0.0, 6: 0.0, 7: 0.0})
    wcuts = separate_odd_cycles(gw, pw)
    assert len(wcuts) == 1
    row = oddwheel_to_row(wcuts[0], winst.n_vars)
    assert row.coeffs == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0),
                          (5, 2.0), (6, 2.0), (7, 2.0)]
    assert row.rhs == 2.0

    rng = random.Random(106)
    from test_sep_oddcycle import _random_cycle_fixture

    violated_fixtures = 0
    for _ in range(200):
        inst, point = _random_cycle_fixture(rng)
        g = build(inst)
        n = inst.n_vars
        cuts = separate_odd_cycles(g, point)
        adj = gen.graph_adjacency(g)
        values = {v: point.lit_value(v, n) for v in range(g.n_nodes)}
        oracle = enum_odd_cycles(adj, values, tol=1e-7)
        if oracle:
            assert cuts, "oracle found a violated odd cycle but separation returned none"
            violated_fixtures += 1
        feasible = enum_conflict_feasible(probe_pairs(inst).edges, n)
        for cut in cuts:
            assert len(cut.cycle) % 2 == 1 and len(cut.cycle) >= 5
            for i, a in enumerate(cut.cycle):
                assert g.conflicting(a, cut.cycle[(i + 1) % len(cut.cycle)])
            assert cut.violation > 0.0
            wrow = oddwheel_to_row(cut, n)
            for p in feasible:
                assert sum(a * p[j] for j, a in wrow.coeffs) <= wrow.rhs + 1e-9
    assert violated_fixtures >= 30
    _report(6, f"odd-cycle goldens + properties, 200 fixtures ({violated_fixtures} violated)",
            t0, 60.0)


def test_criterion_7_extra_cliques_beat_single_swap():
    t0 = time.perf_counter()
    rng = random.Random(107)
    confirmed = 0
    attempts = 0
    while confirmed < 50:
        attempts += 1
        assert attempts < 5000, "generator failed to produce enough rows"
        # bin-packing style: varied coefficients, the largest near the rhs
        b = 100.0
        n_small = rng.randint(3, 8)
        n_large = rng.randint(2, 4)
        coeffs = [float(rng.randint(5, 40)) for _ in range(n_small)]
        coeffs += [float(rng.randint(55, 95)) for _ in range(n_large)]
        rng.shuffle(coeffs)
        inst = MilpInstance(
            gen.binary_vars(len(coeffs)),
            [Row("r", list(enumerate(coeffs)), "<=", b)],
        )
        krow = KnapsackRow(list(enumerate(coeffs)), b)
        oracle_edges = probe_pairs(inst).per_constraint[0]
        baseline_edges = gen.cliques_edge_set(gen.single_swap_cliques(krow))
        if not baseline_edges < oracle_edges:
            continue  # oracle must confirm extra edges exist
        confirmed += 1
        improved_edges = gen.cliques_edge_set(detect_cliques(krow))
        assert len(improved_edges) > len(baseline_edges)
        assert improved_edges == oracle_edges
    _report(7, f"improved detection beats single-swap on {confirmed} rows", t0, 10.0)


class _CountingCoeff(float):
    """A coefficient that counts additions: detection compares each sum of
    two row coefficients against the rhs, so this counts comparisons."""

    adds = 0

    def __add__(self, other):
        _CountingCoeff.adds += 1
        return float.__add__(self, other)


def test_criterion_8_detection_scales_quasilinearly():
    t0 = time.perf_counter()
    counts = []
    sizes = [2 ** e for e in range(8, 17)]
    for n in sizes:
        # every prefix literal still conflicts with the tail: the
        # additional-clique loop runs ~n/2 times, all via binary search
        row = KnapsackRow([(i, _CountingCoeff(i + 1)) for i in range(n)], float(n))
        _CountingCoeff.adds = 0
        rc = detect_cliques_compressed(row)
        assert rc.initial and rc.addtl
        counts.append(_CountingCoeff.adds)
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    # n log n doubles to ~2.2x; a quadratic step would sit at 4x
    assert all(r < 3.0 for r in ratios), ratios
    _report(8, f"comparison growth ratios {['%.2f' % r for r in ratios]}", t0, 60.0)
