import gc
import logging
import math
import random
import tracemalloc
from collections import Counter

import pytest

from cgcuts import (
    BkParams,
    FractionalPoint,
    MilpInstance,
    Row,
    build,
    cut_to_row,
    separate_cliques,
)
from cgcuts import sep_clique
from cgcuts.bk import BkResult, find_cliques
from cgcuts.oracle import probe_pairs
from cgcuts.sep_clique import CliqueCut, extend_cut, fractional_subgraph

import gen
from brute import enum_conflict_feasible, enum_maximal_cliques


def test_triangle_golden():
    g = build(gen.triangle_instance())
    point = FractionalPoint({0: 0.5, 1: 0.5, 2: 0.5})
    cuts = separate_cliques(g, point, min_viol=0.02)
    assert len(cuts) == 1
    assert cuts[0].members == frozenset({0, 1, 2})
    assert cuts[0].violation == 0.5
    assert cuts[0].lifted_members == frozenset()


def test_violation_is_correctly_rounded():
    # Eleven 0.1s summed left to right give 1.0999999999999999, so a
    # violation of 0.09999999999999987; correctly rounded it is
    # 1.1 - 1.0 on every Python.
    inst = MilpInstance(gen.binary_vars(11), [Row("pack", [(j, 1.0) for j in range(11)], "<=", 1.0)])
    cuts = separate_cliques(build(inst), FractionalPoint({j: 0.1 for j in range(11)}))
    assert [(c.members, repr(c.violation)) for c in cuts] == [
        (frozenset(range(11)), "0.10000000000000009")]


def test_budget_truncation_logs_one_warning(caplog):
    inst = MilpInstance(gen.binary_vars(6), [
        Row("t1", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0),
        Row("t2", [(3, 1.0), (4, 1.0), (5, 1.0)], "<=", 1.0)])
    g = build(inst)
    point = FractionalPoint({j: 0.5 for j in range(6)})
    with caplog.at_level(logging.WARNING, logger="cgcuts.sep_clique"):
        cuts = separate_cliques(g, point, bk_params=BkParams(max_calls=4))
    assert [c.members for c in cuts] == [frozenset({0, 1, 2})]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("cgcuts.sep_clique", logging.WARNING,
         "Bron-Kerbosch stopped at its budget: 5 calls counted, "
         "max_calls 4; violated cliques may be missing")]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cgcuts"):
        assert len(separate_cliques(g, point)) == 2
    assert caplog.records == []


def test_integral_point_no_cuts():
    g = build(gen.triangle_instance())
    point = FractionalPoint({0: 1.0, 1: 0.0, 2: 0.0})
    assert separate_cliques(g, point) == []


def test_negative_or_nan_min_viol_raises():
    # Every edge of the 5-cycle holds at 0.3; a negative threshold once
    # returned those satisfied rows as cuts.
    g = build(gen.five_cycle_instance())
    point = FractionalPoint({j: 0.3 for j in range(5)})
    for min_viol in (-0.5, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="min_viol must be finite and >= 0"):
            separate_cliques(g, point, min_viol)
    assert separate_cliques(g, point, 0.0) == []


def test_repeated_separation_on_a_stored_row_holds_no_neighbor_lists():
    # Every member of the stored 1,000-literal row is fractional, so the
    # subgraph reads each member's neighbors: about k^2 entries in all.
    # None of them may stay behind on the graph once the cuts are dropped.
    k = 1000
    inst = MilpInstance(gen.binary_vars(k), [Row("pack", [(j, 1.0) for j in range(k)], "<=", 1.0)])
    g = build(inst, min_clq_size=16)
    assert g.store.first_stored == [True]
    point = FractionalPoint({j: 0.5 for j in range(k)})
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            cuts = separate_cliques(g, point)
            assert [cut.members for cut in cuts] == [frozenset(range(k))]
        del cuts
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


def test_fractional_subgraph_includes_complements():
    g = build(gen.triangle_instance())
    point = FractionalPoint({0: 0.3, 1: 0.5, 2: 1.0})
    sub = fractional_subgraph(g, point)
    assert sub.nodes == [3, 1, 4, 0]  # by value descending, then id
    weights = dict(zip(sub.nodes, sub.weights))
    assert weights[3] == 0.7 and weights[4] == 0.5


def test_extend_cut_k3_to_k4():
    # fractional triangle plus one integral vertex conflicting with all three
    rows = [Row("t", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0)]
    rows += gen.pair_rows([(3, 0), (3, 1), (3, 2)], offset=1)
    inst = MilpInstance(gen.binary_vars(4), rows)
    g = build(inst)
    point = FractionalPoint({0: 0.4, 1: 0.4, 2: 0.4, 3: 0.0})
    cuts = separate_cliques(g, point, min_viol=0.1)
    assert len(cuts) == 1
    assert cuts[0].members == frozenset({0, 1, 2, 3})
    assert cuts[0].lifted_members == frozenset({3})
    assert abs(cuts[0].violation - 0.2) < 1e-12


def test_extend_cut_maximal_unchanged():
    g = build(gen.triangle_instance())
    point = FractionalPoint({0: 0.5, 1: 0.5, 2: 0.5})
    assert extend_cut(g, {0, 1, 2}, point) == frozenset({0, 1, 2})


def test_extend_cut_reduced_cost_order():
    # both 1 and 2 extend {0} but conflict is missing between them,
    # so whichever is consumed first wins
    inst = MilpInstance(gen.binary_vars(3), gen.pair_rows([(0, 1), (0, 2)]))
    g = build(inst)
    # rc(x1) = -10 keeps the complement literal (rc +10) at the back
    values = {0: 0.5, 1: 0.0, 2: 0.0}
    cheap_first = FractionalPoint(values, {0: -10.0, 1: 5.0, 2: 1.0})
    assert extend_cut(g, {0}, cheap_first) == frozenset({0, 2})
    other = FractionalPoint(values, {0: -10.0, 1: -2.0, 2: 1.0})
    assert extend_cut(g, {0}, other) == frozenset({0, 1})


def test_extend_cut_value_fallback_order():
    inst = MilpInstance(gen.binary_vars(3), gen.pair_rows([(0, 1), (0, 2)]))
    g = build(inst)
    point = FractionalPoint({0: 0.5, 1: 0.2, 2: 0.9})
    assert extend_cut(g, {0}, point) == frozenset({0, 2})


def test_cut_to_row_goldens():
    n = 4
    row = cut_to_row(CliqueCut(frozenset({0, 1}), 0.0, frozenset()), n)
    assert row.coeffs == [(0, 1.0), (1, 1.0)] and row.rhs == 1.0

    # {x2, !x3} -> x2 - x3 <= 0
    row = cut_to_row(CliqueCut(frozenset({1, 2 + n}), 0.0, frozenset()), n)
    assert row.coeffs == [(1, 1.0), (2, -1.0)] and row.rhs == 0.0

    # {!x2, !x3} -> -x2 - x3 <= -1
    row = cut_to_row(CliqueCut(frozenset({1 + n, 2 + n}), 0.0, frozenset()), n)
    assert row.coeffs == [(1, -1.0), (2, -1.0)] and row.rhs == -1.0


def test_random_separation_matches_oracle_and_is_valid():
    rng = random.Random(51)
    min_viol = 0.02
    for _ in range(120):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 7))
        g = build(inst, min_clq_size=rng.choice([0, 512]))
        point = gen.random_point(rng, inst)
        cuts = separate_cliques(g, point, min_viol, BkParams(max_calls=10**9))
        n = inst.n_vars

        # oracle over the same fractional-support subgraph
        sub = fractional_subgraph(g, point)
        adj = {v: set() for v in sub.nodes}
        for i, v in enumerate(sub.nodes):
            for k, u in enumerate(sub.nodes):
                if sub.adj[i] >> k & 1:
                    adj[v].add(u)
        weights = dict(zip(sub.nodes, sub.weights))
        expect = enum_maximal_cliques(adj, weights, 1.0 + min_viol)

        # completeness: a violated clique exists iff cuts come back
        assert bool(expect) == bool(cuts)

        feasible = enum_conflict_feasible(probe_pairs(inst).edges, n)
        for cut in cuts:
            row = cut_to_row(cut, n)
            # violation is the exact excess at the point
            lhs = sum(point.lit_value(v, n) for v in cut.members)
            assert abs((lhs - 1.0) - cut.violation) < 1e-9
            # validity on every conflict-feasible 0/1 point
            for p in feasible:
                value = sum(a * p[j] for j, a in row.coeffs)
                assert value <= row.rhs + 1e-9
            # extension never lowers the violation
            pre = cut.members - cut.lifted_members
            assert cut.violation >= sum(point.lit_value(v, n) for v in pre) - 1.0 - 1e-9


def test_pre_extension_cliques_match_oracle():
    rng = random.Random(52)
    for _ in range(60):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 7))
        g = build(inst)
        point = gen.random_point(rng, inst)
        min_viol = 0.05
        sub = fractional_subgraph(g, point)
        adj = {v: set() for v in sub.nodes}
        for i, v in enumerate(sub.nodes):
            for k, u in enumerate(sub.nodes):
                if sub.adj[i] >> k & 1:
                    adj[v].add(u)
        weights = dict(zip(sub.nodes, sub.weights))
        expect = enum_maximal_cliques(adj, weights, 1.0 + min_viol)

        res = find_cliques(sub, BkParams(min_weight=1.0 + min_viol, max_calls=10**9))
        assert res.exact
        assert set(res.cliques) == expect


def test_cuts_sorted_by_violation():
    rng = random.Random(53)
    for _ in range(30):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(4, 8))
        g = build(inst)
        point = gen.random_point(rng, inst)
        cuts = separate_cliques(g, point, 0.02, BkParams(max_calls=10**9))
        viols = [c.violation for c in cuts]
        assert viols == sorted(viols, reverse=True)
        assert len({tuple(sorted(c.members)) for c in cuts}) == len(cuts)


def _reference_fractional_subgraph(g, point):
    """The subgraph as built from a list of edge tuples, with no filter."""
    n = g.n_vars
    weights = {}
    for j in range(n):
        v = point.lit_value(j, n)
        if 1e-6 < v < 1.0 - 1e-6:
            weights[j] = v
            weights[j + n] = 1.0 - v
    edges = [(a, b) for a in weights for b in g.neighbors(a) if b > a and b in weights]
    return gen.weighted_subgraph(weights, edges)


def _complement_pair(members, n_vars):
    """True for exactly one literal and its complement."""
    return len(members) == 2 and max(members) - min(members) == n_vars


def _reference_separate_cliques(g, point, min_viol, bk_params):
    """The separator before subgraph filtering and candidate lists: every
    clique extends over its whole common neighborhood, and the first of
    two cliques with the same extension wins.  A cut of a literal and its
    complement alone (``0 <= 0``) is dropped."""
    sub = _reference_fractional_subgraph(g, point)
    if not sub.nodes:
        return []
    params = BkParams(1.0 + min_viol, bk_params.max_calls)
    n = g.n_vars
    cuts = {}
    for clique in find_cliques(sub, params).cliques:
        ext = extend_cut(g, clique, point)
        key = tuple(sorted(ext))
        if _complement_pair(ext, n):
            continue
        if key not in cuts:
            violation = math.fsum(point.lit_value(v, n) for v in ext) - 1.0
            cuts[key] = CliqueCut(ext, violation, ext - clique)
    return sorted(cuts.values(), key=lambda c: (-c.violation, tuple(sorted(c.members))))


def _exactness_cases(seed, count):
    """Seeded (graph, point, min_viol) cases: values from {0, 1, 0.5,
    uniform}, reduced costs on and off, three clique-store thresholds and
    three violation thresholds."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4:
            inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(4, 12))
        elif kind < 0.8:
            inst = gen.random_binary_instance(rng, n_vars=rng.randint(6, 16),
                                              n_rows=rng.randint(2, 8))
        else:
            # A sparse edge formulation: node ids large enough that a
            # set's iteration order is not its sorted order.
            n = rng.randint(30, 60)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.15]
            inst = MilpInstance(gen.binary_vars(n), gen.pair_rows(pairs))
        n = inst.n_vars
        values = {j: rng.choice([0.0, 1.0, 0.5, rng.random()]) for j in range(n)}
        costs = {j: float(rng.randint(-3, 3)) for j in range(n)}
        points = (FractionalPoint(values), FractionalPoint(values, costs))
        for mcs in (0, 4, 512):
            g = build(inst, min_clq_size=mcs)
            for point in points:
                for min_viol in (0.0, 0.02, 0.3):
                    yield g, point, min_viol


def test_separation_matches_reference_pipeline():
    covered = Counter()
    params = BkParams(max_calls=10**9)
    for g, point, min_viol in _exactness_cases(61, 80):
        got = separate_cliques(g, point, min_viol, params)
        ref = _reference_separate_cliques(g, point, min_viol, params)
        assert ([(c.members, repr(c.violation), c.lifted_members) for c in got]
                == [(c.members, repr(c.violation), c.lifted_members) for c in ref])
        covered["cuts"] += len(got)
        covered["lifted"] += sum(len(c.lifted_members) for c in got)
        covered["filtered"] += (len(_reference_fractional_subgraph(g, point))
                                - len(fractional_subgraph(g, point, 1.0 + min_viol)))
        covered["tuples"] += bool(g.store.addtl)
        covered["reduced costs"] += point.reduced_costs is not None and bool(got)
    assert all(covered[k] >= 20 for k in
               ("cuts", "lifted", "filtered", "tuples", "reduced costs")), covered


def test_cuts_do_not_depend_on_clique_insertion_order(monkeypatch):
    # Every used variable is 8 apart and n_vars is a multiple of 8, so all
    # literals share their slot in a small set's table and a set iterates
    # in its insertion order.  Rebuilding each clique in reverse must not
    # change a member, a violation's last bit, a lifted member or the order.
    def reversed_insertion(sub, params):
        res = find_cliques(sub, params)
        rebuilt = [frozenset(reversed(list(c))) for c in res.cliques]
        reordered.append(sum(list(a) != list(b) for a, b in zip(rebuilt, res.cliques)))
        return BkResult(rebuilt, res.exact, res.calls)

    def cut_list(cuts):
        return [(c.members, repr(c.violation), c.lifted_members) for c in cuts]

    rng = random.Random(65)
    reordered = []
    params = BkParams(max_calls=10**9)
    for _ in range(60):
        k = rng.randint(6, 14)
        rows = []
        for i in range(rng.randint(2, 6)):
            support = rng.sample(range(0, 8 * k, 8), rng.randint(3, min(6, k)))
            rows.append(Row(f"p{i}", [(j, 1.0) for j in sorted(support)], "<=", 1.0))
        g = build(MilpInstance(gen.binary_vars(8 * k), rows))
        point = FractionalPoint({j: rng.choice([0.1, 0.2, 0.3, rng.random()])
                                 for j in range(0, 8 * k, 8)})
        for min_viol in (0.0, 0.02):
            expect = cut_list(separate_cliques(g, point, min_viol, params))
            with monkeypatch.context() as m:
                m.setattr(sep_clique, "find_cliques", reversed_insertion)
                assert cut_list(separate_cliques(g, point, min_viol, params)) == expect
    assert sum(reordered) > 500, sum(reordered)


def test_filtered_subgraph_keeps_every_violated_clique():
    filtered = 0
    for g, point, min_viol in _exactness_cases(62, 40):
        min_weight = 1.0 + min_viol
        params = BkParams(min_weight=min_weight, max_calls=10**9)
        full = fractional_subgraph(g, point)
        ref = _reference_fractional_subgraph(g, point)
        assert (full.nodes, full.weights, full.adj) == (ref.nodes, ref.weights, ref.adj)
        sub = fractional_subgraph(g, point, min_weight)
        filtered += len(full) - len(sub)
        assert set(find_cliques(sub, params).cliques) == set(find_cliques(full, params).cliques)
    assert filtered > 0


def test_cut_fractional_members_are_its_clique():
    lifted = 0
    for g, point, min_viol in _exactness_cases(63, 40):
        sub = fractional_subgraph(g, point, 1.0 + min_viol)
        frac = set(fractional_subgraph(g, point).nodes)
        cliques = set(find_cliques(sub, BkParams(min_weight=1.0 + min_viol,
                                                 max_calls=10**9)).cliques)
        cuts = separate_cliques(g, point, min_viol, BkParams(max_calls=10**9))
        # A complement pair gives a cut only when it lifts.
        cliques -= {c for c in cliques
                    if _complement_pair(c, g.n_vars) and extend_cut(g, c, point) == c}
        assert len(cuts) == len(cliques)
        assert {c.members & frac for c in cuts} == cliques
        for c in cuts:
            assert c.members - c.lifted_members == c.members & frac
        lifted += sum(len(c.lifted_members) for c in cuts)
    assert lifted > 0


def test_a_round_leaves_two_tracked_objects_per_cut():
    # Pair rows only, so no stored block fills a member-set memo, and every
    # variable fractional, so no cut lifts.  A cut then holds its record
    # and its members, the clique Bron-Kerbosch emitted, and shares the one
    # empty lifted set: two objects the cyclic collector tracks per cut.
    rng = random.Random(71)
    n = 60
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = build(MilpInstance(gen.binary_vars(n), gen.pair_rows(pairs)))
    point = FractionalPoint({j: rng.uniform(0.2, 0.45) for j in range(n)})
    params = BkParams(max_calls=10**9)
    separate_cliques(g, point, 0.02, params)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        cuts = separate_cliques(g, point, 0.02, params)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert not any(g.store.blocks) and not g._sets
    assert len(cuts) >= 100 and not any(c.lifted_members for c in cuts)
    assert grown <= 2 * len(cuts) + 10, (grown, len(cuts))


def _reference_lifting_subgraph(inst, point, min_weight):
    """(nodes, weights, adj, lift) of the filtered fractional subgraph, with
    each literal's neighbors taken from pairwise probing of the rows plus
    its complement.  A literal is kept when its value plus its fractional
    neighbors' values, added in id order, reaches ``min_weight`` less twice
    BK's slack; its lift set is its non-fractional neighbors."""
    n = inst.n_vars
    near = {a: {a + n if a < n else a - n} for a in range(2 * n)}
    for a, b in map(tuple, probe_pairs(inst).edges):
        near[a].add(b)
        near[b].add(a)
    value = {}
    for j in range(n):
        v = point.lit_value(j, n)
        if 1e-6 < v < 1.0 - 1e-6:
            value[j], value[j + n] = v, point.lit_value(j + n, n)
    kept = []
    for a in value:
        total = value[a]
        for b in sorted(near[a]):
            if b in value:
                total += value[b]
        if total >= min_weight - 2e-9:
            kept.append(a)
    nodes = sorted(kept, key=lambda a: (-value[a], a))
    local = {a: i for i, a in enumerate(nodes)}
    adj = [sum(1 << local[b] for b in near[a] if b in local) for a in nodes]
    lift = {a: frozenset(b for b in near[a] if b not in value) for a in nodes}
    return nodes, [value[a] for a in nodes], adj, lift


def test_fractional_subgraph_matches_probed_reference():
    rng = random.Random(72)
    covered = Counter()
    for case in range(150):
        kind = case % 3
        if kind == 0:
            inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(4, 12))
        elif kind == 1:
            inst = gen.random_binary_instance(rng, n_vars=rng.randint(6, 16),
                                              n_rows=rng.randint(2, 8))
        else:
            inst = gen.crossed_clique_instance(rng)[0]
        n = inst.n_vars
        point = FractionalPoint({j: rng.choice([0.0, 1.0, 0.5, rng.random(), rng.random()])
                                 for j in range(n)})
        for mcs in (0, 2, 512):
            g = build(inst, min_clq_size=mcs)
            for min_weight in (0.0, 1.02, 1.5):
                sub = fractional_subgraph(g, point, min_weight)
                nodes, weights, adj, lift = _reference_lifting_subgraph(inst, point, min_weight)
                assert (sub.nodes, sub.weights, sub.adj, sub.lift) == (nodes, weights, adj, lift)
                # Every literal that lifts nothing shares one empty set.
                assert len({id(s) for s in sub.lift.values() if not s}) <= 1
                covered["filtered"] += len(fractional_subgraph(g, point).nodes) - len(nodes)
                covered["lifting"] += sum(bool(s) for s in lift.values())
                covered["stored"] += sum(bool(g.store.blocks[a]) for a in nodes)
    assert all(covered[k] >= 1000 for k in ("filtered", "lifting", "stored")), covered
