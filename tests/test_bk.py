import math
import random

import pytest

from cgcuts import BkParams, BkResult, WeightedSubgraph, choose_pivot, find_cliques
from cgcuts.bk import PIVOT_RULES, WEIGHT_EPS, _mask_weight
from cgcuts.oracle import enum_maximal_cliques

import gen


def _subgraph(adj, weights):
    edges = {frozenset((u, v)) for u in adj for v in adj[u]}
    return WeightedSubgraph.from_edges(weights, edges)


def _reference_find_cliques(g, params, *, prune=True):
    """The recursive search with a bit-scan decode, kept as the reference
    for the explicit-stack version.  ``prune=False`` turns the weight bound
    off, for the check that the bound never changes the clique set."""
    n = len(g)
    full = (1 << n) - 1
    minw = params.min_weight - WEIGHT_EPS
    rng = random.Random(params.rng_seed)
    weights = g.weights
    out = []
    calls = 0
    truncated = False

    def rec(r_mask, p_mask, x_mask, r_weight):
        nonlocal calls, truncated
        calls += 1
        if calls > params.max_calls:
            truncated = True
            return
        if p_mask == 0 and x_mask == 0:
            if r_mask and r_weight >= minw:
                out.append(r_mask)
            return
        if prune and r_weight + _mask_weight(p_mask, weights) < minw:
            return
        u = choose_pivot(params.pivot_rule, g, p_mask, x_mask, rng)
        ext = p_mask & ((full ^ g.adj[u] ^ (1 << u)) | (1 << u))
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            rec(r_mask | low, p_mask & g.adj[v], x_mask & g.adj[v],
                r_weight + weights[v])
            if truncated:
                return
            p_mask &= ~low
            x_mask |= low

    rec(0, full, 0, 0.0)
    cliques = [
        frozenset(g.nodes[i] for i in range(n) if mask >> i & 1)
        for mask in out
    ]
    return BkResult(cliques, not truncated, calls)


def _assert_same_as_reference(g, params):
    got = find_cliques(g, params)
    ref = _reference_find_cliques(g, params)
    assert got.cliques == ref.cliques, params
    assert (got.calls, got.exact) == (ref.calls, ref.exact), params
    return got


def test_matches_recursive_reference():
    rng = random.Random(37)
    truncated = exact = 0
    for _ in range(24):
        n = rng.randint(1, 14)
        adj, weights = gen.random_weighted_graph(rng, n, rng.uniform(0.1, 0.9))
        # Shift ids so that node ids differ from local indices.
        adj = {v + 3: {u + 3 for u in adj[v]} for v in adj}
        weights = {v + 3: w for v, w in weights.items()}
        g = _subgraph(adj, weights)
        minw = rng.uniform(0.0, 2.0)
        for rule in PIVOT_RULES:
            for seed in (0, 1, 2):
                for max_calls in (1, 3, 5, 17, 10**9):
                    params = BkParams(min_weight=minw, max_calls=max_calls,
                                      pivot_rule=rule, rng_seed=seed)
                    res = _assert_same_as_reference(g, params)
                    truncated += not res.exact
                    exact += res.exact and res.calls > 1
    assert truncated > 100 and exact > 100


def test_matches_recursive_reference_deep():
    # A 300-clique at 0.5, each member with a pendant neighbor, like a
    # set-packing row with the complements of its literals.
    k = 300
    weights = {v: 0.5 for v in range(2 * k)}
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(v, v + k) for v in range(k)]
    g = WeightedSubgraph.from_edges(weights, edges)
    for max_calls in (k // 2, 10**9):
        res = _assert_same_as_reference(g, BkParams(min_weight=1.02, max_calls=max_calls))
    assert res.exact and res.cliques == [frozenset(range(k))]


def test_triangle_golden():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    w = {v: 0.5 for v in adj}
    res = find_cliques(_subgraph(adj, w), BkParams(min_weight=1.02))
    assert res.exact
    assert res.cliques == [frozenset({0, 1, 2})]


def test_empty_graph():
    g = WeightedSubgraph.from_edges({}, [])
    res = find_cliques(g, BkParams(min_weight=0.0))
    assert res.cliques == [] and res.exact
    assert res.calls == 1


def test_exactness_all_rules_and_seeds():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 12)
        adj, weights = gen.random_weighted_graph(rng, n, rng.uniform(0.1, 0.9))
        minw = rng.uniform(0.0, 2.0)
        expect = enum_maximal_cliques(adj, weights, minw)
        g = _subgraph(adj, weights)
        for rule in PIVOT_RULES:
            for seed in (0, 1, 2):
                params = BkParams(min_weight=minw, max_calls=10**9,
                                  pivot_rule=rule, rng_seed=seed)
                res = find_cliques(g, params)
                assert res.exact
                assert set(res.cliques) == expect, (rule, seed)


def test_soundness_under_budget():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randint(4, 14)
        adj, weights = gen.random_weighted_graph(rng, n, 0.5)
        minw = 0.8
        g = _subgraph(adj, weights)
        full = set(find_cliques(g, BkParams(min_weight=minw, max_calls=10**9)).cliques)
        res = find_cliques(g, BkParams(min_weight=minw, max_calls=5))
        assert set(res.cliques) <= full
        for c in res.cliques:
            assert sum(weights[v] for v in c) >= minw - 1e-9


def test_exact_flag_reflects_truncation():
    adj, weights = gen.random_weighted_graph(random.Random(33), 14, 0.7)
    g = _subgraph(adj, weights)
    big = find_cliques(g, BkParams(min_weight=0.0, max_calls=10**9))
    assert big.exact
    small = find_cliques(g, BkParams(min_weight=0.0, max_calls=3))
    assert not small.exact
    assert small.calls == 4  # the aborted call is counted too


def test_pruning_only_changes_call_counts():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(2, 12)
        adj, weights = gen.random_weighted_graph(rng, n, 0.5)
        g = _subgraph(adj, weights)
        params = BkParams(min_weight=1.2, max_calls=10**9)
        pruned = find_cliques(g, params)
        free = _reference_find_cliques(g, params, prune=False)
        assert set(pruned.cliques) == set(free.cliques)
        assert pruned.calls <= free.calls


def test_call_count_monotone_on_nested_subgraphs():
    # growing prefixes of one fixed graph, no pruning interference
    rng = random.Random(35)
    adj, weights = gen.random_weighted_graph(rng, 12, 0.5)
    calls = []
    for n in range(2, 13):
        sub_adj = {v: {u for u in adj[v] if u < n} for v in range(n)}
        sub_w = {v: weights[v] for v in range(n)}
        res = find_cliques(_subgraph(sub_adj, sub_w), BkParams(min_weight=0.0, max_calls=10**9))
        calls.append(res.calls)
    assert all(a <= b for a, b in zip(calls, calls[1:]))


def test_choose_pivot_single_candidate():
    g = WeightedSubgraph.from_edges({5: 1.0}, [])
    for rule in PIVOT_RULES:
        assert choose_pivot(rule, g, 1, 0, random.Random(0)) == 0


def test_choose_pivot_star():
    # center 0 with weight 0, leaves heavier
    weights = {0: 0.0, 1: 0.3, 2: 0.9, 3: 0.5}
    edges = [(0, 1), (0, 2), (0, 3)]
    g = WeightedSubgraph.from_edges(weights, edges)
    full = 0b1111
    assert choose_pivot("deg", g, full, 0) == 0
    assert choose_pivot("wgt", g, full, 0) == 2


def test_choose_pivot_mwt_path():
    weights = {0: 1.0, 1: 1.0, 2: 1.0}
    g = WeightedSubgraph.from_edges(weights, [(0, 1), (1, 2)])
    assert choose_pivot("mwt", g, 0b111, 0) == 1  # middle sums to 3


def test_choose_pivot_mdg_counts_only_p():
    # node 0 has three neighbors but only one inside P; node 3 has two in P
    weights = {v: 1.0 for v in range(6)}
    edges = [(0, 1), (0, 4), (0, 5), (3, 1), (3, 2)]
    g = WeightedSubgraph.from_edges(weights, edges)
    p_mask = 0b000110  # candidates P = {1, 2}
    x_mask = 0b001001  # pivot pool also holds {0, 3}
    assert choose_pivot("mdg", g, p_mask, x_mask) == 3
    assert choose_pivot("deg", g, p_mask, x_mask) == 0


def test_choose_pivot_rnd_seeded():
    weights = {v: 1.0 for v in range(6)}
    g = WeightedSubgraph.from_edges(weights, [])
    picks = [choose_pivot("rnd", g, 0b111111, 0, random.Random(17)) for _ in range(5)]
    again = [choose_pivot("rnd", g, 0b111111, 0, random.Random(17)) for _ in range(5)]
    assert picks == again
    assert all(0 <= p < 6 for p in picks)


def test_params_validation():
    with pytest.raises(ValueError):
        BkParams(max_calls=0)
    with pytest.raises(ValueError):
        BkParams(pivot_rule="best")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="min_weight must be finite"):
            BkParams(min_weight=bad)


def test_params_defaults():
    p = BkParams()
    assert p.max_calls == 100_000
    assert p.pivot_rule == "wgt"
    assert p.rng_seed == 0


def test_subgraph_mask_invariants():
    rng = random.Random(36)
    adj, weights = gen.random_weighted_graph(rng, 10, 0.4)
    g = _subgraph(adj, weights)
    n = len(g)
    for v in range(n):
        assert not g.adj[v] >> v & 1  # irreflexive
        for u in range(n):
            assert (g.adj[v] >> u & 1) == (g.adj[u] >> v & 1)


def test_clique_with_variable_and_complement_weights():
    # weights may sum above 1 only via a third literal
    weights = {0: 0.5, 1: 0.5, 2: 0.4}
    edges = [(0, 1), (0, 2), (1, 2)]
    res = find_cliques(WeightedSubgraph.from_edges(weights, edges),
                       BkParams(min_weight=1.3))
    assert res.cliques == [frozenset({0, 1, 2})]
