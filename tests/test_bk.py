import math
import random

import pytest

from cgcuts import BkParams
from cgcuts.bk import WEIGHT_EPS, BkResult, WeightedSubgraph, find_cliques

import gen
from brute import enum_maximal_cliques


def _subgraph(adj, weights):
    edges = {frozenset((u, v)) for u in adj for v in adj[u]}
    return gen.weighted_subgraph(weights, edges)


def _reference_pivot(g, cand):
    """The heaviest vertex of ``cand`` by a scan, ties to the smallest
    local index; no use of the subgraph's numbering."""
    best = -1
    for u in range(len(g)):
        if cand >> u & 1 and (best < 0 or g.weights[u] > g.weights[best]):
            best = u
    return best


def _reference_find_cliques(g, params, *, prune=True, leaves=None):
    """The recursive search with a scanned pivot and a full weight sum,
    kept as the reference for the explicit-stack version.  ``prune=False``
    turns the weight bound off, for the check that the bound never changes
    the clique set.  ``leaves``, when given, gets one flag per counted
    node, in search order: whether its P is empty."""
    n = len(g)
    full = (1 << n) - 1
    minw = params.min_weight - WEIGHT_EPS
    weights = g.weights
    out = []
    calls = 0
    truncated = False

    def rec(r_mask, p_mask, x_mask, r_weight):
        nonlocal calls, truncated
        calls += 1
        if leaves is not None:
            leaves.append(not p_mask)
        if calls > params.max_calls:
            truncated = True
            return
        if p_mask == 0 and x_mask == 0:
            if r_mask and r_weight >= minw:
                out.append(r_mask)
            return
        p_weight = sum(weights[i] for i in range(n) if p_mask >> i & 1)
        if prune and r_weight + p_weight < minw:
            return
        u = _reference_pivot(g, p_mask | x_mask)
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
    for _ in range(360):
        n = rng.randint(1, 14)
        adj, weights = gen.random_weighted_graph(rng, n, rng.uniform(0.1, 0.9))
        # Shift ids so that node ids differ from local indices.
        adj = {v + 3: {u + 3 for u in adj[v]} for v in adj}
        weights = {v + 3: w for v, w in weights.items()}
        g = _subgraph(adj, weights)
        minw = rng.uniform(0.0, 2.0)
        for max_calls in (1, 3, 5, 17, 10**9):
            params = BkParams(min_weight=minw, max_calls=max_calls)
            res = _assert_same_as_reference(g, params)
            truncated += not res.exact
            exact += res.exact and res.calls > 1
    assert truncated > 100 and exact > 100


def test_matches_recursive_reference_sparse():
    # Subgraphs shaped like a clique round's: sparse, light vertices and a
    # threshold of 1.02, so most search nodes are leaves.  Budgets cut each
    # search at fractions of its full length, so some stop on a leaf.
    rng = random.Random(39)
    leaves = leaf_stops = budgets = 0
    for _ in range(30):
        n = rng.randint(40, 120)
        density = rng.uniform(0.05, 0.15)
        ids = rng.sample(range(1000), n)
        weights = {v: rng.uniform(0.2, 0.6) for v in ids}
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                 if rng.random() < density]
        g = gen.weighted_subgraph(weights, edges)
        is_leaf = []
        full = _reference_find_cliques(g, BkParams(min_weight=1.02, max_calls=10**9),
                                       leaves=is_leaf)
        assert full.exact and full.cliques
        _assert_same_as_reference(g, BkParams(min_weight=1.02, max_calls=full.calls))
        leaves += sum(is_leaf)
        for frac in (0.1, 0.3, 0.6, 0.9):
            max_calls = max(1, int(full.calls * frac))
            res = _assert_same_as_reference(g, BkParams(min_weight=1.02, max_calls=max_calls))
            assert not res.exact and res.calls == max_calls + 1
            budgets += 1
            leaf_stops += is_leaf[max_calls]  # the node past the budget
    assert leaves >= 5000 and leaf_stops >= 40, (leaves, leaf_stops, budgets)


def test_matches_recursive_reference_deep():
    # A 300-clique at 0.5, each member with a pendant neighbor, like a
    # set-packing row with the complements of its literals.
    k = 300
    weights = {v: 0.5 for v in range(2 * k)}
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(v, v + k) for v in range(k)]
    g = gen.weighted_subgraph(weights, edges)
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
    g = gen.weighted_subgraph({}, [])
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
        res = find_cliques(g, BkParams(min_weight=minw, max_calls=10**9))
        assert res.exact
        assert set(res.cliques) == expect


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


def test_subgraph_numbered_by_weight():
    weights = {7: 0.5, 2: 0.9, 9: 0.1, 5: 0.9, 4: 0.5}
    g = gen.weighted_subgraph(weights, [(7, 2), (9, 5)])
    assert g.nodes == [2, 5, 4, 7, 9]
    assert g.weights == [0.9, 0.9, 0.5, 0.5, 0.1]
    with pytest.raises(ValueError, match="must not increase"):
        WeightedSubgraph([0, 1], [0.2, 0.5], [0, 0])
    with pytest.raises(ValueError, match="non-negative"):
        WeightedSubgraph([0, 1], [0.5, -0.1], [0, 0])


def test_wgt_pivot_ties_go_to_smallest_id():
    # On tied weights the heaviest vertex with the smallest id is the
    # lowest set bit of any candidate set, which find_cliques takes as
    # its pivot without a scan.
    weights = {7: 0.5, 2: 0.9, 9: 0.5, 5: 0.9, 4: 0.5, 3: 0.9}
    g = gen.weighted_subgraph(weights, [])
    for cand in range(1, 1 << len(g)):
        u = _reference_pivot(g, cand)
        assert u == (cand & -cand).bit_length() - 1
        members = [g.nodes[i] for i in range(len(g)) if cand >> i & 1]
        heaviest = max(weights[v] for v in members)
        assert g.nodes[u] == min(v for v in members if weights[v] == heaviest)
    # Graphs with many ties and shuffled ids still search like the reference.
    rng = random.Random(38)
    for _ in range(30):
        n = rng.randint(2, 12)
        adj, _ = gen.random_weighted_graph(rng, n, rng.uniform(0.2, 0.8))
        ids = rng.sample(range(100), n)
        adj = {ids[v]: {ids[u] for u in adj[v]} for v in adj}
        g = _subgraph(adj, {v: rng.choice((0.25, 0.5)) for v in adj})
        _assert_same_as_reference(g, BkParams(min_weight=1.0, max_calls=10**9))


def test_params_validation():
    with pytest.raises(ValueError):
        BkParams(max_calls=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="min_weight must be finite"):
            BkParams(min_weight=bad)


def test_params_defaults():
    p = BkParams()
    assert p.min_weight == 1.0
    assert p.max_calls == 100_000


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
    res = find_cliques(gen.weighted_subgraph(weights, edges),
                       BkParams(min_weight=1.3))
    assert res.cliques == [frozenset({0, 1, 2})]
