import random

import pytest

from cgcuts import MilpInstance, Row
from cgcuts.oracle import probe_pairs

import gen
from brute import (
    BudgetExceededError,
    enum_conflict_feasible,
    enum_feasible,
    enum_maximal_cliques,
    enum_odd_cycles,
)


def test_probe_simple_pair():
    inst = MilpInstance(gen.binary_vars(2), [Row("r", [(0, 2.0), (1, 3.0)], "<=", 4.0)])
    result = probe_pairs(inst)
    assert result.edges == {frozenset({0, 1})}


def test_probe_negative_coefficient():
    # -2x1 + 3x2 <= 1 conflicts for x1=0, x2=1
    inst = MilpInstance(gen.binary_vars(2), [Row("r", [(0, -2.0), (1, 3.0)], "<=", 1.0)])
    result = probe_pairs(inst)
    assert result.edges == {frozenset({0 + 2, 1})}


def test_probe_set_packing_row_is_full_clique():
    inst = MilpInstance(
        gen.binary_vars(4),
        [Row("r", [(j, 1.0) for j in range(4)], "<=", 1.0)],
    )
    result = probe_pairs(inst)
    assert result.edges == {frozenset({i, j}) for i in range(4) for j in range(i + 1, 4)}


def test_probe_skips_non_binary_rows():
    from cgcuts import Variable

    variables = [Variable("x", 0.0, 1.0, True), Variable("y", 0.0, 9.0, True)]
    inst = MilpInstance(variables, [Row("r", [(0, 1.0), (1, 1.0)], "<=", 1.0)])
    assert probe_pairs(inst).edges == set()


def test_enum_maximal_cliques_triangle():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    w = {0: 0.5, 1: 0.5, 2: 0.5}
    assert enum_maximal_cliques(adj, w, 1.0) == {frozenset({0, 1, 2})}
    assert enum_maximal_cliques(adj, w, 2.0) == set()


def test_enum_maximal_cliques_empty():
    assert enum_maximal_cliques({}, {}, 0.0) == set()


def test_enum_maximal_cliques_isolated_nodes():
    adj = {0: set(), 1: set()}
    assert enum_maximal_cliques(adj, {0: 1.0, 1: 2.0}, 1.5) == {frozenset({1})}


def test_enum_maximal_cliques_budget():
    adj = {v: set() for v in range(21)}
    with pytest.raises(BudgetExceededError):
        enum_maximal_cliques(adj, {v: 0.0 for v in adj}, 0.0)


def test_enum_odd_cycles_five_cycle():
    adj = {0: {1, 4}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 0}}
    vals = {v: 0.5 for v in adj}
    cycles = enum_odd_cycles(adj, vals)
    assert cycles == {(0, 1, 2, 3, 4)}


def test_enum_odd_cycles_triangle_only():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    assert enum_odd_cycles(adj, {v: 0.9 for v in adj}) == set()


def test_enum_odd_cycles_needs_violation():
    adj = {0: {1, 4}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 0}}
    assert enum_odd_cycles(adj, {v: 0.3 for v in adj}) == set()


def test_enum_odd_cycles_budget():
    adj = {v: set() for v in range(15)}
    with pytest.raises(BudgetExceededError):
        enum_odd_cycles(adj, {v: 0.0 for v in adj})


def test_enum_feasible_packing_row():
    inst = gen.triangle_instance()
    pts = enum_feasible(inst)
    assert pts == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enum_feasible_empty_instance():
    inst = MilpInstance(gen.binary_vars(3), [])
    assert len(enum_feasible(inst)) == 8


def test_enum_feasible_budgets():
    inst = MilpInstance(gen.binary_vars(21), [])
    with pytest.raises(BudgetExceededError):
        enum_feasible(inst)
    from cgcuts import Variable

    bad = MilpInstance([Variable("y", 0.0, 2.0, True)], [])
    with pytest.raises(BudgetExceededError):
        enum_feasible(bad)


def test_enum_conflict_feasible_matches_edge_inequalities():
    rng = random.Random(9)
    inst = gen.random_binary_instance(rng, n_vars=6)
    edges = probe_pairs(inst).edges
    pts = enum_conflict_feasible(edges, 6)
    for p in pts:
        lits = list(p) + [1 - b for b in p]
        for e in edges:
            a, b = tuple(e)
            assert lits[a] + lits[b] <= 1
