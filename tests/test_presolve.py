import itertools
import random

import pytest

from cgcuts import Row, build, extend_clique, strengthen
from cgcuts.oracle import enum_feasible

import gen


def test_extend_clique_golden():
    inst = gen.strengthen_example_instance()
    g = build(inst)
    # clique of row p1 = {x2, x3, x4}
    ext = extend_clique(g, {1, 2, 3})
    assert ext == frozenset({1, 2, 3, 4, 5})


def test_extend_clique_maximal_unchanged():
    inst = gen.triangle_instance()
    g = build(inst)
    assert extend_clique(g, {0, 1, 2}) == frozenset({0, 1, 2})


def test_extend_clique_rejects_non_clique():
    inst = gen.triangle_instance()
    g = build(inst)
    with pytest.raises(ValueError, match="not a clique"):
        extend_clique(g, {0, 4})


def test_extend_clique_empty():
    g = build(gen.triangle_instance())
    assert extend_clique(g, set()) == frozenset()


def _is_clique(g, nodes):
    return all(g.conflicting(a, b) for a, b in itertools.combinations(nodes, 2))


def _is_maximal(g, nodes):
    members = set(nodes)
    for cand in range(g.n_nodes):
        if cand in members:
            continue
        if all(g.conflicting(cand, m) for m in members):
            return False
    return True


def test_extend_clique_random_properties():
    rng = random.Random(41)
    for _ in range(80):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 7))
        g = build(inst, min_clq_size=rng.choice([0, 512]))
        edges = sorted(tuple(sorted(e)) for e in g.edge_set())
        if not edges:
            continue
        seed_edge = rng.choice(edges)
        ext = extend_clique(g, set(seed_edge))
        assert set(seed_edge) <= ext
        assert _is_clique(g, ext)
        assert _is_maximal(g, ext)


def test_strengthen_golden():
    inst = gen.strengthen_example_instance()
    g = build(inst)
    report = strengthen(inst, g)
    out = report.instance
    assert [r.name for r in out.rows] == ["k1", "p1_clqext"]
    assert out.rows[0] == inst.rows[0]
    ext_row = out.rows[1]
    assert ext_row.coeffs == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]
    assert ext_row.sense == "<=" and ext_row.rhs == 1.0
    assert report.extended == [(1, 2)]
    assert report.removed_rows == [2]


def test_strengthen_idempotent_on_golden():
    inst = gen.strengthen_example_instance()
    g = build(inst)
    once = strengthen(inst, g).instance
    g2 = build(once)
    report = strengthen(once, g2)
    assert report.extended == [] and report.removed_rows == []
    assert report.instance == once


def test_strengthen_no_set_packing_rows():
    inst = gen.knapsack_example_instance()
    g = build(inst)
    report = strengthen(inst, g)
    assert report.extended == [] and report.removed_rows == []
    assert report.instance == inst


def test_strengthen_alpha_max_limits_extension():
    inst = gen.strengthen_example_instance()
    g = build(inst)
    report = strengthen(inst, g, alpha_max=2)
    # only p2 (two variables) is eligible; p1 stays as written
    assert [r.name for r in report.instance.rows] == ["k1", "p1", "p2_clqext"]


def test_strengthen_equality_rows_untouched():
    rows = [
        Row("e", [(0, 1.0), (1, 1.0)], "=", 1.0),
        Row("p", [(0, 1.0), (2, 1.0)], "<=", 1.0),
    ]
    from cgcuts import MilpInstance

    inst = MilpInstance(gen.binary_vars(3), rows)
    g = build(inst)
    report = strengthen(inst, g)
    assert report.instance.rows[0] == rows[0]


def test_strengthen_removes_duplicate_dominated_rows():
    rows = [
        Row("p1", [(0, 1.0), (1, 1.0)], "<=", 1.0),
        Row("p2", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0),
    ]
    from cgcuts import MilpInstance

    inst = MilpInstance(gen.binary_vars(3), rows)
    g = build(inst)
    report = strengthen(inst, g)
    # p1 extends to the triangle, dominating p2
    assert [r.name for r in report.instance.rows] == ["p1_clqext"]
    assert report.removed_rows == [1]


def test_strengthen_preserves_solution_set():
    rng = random.Random(42)
    for _ in range(80):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 10))
        g = build(inst, min_clq_size=rng.choice([0, 512]))
        report = strengthen(inst, g)
        assert enum_feasible(report.instance) == enum_feasible(inst)
        assert len(report.instance.rows) <= len(inst.rows)


def test_strengthen_dominance_soundness():
    from cgcuts import normalize_to_knapsack

    rng = random.Random(43)
    for _ in range(60):
        inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(3, 9))
        g = build(inst)
        report = strengthen(inst, g)
        # re-derive the surviving extended cliques; the emitted rows may have
        # merged away a variable/complement pair
        ext_cliques = []
        for ri, _ in report.extended:
            [k] = normalize_to_knapsack(inst.rows[ri], inst)
            ext_cliques.append(extend_clique(g, {lit for lit, _ in k.literals}))
        for ri in report.removed_rows:
            [k] = normalize_to_knapsack(inst.rows[ri], inst)
            removed_lits = {lit for lit, _ in k.literals}
            assert any(removed_lits <= e for e in ext_cliques)


def test_strengthen_cover_rows_extend_over_complements():
    # x1 + x2 >= 1 normalizes to !x1 + !x2 <= 1; a conflict of the
    # complements with !x3 extends it
    rows = [
        Row("cov", [(0, 1.0), (1, 1.0)], ">=", 1.0),
        Row("c1", [(0, 1.0), (2, 1.0)], ">=", 1.0),
        Row("c2", [(1, 1.0), (2, 1.0)], ">=", 1.0),
    ]
    from cgcuts import MilpInstance

    inst = MilpInstance(gen.binary_vars(3), rows)
    g = build(inst)
    report = strengthen(inst, g)
    assert len(report.instance.rows) == 1
    row = report.instance.rows[0]
    # !x1 + !x2 + !x3 <= 1  ==  -x1 - x2 - x3 <= -2
    assert row.coeffs == [(0, -1.0), (1, -1.0), (2, -1.0)]
    assert row.rhs == -2.0
    assert enum_feasible(report.instance) == enum_feasible(inst)
