import gc
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from cgcuts import (
    MilpInstance,
    Row,
    StrengthenReport,
    build,
    normalize_to_knapsack,
    parse_mps,
    strengthen,
    write_mps,
)
from cgcuts.cli import main
from cgcuts.model import EPS, Variable, literals_to_row
from cgcuts.presolve import extend_clique

import gen
from brute import enum_feasible


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
    with pytest.raises(ValueError, match=r"^input is not a clique: 0 and 4 do not conflict$"):
        extend_clique(g, {0, 4})
    # 0 conflicts with 1, 2 and its complement 3, so the first pair in
    # sorted order that does not conflict is (1, 3).
    with pytest.raises(ValueError, match=r"^input is not a clique: 1 and 3 do not conflict$"):
        extend_clique(g, {3, 2, 1, 0})


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
        edges = sorted(tuple(sorted(e)) for e in gen.edge_set(g))
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


def test_strengthen_result_equals_its_checked_construction():
    """``strengthen`` makes its result with no second check; it equals the
    instance ``MilpInstance`` makes, with its checks, of the same parts."""
    for seed in range(10):
        inst = gen.random_setpacking_instance(random.Random(seed))
        out = strengthen(inst, build(inst)).instance
        checked = MilpInstance(list(out.variables), list(out.rows), name=out.name,
                               objective_name=out.objective_name)
        assert out == checked
        assert out._index == checked._index and out._binary == checked._binary


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
    # Both knapsack directions of e would extend: {x1, x2} by x3 through p
    # and q, and {!x1, !x2} by !x3 through p2 and q2.
    rows = [
        Row("e", [(0, 1.0), (1, 1.0)], "=", 1.0),
        Row("p", [(0, 1.0), (2, 1.0)], "<=", 1.0),
        Row("q", [(1, 1.0), (2, 1.0)], "<=", 1.0),
        Row("p2", [(0, 1.0), (2, 1.0)], ">=", 1.0),
        Row("q2", [(1, 1.0), (2, 1.0)], ">=", 1.0),
    ]
    from cgcuts import MilpInstance

    inst = MilpInstance(gen.binary_vars(3), rows)
    g = build(inst)
    report = strengthen(inst, g)
    assert report.instance.rows[0] == rows[0]
    assert 0 not in dict(report.extended) and 0 not in report.removed_rows


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


def test_strengthen_names_around_existing_clqext_row(tmp_path):
    # r1 extends to {x1, x2, x3}, but the model already has a row r1_clqext.
    inst = MilpInstance(gen.binary_vars(3), [
        Row("r1", [(0, 1.0), (1, 1.0)], "<=", 1.0),
        Row("r1_clqext", [(2, 1.0)], "<=", 1.0),
        Row("r2", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0),
    ])
    path, out = tmp_path / "m.mps", tmp_path / "out.mps"
    path.write_text(write_mps(inst))
    assert main(["strengthen", str(path), "--out", str(out)]) == 0
    result = parse_mps(out.read_text())
    assert [r.name for r in result.rows] == ["r1_clqext2", "r1_clqext"]
    assert result.rows[0].coeffs == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert result.rows[1] == inst.rows[1]
    # The objective row's name is taken too.
    inst = MilpInstance(inst.variables, [inst.rows[0], inst.rows[2]],
                        objective_name="r1_clqext")
    out = strengthen(inst, build(inst)).instance
    assert [r.name for r in out.rows] == ["r1_clqext2"]
    assert parse_mps(write_mps(out)).rows == out.rows


def test_strengthen_names_the_first_free_numbered_row():
    # r1, x1 + x2 <= 1, extends to {x1, x2, x3} in a model that already
    # has rows named ``taken``, each a one-literal row that is not
    # collected; r2 lands inside the extension.
    for taken, expected in ((["r1_clqext", "r1_clqext2"], "r1_clqext3"),
                            (["r1_clqext2"], "r1_clqext"),
                            (["r1_clqext", "r1_clqext3"], "r1_clqext2")):
        rows = [Row("r1", [(0, 1.0), (1, 1.0)], "<=", 1.0)]
        rows += [Row(name, [(2, 1.0)], "<=", 1.0) for name in taken]
        rows.append(Row("r2", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0))
        inst = MilpInstance(gen.binary_vars(3), rows)
        report = strengthen(inst, build(inst))
        assert report.extended == [(0, 1)] and report.removed_rows == [len(rows) - 1]
        assert [r.name for r in report.instance.rows] == [expected, *taken]


def test_strengthen_names_rows_whose_first_choices_collide():
    # Row r's first choice, r_clqext, is the next row's own name, and both
    # rows extend: r to {x0, x1, x2} and r_clqext to {x3, x4, x5}.  The
    # other four rows land inside the extensions.
    inst = MilpInstance(gen.binary_vars(6), [
        Row("r", [(0, 1.0), (1, 1.0)], "<=", 1.0),
        Row("r_clqext", [(3, 1.0), (4, 1.0)], "<=", 1.0),
        Row("r_clqext2", [(0, 1.0), (2, 1.0)], "<=", 1.0),
        *gen.pair_rows([(1, 2), (3, 5), (4, 5)]),
    ])
    report = strengthen(inst, build(inst))
    assert report.extended == [(0, 1), (1, 1)]
    assert report.removed_rows == [2, 3, 4, 5]
    names = [r.name for r in report.instance.rows]
    assert names == ["r_clqext3", "r_clqext_clqext"]
    assert parse_mps(write_mps(report.instance)).rows == report.instance.rows


def _set_packing_clique(krow):
    """A knapsack row's literals when it reads as a set-packing row."""
    if len(krow.literals) < 2:
        return None
    if abs(krow.rhs - 1.0) > EPS:
        return None
    if any(abs(a - 1.0) > EPS for _, a in krow.literals):
        return None
    return frozenset(lit for lit, _ in krow.literals)


def _knapsack_set_packing(row, instance):
    """Set-packing detection through ``normalize_to_knapsack``."""
    krows = normalize_to_knapsack(row, instance)
    return _set_packing_clique(krows[0]) if len(krows) == 1 else None


def _edge_rows(rng, count):
    """Rows of one to three terms over three binaries and one continuous
    column: unit magnitudes or ones off by EPS / 2 or 2 * EPS, either sign,
    either sense, and the rhs that makes the knapsack rhs 1, or one off it
    by EPS / 2 or 2 * EPS."""
    magnitudes = (1.0, 1.0 + EPS / 2, 1.0 - EPS / 2, 1.0 + 2 * EPS, 1.0 - 2 * EPS)
    offsets = (0.0, EPS / 2, -EPS / 2, 2 * EPS, -2 * EPS)
    rows = []
    for i in range(count):
        columns = rng.sample(range(4), rng.randint(1, 3))
        coeffs = [(j, rng.choice((-1.0, 1.0)) * rng.choice(magnitudes)) for j in columns]
        sense = rng.choice(("<=", ">="))
        sign = 1.0 if sense == "<=" else -1.0
        # The knapsack rhs is sign * rhs plus the magnitudes complemented.
        complemented = sum(abs(a) for _, a in coeffs if sign * a < 0)
        rhs = sign * (1.0 - complemented + rng.choice(offsets))
        rows.append(Row(f"r{i}", coeffs, sense, rhs))
    variables = gen.binary_vars(3) + [Variable("c", 0.0, 10.0, False)]
    return MilpInstance(variables, rows)


def _strengthened_clique(row, variables):
    """The literal set ``strengthen`` reads from ``row`` as a set-packing
    row, or None.

    The last variable, z, is in no row.  The row alone is strengthened over
    a graph whose one clique is z plus the literals of the row's knapsack
    form, so a row read with exactly those literals gains z and nothing
    else, and a row not read gains nothing.
    """
    inst = MilpInstance(variables, [row])
    z = inst.n_vars - 1
    krows = normalize_to_knapsack(row, inst)
    terms = [(lit, 1.0) for lit, _ in krows[0].literals] if krows else []
    clique = literals_to_row(terms + [(z, 1.0)], 1.0, inst.n_vars, "clique")
    report = strengthen(inst, build(MilpInstance(variables, [clique])))
    if not report.extended:
        return None
    assert report.extended == [(0, 1)], report.extended
    [krow] = normalize_to_knapsack(report.instance.rows[0], inst)
    return frozenset(lit for lit, _ in krow.literals) - {z}


def test_set_packing_detection_matches_knapsack_form():
    rng = random.Random(44)
    instances = [_edge_rows(rng, 4000)]
    for _ in range(150):
        make = rng.choice((gen.random_setpacking_instance, gen.random_binary_instance))
        instances.append(make(rng, n_vars=rng.randint(3, 10)))
    seen = Counter()
    for inst in instances:
        variables = inst.variables + [Variable("z", 0.0, 1.0, True)]
        n = len(variables)
        for row in inst.rows:
            if row.sense == "=":
                continue
            expected = _knapsack_set_packing(row, MilpInstance(variables, [row]))
            assert _strengthened_clique(row, variables) == expected, row
            if expected is None:
                binary = all(inst.is_binary(j) for j, _ in row.coeffs)
                seen["rejected, continuous" if not binary else
                     "rejected, one literal" if len(row.coeffs) == 1 else
                     "rejected, binary"] += 1
                continue
            seen["accepted"] += 1
            seen["accepted, >="] += row.sense == ">="
            seen["accepted, negative"] += any(a < 0 for _, a in row.coeffs)
            seen["accepted, complemented"] += any(lit >= n for lit in expected)
            seen["accepted, not exactly unit"] += any(abs(a) != 1.0 for _, a in row.coeffs)
    assert all(seen[k] >= 100 for k in (
        "accepted", "accepted, >=", "accepted, negative", "accepted, complemented",
        "accepted, not exactly unit", "rejected, continuous", "rejected, one literal",
        "rejected, binary")), seen


def _reference_strengthen(instance, g, alpha_max=128):
    """``strengthen`` with its original dominance scan: every live row is
    checked after each extension, not only the rows filed under the
    extension's literals."""
    eligible = []
    for ri, row in enumerate(instance.rows):
        if row.sense == "=" or len(row.coeffs) > alpha_max:
            continue
        krows = normalize_to_knapsack(row, instance)
        if len(krows) != 1:
            continue
        clique = _set_packing_clique(krows[0])
        if clique is not None:
            eligible.append((ri, clique))
    alive = dict(eligible)
    extended, added, removed = {}, {}, []
    for ri, clique in eligible:
        if ri not in alive:
            continue
        ext = extend_clique(g, clique)
        if ext == clique:
            continue
        extended[ri] = ext
        added[ri] = len(ext) - len(clique)
        alive.pop(ri)
        for rj in list(alive):
            if alive[rj] <= ext:
                alive.pop(rj)
                removed.append(rj)
    taken = {row.name for row in instance.rows} | {instance.objective_name}
    new_rows = []
    for ri, row in enumerate(instance.rows):
        if ri in removed:
            continue
        if ri in extended:
            name, k = row.name + "_clqext", 2
            while name in taken:
                name, k = f"{row.name}_clqext{k}", k + 1
            taken.add(name)
            terms = [(lit, 1.0) for lit in sorted(extended[ri])]
            new_rows.append(literals_to_row(terms, 1.0, instance.n_vars, name))
        else:
            new_rows.append(row)
    result = MilpInstance(list(instance.variables), new_rows, name=instance.name,
                          objective_name=instance.objective_name)
    return StrengthenReport(sorted(added.items()), sorted(removed), result)


def _assert_matches_reference(inst, g):
    report = strengthen(inst, g)
    reference = _reference_strengthen(inst, g)
    assert report.extended == reference.extended
    assert report.removed_rows == reference.removed_rows
    assert write_mps(report.instance) == write_mps(reference.instance)
    return report


def test_strengthen_matches_full_scan_reference():
    for seed in range(20):
        for min_clq_size in (0, 4, 512):
            inst = gen.random_setpacking_instance(random.Random(seed))
            _assert_matches_reference(inst, build(inst, min_clq_size))


def test_strengthen_matches_full_scan_reference_on_pair_rows():
    # 4,000 pair rows over 400 variables: average degree 20.
    rng = random.Random(7)
    pairs = set()
    while len(pairs) < 4000:
        pairs.add(tuple(sorted(rng.sample(range(400), 2))))
    inst = MilpInstance(gen.binary_vars(400), gen.pair_rows(sorted(pairs)))
    report = _assert_matches_reference(inst, build(inst))
    assert report.extended and report.removed_rows


def _reference_extend_clique(g, clique):
    """Each common neighbor in order of its neighbor count joins if
    it conflicts with every literal accepted so far."""
    ext = set(clique)
    common = set.intersection(*(set(g.neighbors(v)) for v in ext))
    for lit in sorted(common, key=lambda v: (-len(g.neighbors(v)), v)):
        if all(g.conflicting(lit, m) for m in ext):
            ext.add(lit)
    return frozenset(ext)


def test_strengthen_across_a_stored_clique_matches_reference():
    rng = random.Random(31)
    totals = Counter()
    for _ in range(12):
        inst = gen.crossed_clique_instance(rng)[0]
        for mcs in (0, 4, 16):
            g = build(inst, mcs)
            report = _assert_matches_reference(inst, g)
            totals["extended"] += len(report.extended)
            totals["removed"] += len(report.removed_rows)
            for row in inst.rows:
                clique = _knapsack_set_packing(row, inst)
                if clique is not None:
                    assert extend_clique(g, clique) == _reference_extend_clique(g, clique)
    assert totals["extended"] >= 30 and totals["removed"] >= 10, totals


def test_strengthen_inside_a_stored_row_holds_linear_memory():
    # Extending a four-literal row inside the stored 2,000-literal row takes
    # the row whole: the graph keeps only the row's member set, not one
    # neighbor tuple per member (about k^2 entries) nor even one per seed
    # member, and a member that joins tests only the candidates outside
    # the row, not all of them (about k^2 tests).
    k = 2000
    rng = random.Random(32)
    rows = [Row("big", [(j, 1.0) for j in range(k)], "<=", 1.0)]
    rows += [Row(f"p{i}", [(j, 1.0) for j in sorted(rng.sample(range(k), 4))], "<=", 1.0)
             for i in range(20)]
    inst = MilpInstance(gen.binary_vars(k), rows)
    g = build(inst)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = strengthen(inst, g)
        extended, removed = report.extended, report.removed_rows
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert extended == [(1, k - 4)]
    assert removed == list(range(2, 21))
    # Beyond the cached member sets of stored blocks, less than one member's
    # neighbor tuple (8 bytes per entry).
    assert held < sum(map(sys.getsizeof, g._sets.values())) + 8 * k, held

    g = build(inst)
    tested = []
    conflicting_in = g._conflicting_in
    g._conflicting_in = lambda a, cands: tested.append(len(cands)) or conflicting_in(a, cands)
    assert strengthen(inst, g).extended == extended
    assert sum(tested) <= 10 * k
