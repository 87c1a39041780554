import math
import random

import pytest

from cgcuts import (
    FractionalPoint,
    MilpInstance,
    ParseError,
    Row,
    Variable,
    complement_node,
    literals_to_row,
    normalize_to_knapsack,
    parse_mps,
    read_point,
    write_mps,
)
import gen

MINIMAL_MPS = """\
NAME MINI
ROWS
 N OBJ
 L c1
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    x1 c1 1.0
    x2 c1 1.0
    MARKER                 'MARKER'                 'INTEND'
RHS
    RHS c1 1.0
BOUNDS
 BV BND x1
 BV BND x2
ENDATA
"""


def test_parse_minimal():
    inst = parse_mps(MINIMAL_MPS)
    assert inst.name == "MINI"
    assert [v.name for v in inst.variables] == ["x1", "x2"]
    assert all(v.is_binary for v in inst.variables)
    assert len(inst.rows) == 1
    row = inst.rows[0]
    assert row.sense == "<=" and row.rhs == 1.0
    assert row.coeffs == [(0, 1.0), (1, 1.0)]


def test_parse_unknown_row_names_line():
    bad = MINIMAL_MPS.replace("    x2 c1 1.0", "    x2 nosuch 1.0")
    with pytest.raises(ParseError) as exc:
        parse_mps(bad)
    assert "line 8" in str(exc.value)
    assert "nosuch" in str(exc.value)


def test_parse_duplicate_row_name():
    bad = MINIMAL_MPS.replace(" L c1", " L c1\n L c1")
    with pytest.raises(ParseError, match="duplicate row"):
        parse_mps(bad)


def test_parse_malformed_header():
    with pytest.raises(ParseError, match="unknown section"):
        parse_mps("NAME X\nROWZ\nENDATA\n")


def test_parse_missing_endata():
    with pytest.raises(ParseError, match="ENDATA"):
        parse_mps("NAME X\nROWS\n N OBJ\n")


def test_parse_ranges_rejected():
    with pytest.raises(ParseError, match="RANGES"):
        parse_mps("NAME X\nROWS\n N OBJ\nRANGES\nENDATA\n")


def _assert_nan_rejected(old, new, lineno):
    bad = MINIMAL_MPS.replace(old, new)
    assert bad != MINIMAL_MPS
    with pytest.raises(ParseError, match=f"^line {lineno}: NaN value 'nan'$"):
        parse_mps(bad)


def test_parse_rejects_nan_in_columns():
    _assert_nan_rejected("    x2 c1 1.0", "    x2 c1 nan", 8)


def test_parse_rejects_nan_in_rhs():
    # x1 + x2 <= nan once parsed, and read as a set-packing row.
    _assert_nan_rejected("    RHS c1 1.0", "    RHS c1 nan", 11)


def test_parse_rejects_nan_in_bounds():
    # UP nan once turned binary x2 into a general integer.
    _assert_nan_rejected(" BV BND x2", " UP BND x2 nan", 14)


def test_parse_accepts_infinite_rhs():
    inst = parse_mps(MINIMAL_MPS.replace("    RHS c1 1.0", "    RHS c1 -inf"))
    assert inst.rows[0].rhs == -math.inf


def test_roundtrip_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        first = parse_mps(write_mps(gen.random_binary_instance(rng, guard_fixings=False)))
        again = parse_mps(write_mps(first))
        assert again == first


def test_roundtrip_mixed_variable_kinds():
    variables = [
        Variable("b", 0.0, 1.0, True, objective_coeff=2.5),
        Variable("i", 0.0, 7.0, True),
        Variable("c", -1.5, math.inf, False),
        Variable("f", 3.0, 3.0, False),
        Variable("m", -math.inf, 4.0, False),
        Variable("lonely", 0.0, math.inf, False),
    ]
    rows = [Row("r1", [(0, 1.0), (1, -2.0), (2, 0.5)], "<=", 4.0),
            Row("r2", [(0, 1.0), (4, 1.0)], "=", 1.0)]
    inst = MilpInstance(variables, rows, name="MIX")
    assert parse_mps(write_mps(inst)) == inst


def test_normalize_mixed_sign_row():
    inst = gen.knapsack_example_instance()
    n = inst.n_vars
    [k] = normalize_to_knapsack(inst.rows[0], inst)
    assert k.rhs == 10.0
    assert k.literals == [(0 + n, 3.0), (1, 4.0), (2 + n, 5.0), (3, 6.0), (4, 7.0), (5, 8.0)]


def test_normalize_ge_row():
    inst = gen.knapsack_example_instance()
    n = inst.n_vars
    [k] = normalize_to_knapsack(inst.rows[1], inst)
    assert k.rhs == 2.0
    assert k.literals == [(0 + n, 1.0), (1 + n, 1.0), (2 + n, 1.0)]


def test_normalize_identity():
    inst = gen.triangle_instance()
    [k] = normalize_to_knapsack(inst.rows[0], inst)
    assert k.literals == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert k.rhs == 1.0


def test_normalize_equality_gives_two_rows():
    inst = MilpInstance(gen.binary_vars(2), [Row("e", [(0, 1.0), (1, 1.0)], "=", 1.0)])
    ks = normalize_to_knapsack(inst.rows[0], inst)
    assert len(ks) == 2
    assert ks[0].literals == [(0, 1.0), (1, 1.0)] and ks[0].rhs == 1.0
    assert ks[1].literals == [(2, 1.0), (3, 1.0)] and ks[1].rhs == 1.0


def test_normalize_skips_non_binary():
    variables = [Variable("x", 0.0, 1.0, True), Variable("y", 0.0, 5.0, True)]
    inst = MilpInstance(variables, [Row("r", [(0, 1.0), (1, 1.0)], "<=", 3.0)])
    assert normalize_to_knapsack(inst.rows[0], inst) == []


def _eval_row(row, point):
    lhs = sum(a * point[j] for j, a in row.coeffs)
    if row.sense == "<=":
        return lhs <= row.rhs + 1e-9
    if row.sense == ">=":
        return lhs >= row.rhs - 1e-9
    return abs(lhs - row.rhs) <= 1e-9


def _eval_knapsack(k, point, n):
    lhs = 0.0
    for node, a in k.literals:
        v = point[node - n] if node >= n else point[node]
        lhs += a * (1 - v if node >= n else v)
    return lhs <= k.rhs + 1e-9


def test_normalization_soundness_exhaustive():
    """Every 0/1 point satisfies the row iff it satisfies all knapsack forms."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        inst = gen.random_binary_instance(rng, n_vars=n, n_rows=1, guard_fixings=False)
        row = inst.rows[0]
        ks = normalize_to_knapsack(row, inst)
        for bits in range(1 << n):
            point = [(bits >> j) & 1 for j in range(n)]
            assert _eval_row(row, point) == all(_eval_knapsack(k, point, n) for k in ks)


def test_complement_involution():
    n = 9
    for node in range(2 * n):
        assert complement_node(complement_node(node, n), n) == node


def test_read_point_basic():
    inst = parse_mps(MINIMAL_MPS)
    p = read_point("x1 0.5\n", inst)
    assert p.var_value(0) == 0.5
    assert p.var_value(1) == 0.0  # missing binaries default to zero
    assert p.reduced_costs is None


def test_read_point_reduced_costs_and_comments():
    inst = parse_mps(MINIMAL_MPS)
    p = read_point("# header\nx1 0.5 -1.25\nx2 1.0  # trailing\n", inst)
    assert p.reduced_costs == {0: -1.25}
    assert p.lit_reduced_cost(0, 2) == -1.25
    assert p.lit_reduced_cost(0 + 2, 2) == 1.25  # complement flips the sign


def test_read_point_range_error():
    inst = parse_mps(MINIMAL_MPS)
    with pytest.raises(ParseError, match="outside"):
        read_point("x1 1.2\n", inst)


def test_read_point_rejects_nan():
    inst = parse_mps(MINIMAL_MPS)
    for text in ("x1 nan\n", "x1 NaN 1.0\n", "x2 0.5\nx1 0.5 nan\n"):
        with pytest.raises(ParseError, match="NaN for variable 'x1'") as exc:
            read_point(text, inst)
        assert f"line {text.count(chr(10))}" in str(exc.value)


def test_read_point_unknown_name():
    inst = parse_mps(MINIMAL_MPS)
    with pytest.raises(ParseError) as exc:
        read_point("x1 0.5\nzz 0.1\n", inst)
    assert "line 2" in str(exc.value)


def test_read_point_roundtrip():
    rng = random.Random(5)
    inst = gen.random_binary_instance(rng, n_vars=10)
    values = {j: round(rng.random(), 6) for j in range(10)}
    text = "\n".join(f"{inst.variables[j].name} {v}" for j, v in values.items())
    p = read_point(text, inst)
    assert all(p.var_value(j) == v for j, v in values.items())


def test_fractional_point_validates():
    with pytest.raises(ValueError):
        FractionalPoint({0: 1.5})
    p = FractionalPoint({0: 0.25})
    assert p.lit_value(0, 1) == 0.25
    assert p.lit_value(1, 1) == 0.75


def test_fractional_point_rejects_nan():
    with pytest.raises(ValueError, match="outside"):
        FractionalPoint({0: math.nan})
    with pytest.raises(ValueError, match="NaN"):
        FractionalPoint({0: 0.5}, {0: math.nan})


def test_literals_to_row_merges_complement_pairs():
    # x + !x + y <= 1 collapses to y <= 0
    row = literals_to_row([(0, 1.0), (3, 1.0), (1, 1.0)], 1.0, 3, "r")
    assert row.coeffs == [(1, 1.0)]
    assert row.rhs == 0.0
