import math
import random
import re
from collections import Counter

import pytest

from cgcuts import (
    FractionalPoint,
    MilpInstance,
    ParseError,
    Row,
    Variable,
    normalize_to_knapsack,
    parse_mps,
    read_point,
    write_mps,
)
from cgcuts.model import KnapsackRow, complement_node, literals_to_row, unit_knapsacks
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
    # Rows are written column by column, so only a row in column order
    # comes back as it was.
    unsorted = Row("r3", [(1, 1.0), (0, 2.0)], "<=", 1.0)
    again = parse_mps(write_mps(MilpInstance(variables, rows + [unsorted], name="MIX")))
    assert again.rows == rows + [Row("r3", [(0, 2.0), (1, 1.0)], "<=", 1.0)]


def test_parse_split_column_gives_rows_in_column_order():
    # x1's entries are split by x0's line; row s still comes out sorted by
    # column, so the parsed model writes and parses back as it was.
    text = """\
NAME SPLIT
ROWS
 N OBJ
 L r
 L s
COLUMNS
    x1 r 1.0
    x0 s 2.0
    x1 s 1.0
RHS
ENDATA
"""
    inst = parse_mps(text)
    assert [v.name for v in inst.variables] == ["x1", "x0"]
    assert inst.rows == [Row("r", [(0, 1.0)], "<=", 0.0), Row("s", [(0, 1.0), (1, 2.0)], "<=", 0.0)]
    assert parse_mps(write_mps(inst)) == inst


@pytest.mark.parametrize("change, message", [
    (dict(variables=["x 1", "x2"]), "variable name 'x 1' would not parse back"),
    (dict(variables=["x1", "*x"]), "variable name '*x' would not parse back"),
    (dict(variables=["x1", ""]), "variable name '' would not parse back"),
    (dict(row="r\t1"), "row name 'r\\t1' would not parse back"),
    (dict(objective_name="the objective"), "objective name 'the objective' would not parse back"),
    (dict(name="a b"), "model name 'a b' holds whitespace"),
    (dict(name=" "), "model name ' ' holds whitespace"),
    # The first offending name in the file's order is named.
    (dict(variables=["x 1", "x2"], row="r 1"), "row name 'r 1' would not parse back"),
])
def test_write_rejects_names_that_would_not_parse_back(change, message):
    names = change.get("variables", ["x1", "x2"])
    inst = MilpInstance([Variable(v, 0.0, 1.0, True) for v in names],
                        [Row(change.get("row", "r"), [(0, 1.0), (1, 1.0)], "<=", 1.0)],
                        name=change.get("name", "M"),
                        objective_name=change.get("objective_name", "OBJ"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_mps(inst)


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


def _reference_normalize(row, instance):
    """``normalize_to_knapsack`` as it was written before the direction
    rule was shared with ``unit_knapsacks``."""
    if not all(instance.is_binary(j) for j, _ in row.coeffs):
        return []
    n = instance.n_vars
    if row.sense == "<=":
        directions = [(row.coeffs, row.rhs)]
    elif row.sense == ">=":
        directions = [([(j, -a) for j, a in row.coeffs], -row.rhs)]
    else:
        directions = [(row.coeffs, row.rhs), ([(j, -a) for j, a in row.coeffs], -row.rhs)]
    out = []
    for coeffs, rhs in directions:
        lits = []
        b = rhs
        for j, a in coeffs:
            if a > 0:
                lits.append((j, a))
            else:
                lits.append((j + n, -a))
                b += -a
        out.append(KnapsackRow(lits, b))
    return out


def _reference_unit_knapsacks(row, instance):
    """``unit_knapsacks`` as it was written before the direction rule was
    shared with ``normalize_to_knapsack``."""
    n = instance.n_vars
    lits = []
    for j, a in row.coeffs:
        if not instance.is_binary(j):
            return None
        if a == 1.0:
            lits.append(j)
        elif a == -1.0:
            lits.append(j + n)
        else:
            return None
    out = []
    if row.sense != ">=":
        b = row.rhs
        for v in lits:
            if v >= n:
                b += 1.0
        out.append((sorted(lits), b))
    if row.sense != "<=":
        b = -row.rhs
        for v in lits:
            if v < n:
                b += 1.0
        out.append((sorted([v - n if v >= n else v + n for v in lits]), b))
    return out


def test_knapsack_directions_match_the_reference_readers():
    # At 1e16 one unit is half an ulp, so each addition to the rhs rounds:
    # another order of additions gives another rhs.  -0.0 and 0.0 differ
    # in repr, and the >= direction negates them.
    rng = random.Random(33)
    magnitudes = [1.0, 1.0 + 1e-9, 1.0 - 1e-9, 0.5, 2.0, 3.7]
    n = 8
    variables = gen.binary_vars(n - 1) + [Variable("y", 0.0, 4.0, True)]  # y is not binary
    seen = Counter()
    for i in range(3000):
        unit = rng.random() < 0.4
        cols = rng.sample(range(n - 1 if rng.random() < 0.8 else n), rng.randint(0, 6))
        coeffs = [(j, rng.choice([1.0, -1.0]) * (1.0 if unit else rng.choice(magnitudes)))
                  for j in cols]
        rhs = rng.choice([-0.0, 0.0, 1.0, math.inf, -math.inf, 1e16])
        sense = rng.choice(["<=", ">=", "="])
        row = Row(f"r{i}", coeffs, sense, rhs)
        inst = MilpInstance(variables, [row])
        krows = _reference_normalize(row, inst)
        got = normalize_to_knapsack(row, inst)
        assert got == krows and [repr(k.rhs) for k in got] == [repr(k.rhs) for k in krows], row
        units = _reference_unit_knapsacks(row, inst)
        got = unit_knapsacks(row, inst)
        assert got == units, row
        if units is not None:
            assert [repr(b) for _, b in got] == [repr(b) for _, b in units], row
        seen[sense] += 1
        seen[f"rhs {rhs!r}"] += 1
        seen["unit"] += units is not None and len(coeffs) > 1
        seen["non-binary"] += (n - 1) in cols
        # The rhs differs from its start plus its additions summed first.
        starts = {"<=": [rhs], ">=": [-rhs], "=": [rhs, -rhs]}[sense]
        seen["rounded"] += any(k.rhs != b + math.fsum([a for v, a in k.literals if v >= n])
                               for k, b in zip(krows, starts))
    assert all(seen[k] >= 50 for k in
               ("<=", ">=", "=", "rhs -0.0", "rhs 0.0", "rhs 1.0", "rhs inf", "rhs -inf",
                "rhs 1e+16", "unit", "non-binary", "rounded")), seen


BOUND_FORMS_MPS = """\
NAME FORMS
ROWS
 N OBJ
 L rb
 L ru
 L rf0
 L rf1
 L ru2
 L rc
 L rmi
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    b rb 1.0 ru 1.0
    b rf0 1.0 rf1 1.0
    b ru2 1.0 rc 1.0
    b rmi 1.0
    u ru 1.0
    f0 rf0 1.0
    f1 rf1 1.0
    u2 ru2 1.0
    mi rmi 1.0
    MARKER                 'MARKER'                 'INTEND'
    c rc 1.0
RHS
    RHS rb 1.0 ru 1.0
BOUNDS
 BV BND b
 UP BND u 1
 FX BND f0 0
 FX BND f1 1
 UP BND u2 2
 UP BND c 1
 MI BND mi
ENDATA
"""


def test_binarity_per_bound_form():
    # Only BV and an integer column with UP 1 are binary.
    inst = parse_mps(BOUND_FORMS_MPS)
    binary = {v.name for v in inst.variables if v.is_binary}
    assert binary == {"b", "u"}
    for j, v in enumerate(inst.variables):
        assert inst.is_binary(j) == v.is_binary
    assert inst.binary_indices() == [inst.index_of("b"), inst.index_of("u")]
    for row in inst.rows:
        touches_non_binary = any(inst.variables[j].name not in binary for j, _ in row.coeffs)
        assert (normalize_to_knapsack(row, inst) == []) == touches_non_binary, row.name


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
    assert p.lit_value(0, 2) == 0.5
    assert p.lit_value(1, 2) == 0.0  # missing binaries default to zero
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
    assert all(p.lit_value(j, 10) == v for j, v in values.items())


def test_fractional_point_validates():
    with pytest.raises(ValueError):
        FractionalPoint({0: 1.5})
    p = FractionalPoint({0: 0.25})
    assert p.lit_value(0, 1) == 0.25
    assert p.lit_value(1, 1) == 0.75


def test_literal_values_match_lit_value():
    # Missing variables read 0; values just outside [0, 1] are clamped.
    rng = random.Random(9)
    points = [FractionalPoint({0: 0.3, 2: 1.0 + 1e-9, 3: -1e-9, 5: 0.1 + 0.2, 6: 1.0})]
    points += [FractionalPoint({j: rng.random() for j in range(8) if rng.random() < 0.7})
               for _ in range(20)]
    n = 8
    for p in points:
        got = p.literal_values(n)
        assert len(got) == 2 * n
        for v in range(2 * n):
            assert got[v] == p.lit_value(v, n)
    assert points[0].literal_values(n)[2:4] == [1.0, 0.0]
    assert points[0].literal_values(n)[1 + n] == 1.0
    assert FractionalPoint({}).literal_values(0) == []


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


def _edit(old, new):
    text = MINIMAL_MPS.replace(old, new)
    assert text != MINIMAL_MPS
    return text


_INTEND = "    MARKER                 'MARKER'                 'INTEND'"


@pytest.mark.parametrize("text, message", [
    (_edit(" L c1", " L c1 extra"), "line 4: ROWS line must be '<sense> <name>'"),
    (_edit("    x2 c1 1.0", "    x2 c1"),
     "line 8: COLUMNS line must be '<col> (<row> <value>)+'"),
    (_edit("    RHS c1 1.0", "    RHS c1"), "line 11: RHS line must be '<set> (<row> <value>)+'"),
    (_edit(" BV BND x2", " BV BND"), "line 14: BOUNDS line must be '<type> <set> <col> [value]'"),
    (_edit(" L c1", " X c1"), "line 4: unknown row sense 'X'"),
    (_edit(_INTEND, "    MARKER 'MARKER' 'INTFOO'"), "line 9: marker line without INTORG/INTEND"),
    (_edit("    x2 c1 1.0", "    x2 nosuch 1.0"), "line 8: unknown row 'nosuch'"),
    (_edit("    RHS c1 1.0", "    RHS nosuch 1.0"), "line 11: unknown row 'nosuch'"),
    (_edit("    x2 c1 1.0", "    x2 c1 1.0 c1 0.0"),
     "line 8: duplicate entry for column 'x2' in row 'c1'"),
    (_edit("    x2 c1 1.0", "    x2 OBJ 0.0\n    x2 c1 1.0 OBJ 2.0"),
     "line 9: duplicate entry for column 'x2' in row 'OBJ'"),
    (_edit("    RHS c1 1.0", "    RHS c1 1.0 c1 2.0"), "line 11: duplicate rhs for row 'c1'"),
    (_edit(" BV BND x2", " BV BND zz"), "line 14: unknown column 'zz'"),
    (_edit(" BV BND x2", " FX BND x2"), "line 14: bound type FX needs a value"),
    (_edit(" BV BND x2", " PL BND x2"), "line 14: unsupported bound type 'PL'"),
    (_edit("    x2 c1 1.0", "    x2 c1 1.0x"), "line 8: bad numeric value '1.0x'"),
    (_edit("    x2 c1 1.0", "    x2 c1 inf"),
     "line 8: infinite coefficient 'inf' for column 'x2' in row 'c1'"),
    (_edit("    x2 c1 1.0", "    x2 OBJ 1.0 c1 -inf"),
     "line 8: infinite coefficient '-inf' for column 'x2' in row 'c1'"),
    (_edit(" BV BND x2", " UP BND x2 -1"),
     "line 14: column 'x2': lower bound 0.0 > upper bound -1.0"),
    (_edit(" BV BND x2", " UP BND x2 -1\n BV BND x1\n LO BND x2 0.5"),
     "line 16: column 'x2': lower bound 0.5 > upper bound -1.0"),
    ("NAME X\n L c1\nENDATA\n", "line 2: data line before any section header"),
    ("NAME X\nROWS\n N OBJ\nSOS\nENDATA\n", "line 4: unsupported section SOS"),
    ("NAME X\nOBJSENSE\n    MAX\nENDATA\n", "line 2: unsupported section OBJSENSE"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_mps(text)
    assert str(exc.value) == message


BOUNDS_MPS = """\
NAME B
ROWS
 N COST
 N FREE
 G g1
COLUMNS
    u COST 1.5 g1 1.0
    l g1 2.0 FREE 7.0
    f g1 0.0
    b COST -1.0
    m g1 -1.0
    fm g1 1.0
RHS
    RHS COST 9.0 g1 -3.0
    RHS FREE 4.0
BOUNDS
 UP BND u 4.0
 LO BND l -2.5
 FX BND f 3.0
 BV BND b
 MI BND m
 FX BND fm 5.0
 MI BND fm
ENDATA
"""


def test_parse_bounds_objective_and_free_rows():
    # An RHS on an N row and the entries of a second N row are ignored;
    # zero entries are dropped; MI after FX keeps the upper bound.
    inst = parse_mps(BOUNDS_MPS)
    assert inst == MilpInstance(
        [Variable("u", 0.0, 4.0, False, 1.5),
         Variable("l", -2.5, math.inf),
         Variable("f", 3.0, 3.0),
         Variable("b", 0.0, 1.0, True, -1.0),
         Variable("m", -math.inf, math.inf),
         Variable("fm", -math.inf, 5.0)],
        [Row("g1", [(0, 1.0), (1, 2.0), (4, -1.0), (5, 1.0)], ">=", -3.0)],
        name="B", objective_name="COST")


def test_parse_accepts_infinite_objective_and_uncrossed_bounds():
    # Bounds may cross between BOUNDS lines; only the final pair must not.
    text = _edit("    x2 c1 1.0", "    x2 OBJ inf c1 1.0").replace(
        " BV BND x2", " UP BND x2 -1\n LO BND x2 -2")
    inst = parse_mps(text)
    assert inst.variables[1] == Variable("x2", -2.0, -1.0, True, math.inf)


def test_missing_objective_takes_a_free_name():
    rows = " L c1\n"
    for taken, expected in ((" L OBJ\n", "OBJ2"), (" L OBJ\n L OBJ2\n", "OBJ3"),
                            (" L OBJ3\n", "OBJ"), (" L OBJ\n L OBJ3\n", "OBJ2")):
        text = MINIMAL_MPS.replace(" N OBJ\n L c1\n", rows + taken)
        inst = parse_mps(text)
        assert inst.objective_name == expected
        assert parse_mps(write_mps(inst)) == inst


def test_instance_rejects_row_named_like_objective():
    with pytest.raises(ValueError, match="objective"):
        MilpInstance(gen.binary_vars(1), [Row("OBJ", [(0, 1.0)], "<=", 1.0)])
    with pytest.raises(ValueError, match="objective"):
        MilpInstance(gen.binary_vars(1), [Row("c", [(0, 1.0)], "<=", 1.0)],
                     objective_name="c")


# --------------------------------------------------------------------------
# Line forms the parser accepts, and what it makes of them


_MINIMAL = parse_mps(MINIMAL_MPS)


def test_parse_skips_whitespace_only_lines():
    text = MINIMAL_MPS.replace("    x2 c1 1.0", " \t \n\n    x2 c1 1.0").replace(
        "ENDATA", "   \nENDATA")
    assert parse_mps(text) == _MINIMAL
    # Skipped lines still count: the unknown row is on line 10.
    with pytest.raises(ParseError, match=r"^line 10: unknown row 'zz'$"):
        parse_mps(text.replace("    x2 c1 1.0", "    x2 zz 1.0"))


def test_parse_tab_separators():
    text = ("NAME\tTAB\nROWS\n\tN\tOBJ\n\tL\tc1\nCOLUMNS\n\tx\tc1\t2.5\tOBJ\t1\n"
            "RHS\n\tRHS\tc1\t3\nBOUNDS\n\tUP\tBND\tx\t4\nENDATA\n")
    assert parse_mps(text) == MilpInstance(
        [Variable("x", 0.0, 4.0, False, 1.0)], [Row("c1", [(0, 2.5)], "<=", 3.0)],
        name="TAB")
    assert parse_mps(MINIMAL_MPS.replace("    x2 c1 1.0", "\tx2\t c1 \t1.0\t")) == _MINIMAL


def test_parse_comment_lines_in_column_one_and_indented():
    text = ("* first\n" + MINIMAL_MPS).replace(
        "    x2 c1 1.0", "*x2 c1 1.0\n    * x2 c1 2.0\n\t*\n    x2 c1 1.0").replace(
        "BOUNDS", "* BOUNDS\nBOUNDS")
    assert parse_mps(text) == _MINIMAL
    with pytest.raises(ParseError, match=r"^line 12: unknown row 'zz'$"):
        parse_mps(text.replace("    x2 c1 1.0", "    x2 zz 1.0"))
    # A '*' inside a data line starts no comment.
    with pytest.raises(ParseError, match=r"^line 8: bad numeric value 'note'$"):
        parse_mps(MINIMAL_MPS.replace("    x2 c1 1.0", "    x2 c1 1.0 * note"))


def test_parse_crlf_line_endings():
    assert parse_mps(MINIMAL_MPS.replace("\n", "\r\n")) == _MINIMAL
    bad = MINIMAL_MPS.replace("    x2 c1 1.0", "    x2 zz 1.0").replace("\n", "\r\n")
    with pytest.raises(ParseError, match=r"^line 8: unknown row 'zz'$"):
        parse_mps(bad)


def test_parse_ignores_text_after_endata():
    text = MINIMAL_MPS + "garbage after the end\n    x9 nosuch nan\nROWZ\n"
    assert parse_mps(text) == _MINIMAL
    assert parse_mps(MINIMAL_MPS.rstrip("\n")) == _MINIMAL


def test_parse_lowercase_senses_bound_codes_and_headers():
    text = (MINIMAL_MPS.replace(" N OBJ", " n OBJ").replace(" L c1", " g c1")
            .replace(" BV BND x2", " up BND x2 1").replace("ROWS", "rows")
            .replace("ENDATA", "endata"))
    inst = parse_mps(text)
    assert inst.rows == [Row("c1", [(0, 1.0), (1, 1.0)], ">=", 1.0)]
    assert inst.variables == _MINIMAL.variables
    text = MINIMAL_MPS.replace("ENDATA", " bv BND x1\n fx BND x2 2\n lo BND x2 1\n mi BND x1\nENDATA")
    assert [(v.lower, v.upper) for v in parse_mps(text).variables] == [
        (-math.inf, 1.0), (1.0, 2.0)]
    # Messages quote the token as written, but name a bound type upper-cased.
    for old, new, message in (
            (" L c1", " x c1", "line 4: unknown row sense 'x'"),
            (" BV BND x2", " pl BND x2", "line 14: unsupported bound type 'pl'"),
            (" BV BND x2", " fx BND x2", "line 14: bound type FX needs a value"),
            ("BOUNDS", "ranges", "line 12: unsupported section RANGES")):
        with pytest.raises(ParseError) as exc:
            parse_mps(_edit(old, new))
        assert str(exc.value) == message


def test_parse_marker_line_is_named_by_its_second_token():
    # A line is a marker line iff its second token is 'MARKER'; 'INTORG' or
    # 'INTEND' may be any other token.
    text = MINIMAL_MPS.replace(
        "    MARKER                 'MARKER'                 'INTORG'",
        "    'INTORG' 'MARKER'").replace(_INTEND, "    M 'MARKER' 'INTEND'")
    assert parse_mps(text) == _MINIMAL
    with pytest.raises(ParseError, match=r"^line 7: marker line without INTORG/INTEND$"):
        parse_mps(MINIMAL_MPS.replace("    x1 c1 1.0", "    x1 'MARKER' 1.0"))
    # Any other line holding 'MARKER' is a data line and fails as one,
    # rather than toggling integer mode and dropping its entries.
    for line, message in [("    x3 OBJ 1.0 'MARKER' 'INTEND'", "bad numeric value \"'INTEND'\""),
                          ("    'MARKER' M 'INTEND'", "bad numeric value \"'INTEND'\""),
                          ("    x3 c1 1.0 'MARKER' 1.0", "unknown row \"'MARKER'\"")]:
        with pytest.raises(ParseError) as exc:
            parse_mps(MINIMAL_MPS.replace(_INTEND, line + "\n" + _INTEND))
        assert str(exc.value) == f"line 9: {message}"


def test_parse_five_token_columns_and_rhs_lines():
    text = ("NAME FIVE\nROWS\n N OBJ\n L a\n G b\nCOLUMNS\n"
            "    x a 1.0 b 2.0\n    y OBJ 3.0 a -1.0\n    y b 4.0\n"
            "RHS\n    RHS a 5.0 b 6.0\n    RHS OBJ 7.0 a 8.0\nENDATA\n")
    # A line's second pair is read after its first, and the objective's
    # rhs is ignored without counting as a duplicate; a's second rhs is one.
    with pytest.raises(ParseError, match=r"^line 12: duplicate rhs for row 'a'$"):
        parse_mps(text)
    inst = parse_mps(text.replace(" a 8.0", ""))
    assert inst == MilpInstance(
        [Variable("x"), Variable("y", objective_coeff=3.0)],
        [Row("a", [(0, 1.0), (1, -1.0)], "<=", 5.0), Row("b", [(0, 2.0), (1, 4.0)], ">=", 6.0)],
        name="FIVE")
    for line, message in (
            ("    x a 1.0 b", "line 7: COLUMNS line must be '<col> (<row> <value>)+'"),
            ("    x a 1.0 b 2.0 OBJ 1.0",
             "line 7: COLUMNS line must be '<col> (<row> <value>)+'"),
            ("    x a 1.0 zz 2.0", "line 7: unknown row 'zz'"),
            ("    x zz 1.0 b 2.0x", "line 7: unknown row 'zz'"),
            ("    x a 1.0 zz 2.0x", "line 7: bad numeric value '2.0x'"),
            ("    x a 1.0 b nan", "line 7: NaN value 'nan'"),
            ("    x a 1.0 b -inf", "line 7: infinite coefficient '-inf' for column 'x' in row 'b'"),
            ("    x a 1.0 a 2.0", "line 7: duplicate entry for column 'x' in row 'a'")):
        with pytest.raises(ParseError) as exc:
            parse_mps(text.replace("    x a 1.0 b 2.0", line))
        assert str(exc.value) == message
    for line, message in (
            ("    RHS a 5.0 b", "line 11: RHS line must be '<set> (<row> <value>)+'"),
            ("    RHS a 5.0 zz 6.0", "line 11: unknown row 'zz'"),
            ("    RHS a 5.0 b x", "line 11: bad numeric value 'x'")):
        with pytest.raises(ParseError) as exc:
            parse_mps(text.replace("    RHS a 5.0 b 6.0", line))
        assert str(exc.value) == message


# --------------------------------------------------------------------------
# Construction messages of Row and MilpInstance


@pytest.mark.parametrize("coeffs, sense, message", [
    ([(0, 1.0)], "<", "row r: bad sense '<'"),
    ([(0, 1.0)], "L", "row r: bad sense 'L'"),
    ([(0, 1.0), (2, 1.0), (0, 2.0)], "<=", "row r: duplicate variable index 0"),
    ([(1, 1.0), (0, 0.0), (1, 2.0)], "<=", "row r: coefficient 0.0 on index 0"),
    ([(0, 1.0), (1, -0.0)], ">=", "row r: coefficient -0.0 on index 1"),
    ([(0, math.inf)], "=", "row r: coefficient inf on index 0"),
    ([(3, 1.0), (0, -math.inf)], "<=", "row r: coefficient -inf on index 0"),
    ([(0, math.nan)], "<=", "row r: coefficient nan on index 0"),
    # The first offending entry is named, whichever check it fails.
    ([(0, 1.0), (0, math.nan)], "<=", "row r: duplicate variable index 0"),
    ([(0, math.nan), (0, 1.0)], "<=", "row r: coefficient nan on index 0"),
])
def test_row_construction_messages(coeffs, sense, message):
    with pytest.raises(ValueError) as exc:
        Row("r", coeffs, sense, 1.0)
    assert str(exc.value) == message


@pytest.mark.parametrize("names, rows, message", [
    (["x1", "x2", "x1"], [], "duplicate variable name x1"),
    (["x1", "x2"], [Row("r", [(0, 1.0)], "<=", 1.0), Row("s", [(1, 1.0)], "<=", 1.0),
                    Row("r", [(1, 1.0)], ">=", 0.0)], "duplicate row name r"),
    (["x1", "x2"], [Row("r", [(0, 1.0), (2, 1.0)], "<=", 1.0)],
     "row r: variable index 2 out of range"),
    (["x1", "x2"], [Row("r", [(0, 1.0)], "<=", 1.0), Row("s", [(-1, 1.0), (5, 1.0)], "<=", 1.0)],
     "row s: variable index -1 out of range"),
    # Names are checked before rows, and each row before the next.
    (["x", "x"], [Row("r", [(7, 1.0)], "<=", 1.0)], "duplicate variable name x"),
    (["x"], [Row("r", [(7, 1.0)], "<=", 1.0), Row("r", [(0, 1.0)], "<=", 1.0)],
     "row r: variable index 7 out of range"),
    (["x"], [Row("r", [(0, 1.0)], "<=", 1.0), Row("r", [(7, 1.0)], "<=", 1.0)],
     "duplicate row name r"),
])
def test_instance_construction_messages(names, rows, message):
    with pytest.raises(ValueError) as exc:
        MilpInstance([Variable(name) for name in names], rows)
    assert str(exc.value) == message


def test_write_rejects_a_row_or_objective_named_marker():
    one_row = MilpInstance([Variable("x", 0.0, 1.0, True)], [Row("'MARKER'", [(0, 1.0)], "<=", 1.0)])
    for inst, message in [
            (one_row, "row name \"'MARKER'\" would not parse back"),
            (parse_mps(gen.MARKER_ROW_MPS), "row name \"'MARKER'\" would not parse back"),
            (parse_mps(gen.MARKER_OBJECTIVE_MPS), "objective name \"'MARKER'\" would not parse back")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_mps(inst)
    # A column may hold the name: its lines' second token is a row's name.
    inst = MilpInstance([Variable("'MARKER'", 0.0, 1.0, True)], [Row("r", [(0, 1.0)], "<=", 1.0)])
    assert parse_mps(write_mps(inst)) == inst


def test_parsed_model_equals_its_checked_construction():
    """``parse_mps`` makes its rows and instance with no second check; they
    equal the ones ``Row`` and ``MilpInstance`` make with theirs."""
    rng = random.Random(17)
    texts = [MINIMAL_MPS, gen.MARKER_OBJECTIVE_MPS]
    texts += [write_mps(gen.random_binary_instance(rng, guard_fixings=False)) for _ in range(20)]
    for text in texts:
        inst = parse_mps(text)
        checked = MilpInstance(list(inst.variables),
                               [Row(r.name, list(r.coeffs), r.sense, r.rhs) for r in inst.rows],
                               name=inst.name, objective_name=inst.objective_name)
        assert inst == checked
        assert all(type(r) is Row for r in inst.rows)
        assert inst._index == checked._index and inst._binary == checked._binary
