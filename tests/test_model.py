import math
import random

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
from cgcuts.model import complement_node, literals_to_row
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
