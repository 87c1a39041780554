"""A differential test of ``parse_mps`` against a reference copy.

``_reference_parse_mps`` is the parser before its line loop was rewritten
for speed.  On every input, both must give the same model (compared by its
``write_mps`` text) or fail with the same message on the same line.  The
inputs are the seeded mutants of ``test_cli_mutation``, the same mutants
with their line forms varied (tabs, CRLF, blank and comment lines, lower
case), and unmutated ``gen`` instances.  The last tests pin the line
breaks that ``parse_mps`` and ``read_point`` accept.
"""

import math
import random

import pytest

from cgcuts import MilpInstance, ParseError, Row, Variable, parse_mps, read_point, write_mps

import gen
from test_cli_mutation import KEYWORDS, NUMBERS, _base_models, _mutate

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE", "SOS"}
_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}


def _reference_parse_mps(text: str) -> MilpInstance:
    """``parse_mps`` as it was before its line loop was rewritten for speed:
    a blank or comment test before the split, two lookups per row name,
    and entry pairs read through ``zip`` over two slices.

    The objective is the first N row; without one it is named ``OBJ``, or
    the smallest free ``OBJ<k>`` (k >= 2) when a row is already named so.
    Errors (unknown references, duplicate names, malformed sections, an
    infinite coefficient in a constraint row, bounds that still cross after
    the last BOUNDS line) raise :class:`ParseError` naming the line.  An
    infinite objective coefficient or rhs is accepted.
    """
    lines = text.splitlines()
    section = None
    name = ""
    objective_name: str | None = None
    # row name -> [sense (None for an N row), {column index: value}, rhs or None]
    rows: dict[str, list] = {}
    # column name -> [index, integer, lower, upper, last BOUNDS line or 0]
    cols: dict[str, list] = {}
    integer_mode = False

    def number(tok: str, lineno: int) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(lineno, f"bad numeric value {tok!r}") from None
        if math.isnan(value):
            raise ParseError(lineno, f"NaN value {tok!r}")
        return value

    for lineno, raw in enumerate(lines, 1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tokens = raw.split()
        if not raw[0].isspace():
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise ParseError(lineno, f"unknown section header {tokens[0]!r}")
            if head in ("RANGES", "SOS", "OBJSENSE"):
                raise ParseError(lineno, f"unsupported section {head}")
            if head == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
            elif head == "ENDATA":
                break
            else:
                section = head
        elif section == "ROWS":
            if len(tokens) != 2:
                raise ParseError(lineno, "ROWS line must be '<sense> <name>'")
            sense, rname = tokens[0].upper(), tokens[1]
            if rname in rows:
                raise ParseError(lineno, f"duplicate row name {rname!r}")
            if sense != "N" and sense not in _MPS_SENSE:
                raise ParseError(lineno, f"unknown row sense {tokens[0]!r}")
            if sense == "N" and objective_name is None:
                objective_name = rname
            rows[rname] = [_MPS_SENSE.get(sense), {}, None]
        elif section == "COLUMNS":
            if len(tokens) > 1 and tokens[1] == "'MARKER'":
                if "'INTORG'" in tokens:
                    integer_mode = True
                elif "'INTEND'" in tokens:
                    integer_mode = False
                else:
                    raise ParseError(lineno, "marker line without INTORG/INTEND")
                continue
            if len(tokens) not in (3, 5):
                raise ParseError(lineno, "COLUMNS line must be '<col> (<row> <value>)+'")
            j = cols.setdefault(tokens[0], [len(cols), integer_mode, 0.0, math.inf, 0])[0]
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                value = number(vtok, lineno)
                if rname not in rows:
                    raise ParseError(lineno, f"unknown row {rname!r}")
                sense, entries, _ = rows[rname]
                if sense is not None and math.isinf(value):
                    raise ParseError(lineno, f"infinite coefficient {vtok!r} for column "
                                             f"{tokens[0]!r} in row {rname!r}")
                if j in entries:
                    raise ParseError(lineno, f"duplicate entry for column {tokens[0]!r} "
                                             f"in row {rname!r}")
                entries[j] = value
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                raise ParseError(lineno, "RHS line must be '<set> (<row> <value>)+'")
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                value = number(vtok, lineno)
                if rname not in rows:
                    raise ParseError(lineno, f"unknown row {rname!r}")
                row = rows[rname]
                if row[0] is None:
                    continue
                if row[2] is not None:
                    raise ParseError(lineno, f"duplicate rhs for row {rname!r}")
                row[2] = value
        elif section == "BOUNDS":
            if len(tokens) < 3:
                raise ParseError(lineno, "BOUNDS line must be '<type> <set> <col> [value]'")
            btype = tokens[0].upper()
            if tokens[2] not in cols:
                raise ParseError(lineno, f"unknown column {tokens[2]!r}")
            col = cols[tokens[2]]
            col[4] = lineno
            if btype in ("UP", "LO", "FX"):
                if len(tokens) < 4:
                    raise ParseError(lineno, f"bound type {btype} needs a value")
                value = number(tokens[3], lineno)
                if btype != "UP":
                    col[2] = value
                if btype != "LO":
                    col[3] = value
            elif btype == "BV":
                col[1:4] = [True, 0.0, 1.0]
            elif btype == "MI":
                col[2] = -math.inf
            else:
                raise ParseError(lineno, f"unsupported bound type {tokens[0]!r}")
        else:
            raise ParseError(lineno, "data line before any section header")
    else:
        raise ParseError(len(lines) + 1, "missing ENDATA")
    for cname, (_, _, lower, upper, lineno) in cols.items():
        if lower > upper:
            raise ParseError(lineno, f"column {cname!r}: lower bound {lower} "
                                     f"> upper bound {upper}")

    objective = rows[objective_name][1] if objective_name else {}
    if objective_name is None:
        objective_name, k = "OBJ", 2
        while objective_name in rows:
            objective_name, k = f"OBJ{k}", k + 1
    variables = [Variable(cname, lower, upper, integer, objective.get(j, 0.0))
                 for cname, (j, integer, lower, upper, _) in cols.items()]
    constraints = [Row(rname, [(j, a) for j, a in entries.items() if a != 0.0], sense,
                       0.0 if rhs is None else rhs)
                   for rname, (sense, entries, rhs) in rows.items() if sense is not None]
    return MilpInstance(variables, constraints, name=name, objective_name=objective_name)


BLANKS = ["", " ", "\t", "  \t  ", "*", "* note", "*ROWS", "    * x c1 nan", "\t*\t'MARKER'"]


def _reform(rng, text):
    """``text`` with its line forms varied: tabs for spaces, blank and
    comment lines, lower case, trailing blanks, CRLF or lone-CR endings."""
    lines = []
    for line in text.splitlines():
        if rng.random() < 0.05:
            lines.append(rng.choice(BLANKS))
        op = rng.random()
        if op < 0.1:
            line = line.replace(" ", "\t")
        elif op < 0.15:
            line = line.lower()
        elif op < 0.2:
            line += rng.choice([" ", "\t", " \t"])
        lines.append(line)
    return rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n", "\r\n"])


def _outcome(parse, text):
    try:
        return "ok", write_mps(parse(text))
    except ParseError as exc:
        return "ParseError", str(exc), exc.lineno
    except ValueError as exc:
        return "ValueError", str(exc)


def test_parse_matches_reference():
    rng = random.Random(20261020)
    texts = [write_mps(gen.random_binary_instance(rng, guard_fixings=rng.random() < 0.5))
             for _ in range(30)]
    texts += [write_mps(gen.random_setpacking_instance(rng)) for _ in range(30)]
    models = _base_models(rng)
    for _ in range(1500):
        text = _mutate(rng, rng.choice(models), NUMBERS + KEYWORDS)
        texts.append(text if rng.random() < 0.5 else _reform(rng, text))
    kinds = {"ok": 0, "ParseError": 0}
    messages = set()
    for text in texts:
        expected = _outcome(_reference_parse_mps, text)
        assert _outcome(parse_mps, text) == expected, text
        kinds[expected[0]] += 1
        if expected[0] == "ParseError":
            messages.add(expected[1].split(":", 1)[1].split("'", 1)[0])
    # Both kinds of outcome are common, and the errors are many kinds of error.
    assert kinds["ok"] >= 500 and kinds["ParseError"] >= 500, kinds
    assert len(messages) >= 15, sorted(messages)


def test_zero_tokens_keep_their_own_sign():
    # Column values are parsed once per distinct token; "-0" and "0" are
    # different tokens, so each column keeps the sign of its own zero.
    text = "\n".join([
        "NAME ZEROS", "ROWS", " N OBJ", " L r1", " G r2", "COLUMNS",
        "    x1 OBJ -0 r1 0", "    x2 OBJ 0 r1 -0", "    x3 OBJ -0 r2 1",
        "    x4 OBJ 0 r2 -0", "    x5 OBJ -0 r1 1", "    x6 OBJ 0.0 r1 -1",
        "RHS", "    RHS r1 1 r2 -0", "BOUNDS",
        *(f" BV BND x{j}" for j in range(1, 7)), "ENDATA", ""])
    got, ref = parse_mps(text), _reference_parse_mps(text)
    assert got == ref
    assert write_mps(got) == write_mps(ref)
    signs = [math.copysign(1.0, v.objective_coeff) for v in got.variables]
    assert signs == [math.copysign(1.0, v.objective_coeff) for v in ref.variables]
    assert signs == [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
    assert [(r.coeffs, math.copysign(1.0, r.rhs)) for r in got.rows] == [
        ([(4, 1.0), (5, -1.0)], 1.0), ([(2, 1.0)], -1.0)]


# The separators other than "\n" at which ``str.splitlines`` ends a line.
LINE_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _model_and_point_lines():
    inst = gen.random_binary_instance(random.Random(37))
    x1, x2, x3 = (v.name for v in inst.variables[:3])
    point = ["# a point", f"{x1} 0.5", f"{x2} 0.25 -1.5  # with a reduced cost", "", f"{x3} 1"]
    return write_mps(inst).splitlines(), point


def test_parsers_end_a_line_at_every_line_break_of_splitlines():
    # ``parse_mps`` and ``read_point`` split with ``str.splitlines``, so a
    # text joined with any of its line breaks reads as the one joined with
    # "\n".  A parser that splits another way must keep this set.
    lines, point = _model_and_point_lines()
    model = parse_mps("\n".join(lines))
    values = read_point("\n".join(point), model)
    assert values.values and values.reduced_costs
    for brk in LINE_BREAKS:
        assert parse_mps(brk.join(lines)) == model, repr(brk)
        assert read_point(brk.join(point), model) == values, repr(brk)


def test_unit_separator_only_separates_tokens():
    # "\x1f" is whitespace to ``str.split`` but no line break, so a text
    # joined with it is one line.
    lines, point = _model_and_point_lines()
    with pytest.raises(ParseError, match="^line 2: missing ENDATA$"):
        parse_mps("\x1f".join(lines))
    with pytest.raises(ParseError, match="^line 1: point line must be"):
        read_point("\x1f".join(point[1:3]), parse_mps("\n".join(lines)))
