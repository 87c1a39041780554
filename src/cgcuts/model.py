"""Model layer: instances, literals, MPS-subset I/O and knapsack normalization.

A model is a list of variables plus a list of linear rows.  Conflict
analysis works on *literals*: a binary variable x_j or its complement
(1 - x_j).  Literals are addressed by integer node ids in [0, 2n): id j
for x_j, id j + n for the complement.

Supported MPS subset: sections NAME, ROWS (N/L/G/E), COLUMNS (with
``'MARKER'`` ``'INTORG'``/``'INTEND'`` toggles), RHS, BOUNDS (UP, LO, FX,
BV, MI) and ENDATA.  Section headers start in column one, data lines are
indented; tokens are whitespace-separated, so fixed- and free-format files
both parse.  RANGES and SOS are rejected.  Default bounds are [0, +inf)
for every column, including integer columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TextIO

# Absolute tolerance for coefficient/rhs comparisons ("a + b > rhs" means
# a + b > rhs + EPS).
EPS = 1e-8

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
_SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)

_MPS_SENSE = {"L": SENSE_LE, "G": SENSE_GE, "E": SENSE_EQ}
_SENSE_MPS = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}


class ParseError(ValueError):
    """Malformed model or point file; the message names the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def complement_node(node: int, n_vars: int) -> int:
    return node - n_vars if node >= n_vars else node + n_vars


def node_var(node: int, n_vars: int) -> int:
    return node - n_vars if node >= n_vars else node


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = 0.0
    upper: float = math.inf
    is_integer: bool = False
    objective_coeff: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower {self.lower} > upper {self.upper}")

    @property
    def is_binary(self) -> bool:
        return self.is_integer and self.lower == 0.0 and self.upper == 1.0


@dataclass
class Row:
    """A linear constraint ``sum coeffs <sense> rhs`` over variable indices."""

    name: str
    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"row {self.name}: bad sense {self.sense!r}")
        seen = set()
        for j, a in self.coeffs:
            if j in seen:
                raise ValueError(f"row {self.name}: duplicate variable index {j}")
            seen.add(j)
            if not math.isfinite(a) or a == 0.0:
                raise ValueError(f"row {self.name}: coefficient {a} on index {j}")


@dataclass
class MilpInstance:
    variables: list[Variable]
    rows: list[Row]
    name: str = ""
    objective_name: str = "OBJ"
    _index: dict[str, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for i, v in enumerate(self.variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable name {v.name}")
            self._index[v.name] = i
        row_names = set()
        n = len(self.variables)
        for r in self.rows:
            if r.name in row_names:
                raise ValueError(f"duplicate row name {r.name}")
            row_names.add(r.name)
            for j, _ in r.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"row {r.name}: variable index {j} out of range")

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def is_binary(self, j: int) -> bool:
        return self.variables[j].is_binary

    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.is_binary]

    def node_name(self, node: int) -> str:
        """Literal label for dumps and cut files: ``name`` or ``!name``."""
        j = node_var(node, self.n_vars)
        base = self.variables[j].name
        return "!" + base if node >= self.n_vars else base


@dataclass
class KnapsackRow:
    """``sum a_j * lit_j <= rhs`` over literal node ids with all a_j > 0."""

    literals: list[tuple[int, float]]
    rhs: float


def normalize_to_knapsack(row: Row, instance: MilpInstance) -> list[KnapsackRow]:
    """Rewrite a row over binary variables into knapsack form.

    A >= row is negated first; an equality yields both directions.  Each
    negative coefficient is replaced by the complemented literal with the
    absolute coefficient, raising the rhs accordingly.  Rows touching any
    non-binary variable yield no knapsack rows (skip signal, not an error).
    """
    if any(not instance.is_binary(j) for j, _ in row.coeffs):
        return []
    n = instance.n_vars
    if row.sense == SENSE_LE:
        directions = [(row.coeffs, row.rhs)]
    elif row.sense == SENSE_GE:
        directions = [([(j, -a) for j, a in row.coeffs], -row.rhs)]
    else:
        directions = [
            (row.coeffs, row.rhs),
            ([(j, -a) for j, a in row.coeffs], -row.rhs),
        ]
    out = []
    for coeffs, rhs in directions:
        lits: list[tuple[int, float]] = []
        b = rhs
        for j, a in coeffs:
            if a > 0:
                lits.append((j, a))
            else:
                lits.append((j + n, -a))
                b += -a
        out.append(KnapsackRow(lits, b))
    return out


@dataclass
class FractionalPoint:
    """A (fractional) solution over binary variables, values in [0, 1].

    Missing binary variables read as 0.  Reduced costs are optional and used
    only to order lifting candidates.
    """

    values: dict[int, float]
    reduced_costs: dict[int, float] | None = None

    def __post_init__(self):
        for j, v in self.values.items():
            if not -EPS <= v <= 1.0 + EPS:  # NaN fails this too
                raise ValueError(f"value {v} for variable index {j} outside [0, 1]")
        for j, rc in (self.reduced_costs or {}).items():
            if math.isnan(rc):
                raise ValueError(f"reduced cost NaN for variable index {j}")
        self.values = {j: min(1.0, max(0.0, v)) for j, v in self.values.items()}

    def var_value(self, j: int) -> float:
        return self.values.get(j, 0.0)

    def lit_value(self, node: int, n_vars: int) -> float:
        v = self.var_value(node_var(node, n_vars))
        return 1.0 - v if node >= n_vars else v

    def lit_reduced_cost(self, node: int, n_vars: int, default: float = 0.0) -> float:
        """Reduced cost of a literal; the sign flips under complementation."""
        if self.reduced_costs is None:
            return default
        rc = self.reduced_costs.get(node_var(node, n_vars))
        if rc is None:
            return default
        return -rc if node >= n_vars else rc


def literals_to_row(terms: Iterable[tuple[int, float]], rhs: float,
                    n_vars: int, name: str) -> Row:
    """Translate ``sum coeff * lit <= rhs`` into a row over original variables.

    Each complemented literal contributes ``coeff * (1 - x_j)``: the variable
    gets ``-coeff`` and the rhs drops by ``coeff``.  Coefficients landing on
    the same variable are merged and exact zeros dropped.
    """
    merged: dict[int, float] = {}
    b = rhs
    for node, c in terms:
        j = node_var(node, n_vars)
        if node >= n_vars:
            merged[j] = merged.get(j, 0.0) - c
            b -= c
        else:
            merged[j] = merged.get(j, 0.0) + c
    coeffs = [(j, a) for j, a in sorted(merged.items()) if a != 0.0]
    return Row(name, coeffs, SENSE_LE, b)


# --------------------------------------------------------------------------
# MPS reading/writing


_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE", "SOS"}


def parse_mps(source: str | TextIO) -> MilpInstance:
    """Parse the supported MPS subset into an instance.

    Errors (unknown references, duplicate names, malformed sections) raise
    :class:`ParseError` naming the line.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()

    section = None
    name = ""
    objective_name: str | None = None
    free_rows: set[str] = set()
    row_names: list[str] = []
    row_sense: dict[str, str] = {}
    row_coeffs: dict[str, list[tuple[int, float]]] = {}
    row_rhs: dict[str, float] = {}
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    col_integer: list[bool] = []
    col_obj: list[float] = []
    col_bounds: list[list[float]] = []
    seen_entries: set[tuple[str, str]] = set()
    integer_mode = False
    saw_endata = False

    def fail(lineno: int, msg: str) -> ParseError:
        return ParseError(lineno, msg)

    def number(tok: str, lineno: int) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise fail(lineno, f"bad numeric value {tok!r}") from None
        if math.isnan(value):
            raise fail(lineno, f"NaN value {tok!r}")
        return value

    def declare_col(cname: str) -> int:
        if cname in col_index:
            return col_index[cname]
        col_index[cname] = len(col_names)
        col_names.append(cname)
        col_integer.append(integer_mode)
        col_obj.append(0.0)
        col_bounds.append([0.0, math.inf])
        return col_index[cname]

    for lineno, raw in enumerate(lines, 1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise fail(lineno, f"unknown section header {tokens[0]!r}")
            if head in ("RANGES", "SOS", "OBJSENSE"):
                raise fail(lineno, f"unsupported section {head}")
            if head == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                continue
            if head == "ENDATA":
                saw_endata = True
                break
            section = head
            continue

        tokens = raw.split()
        if section == "ROWS":
            if len(tokens) != 2:
                raise fail(lineno, "ROWS line must be '<sense> <name>'")
            sense, rname = tokens[0].upper(), tokens[1]
            if rname in row_sense or rname in free_rows:
                raise fail(lineno, f"duplicate row name {rname!r}")
            if sense == "N":
                if objective_name is None:
                    objective_name = rname
                free_rows.add(rname)
            elif sense in _MPS_SENSE:
                row_names.append(rname)
                row_sense[rname] = _MPS_SENSE[sense]
                row_coeffs[rname] = []
            else:
                raise fail(lineno, f"unknown row sense {tokens[0]!r}")
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                if "'INTORG'" in tokens:
                    integer_mode = True
                elif "'INTEND'" in tokens:
                    integer_mode = False
                else:
                    raise fail(lineno, "marker line without INTORG/INTEND")
                continue
            if len(tokens) not in (3, 5):
                raise fail(lineno, "COLUMNS line must be '<col> (<row> <value>)+'")
            j = declare_col(tokens[0])
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                value = number(vtok, lineno)
                if (tokens[0], rname) in seen_entries:
                    raise fail(lineno, f"duplicate entry for column {tokens[0]!r} in row {rname!r}")
                seen_entries.add((tokens[0], rname))
                if rname in free_rows:
                    if rname == objective_name:
                        col_obj[j] = value
                elif rname in row_coeffs:
                    if value != 0.0:
                        row_coeffs[rname].append((j, value))
                else:
                    raise fail(lineno, f"unknown row {rname!r}")
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                raise fail(lineno, "RHS line must be '<set> (<row> <value>)+'")
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                value = number(vtok, lineno)
                if rname in free_rows:
                    continue
                if rname not in row_sense:
                    raise fail(lineno, f"unknown row {rname!r}")
                if rname in row_rhs:
                    raise fail(lineno, f"duplicate rhs for row {rname!r}")
                row_rhs[rname] = value
        elif section == "BOUNDS":
            if len(tokens) < 3:
                raise fail(lineno, "BOUNDS line must be '<type> <set> <col> [value]'")
            btype = tokens[0].upper()
            cname = tokens[2]
            if cname not in col_index:
                raise fail(lineno, f"unknown column {cname!r}")
            j = col_index[cname]
            if btype in ("UP", "LO", "FX"):
                if len(tokens) < 4:
                    raise fail(lineno, f"bound type {btype} needs a value")
                value = number(tokens[3], lineno)
                if btype == "UP":
                    col_bounds[j][1] = value
                elif btype == "LO":
                    col_bounds[j][0] = value
                else:
                    col_bounds[j] = [value, value]
            elif btype == "BV":
                col_bounds[j] = [0.0, 1.0]
                col_integer[j] = True
            elif btype == "MI":
                col_bounds[j][0] = -math.inf
            else:
                raise fail(lineno, f"unsupported bound type {tokens[0]!r}")
        elif section is None:
            raise fail(lineno, "data line before any section header")
        else:
            raise fail(lineno, f"data line in unhandled section {section}")

    if not saw_endata:
        raise ParseError(len(lines) + 1, "missing ENDATA")

    variables = [
        Variable(cname, col_bounds[j][0], col_bounds[j][1], col_integer[j], col_obj[j])
        for j, cname in enumerate(col_names)
    ]
    rows = [
        Row(rname, row_coeffs[rname], row_sense[rname], row_rhs.get(rname, 0.0))
        for rname in row_names
    ]
    return MilpInstance(variables, rows, name=name,
                        objective_name=objective_name or "OBJ")


def write_mps(instance: MilpInstance) -> str:
    """Serialize an instance; ``parse_mps(write_mps(m)) == m``."""
    out = [f"NAME {instance.name}".rstrip()]
    out.append("ROWS")
    out.append(f" N {instance.objective_name}")
    for row in instance.rows:
        out.append(f" {_SENSE_MPS[row.sense]} {row.name}")

    entries: list[list[tuple[str, float]]] = [[] for _ in instance.variables]
    for j, v in enumerate(instance.variables):
        if v.objective_coeff != 0.0:
            entries[j].append((instance.objective_name, v.objective_coeff))
    for row in instance.rows:
        for j, a in row.coeffs:
            entries[j].append((row.name, a))

    out.append("COLUMNS")
    in_integer = False
    for j, v in enumerate(instance.variables):
        if v.is_integer and not in_integer:
            out.append("    MARKER                 'MARKER'                 'INTORG'")
            in_integer = True
        elif not v.is_integer and in_integer:
            out.append("    MARKER                 'MARKER'                 'INTEND'")
            in_integer = False
        # A column with no entries must still be declared somewhere.
        if not entries[j]:
            entries[j].append((instance.objective_name, 0.0))
        for rname, value in entries[j]:
            out.append(f"    {v.name:<10} {rname:<10} {value!r}")
    if in_integer:
        out.append("    MARKER                 'MARKER'                 'INTEND'")

    out.append("RHS")
    for row in instance.rows:
        if row.rhs != 0.0:
            out.append(f"    RHS        {row.name:<10} {row.rhs!r}")

    out.append("BOUNDS")
    for v in instance.variables:
        if v.is_binary:
            out.append(f" BV BND        {v.name}")
            continue
        if v.lower == v.upper:
            out.append(f" FX BND        {v.name:<10} {v.lower!r}")
            continue
        if v.lower == -math.inf:
            out.append(f" MI BND        {v.name}")
        elif v.lower != 0.0:
            out.append(f" LO BND        {v.name:<10} {v.lower!r}")
        if v.upper != math.inf:
            out.append(f" UP BND        {v.name:<10} {v.upper!r}")

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def read_point(source: str | TextIO, instance: MilpInstance) -> FractionalPoint:
    """Read a point file: ``name value [reduced_cost]`` lines, ``#`` comments.

    Binary values must lie in [0, 1] (tiny float slop is clamped); entries
    for non-binary variables are ignored; unknown names and NaN values or
    reduced costs are errors.
    """
    text = source if isinstance(source, str) else source.read()
    values: dict[int, float] = {}
    rcs: dict[int, float] = {}
    saw_rc = False
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(lineno, "point line must be '<name> <value> [reduced_cost]'")
        vname = tokens[0]
        try:
            j = instance.index_of(vname)
        except KeyError:
            raise ParseError(lineno, f"unknown variable {vname!r}") from None
        if vname in seen:
            raise ParseError(lineno, f"duplicate entry for variable {vname!r}")
        seen.add(vname)
        try:
            value = float(tokens[1])
            rc = float(tokens[2]) if len(tokens) == 3 else None
        except ValueError:
            raise ParseError(lineno, "bad numeric value") from None
        if math.isnan(value) or (rc is not None and math.isnan(rc)):
            raise ParseError(lineno, f"NaN for variable {vname!r}")
        if not instance.is_binary(j):
            continue
        if value < -EPS or value > 1.0 + EPS:
            raise ParseError(lineno, f"value {value} for binary {vname!r} outside [0, 1]")
        values[j] = min(1.0, max(0.0, value))
        if rc is not None:
            rcs[j] = rc
            saw_rc = True
    return FractionalPoint(values, rcs if saw_rc else None)
