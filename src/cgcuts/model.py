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
for every column, including integer columns.  ``parse_mps`` and
``read_point`` take the file's text; the parser keeps one record per row
(sense, entries by column index, rhs) and one per column (index,
integrality, bounds, last BOUNDS line), so a duplicate entry is a key
already in its row and crossing bounds name the line that set them last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

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
    """Variables and rows of a model.

    The name index and the binarity list (one ``Variable.is_binary`` per
    column, read by ``is_binary``, ``normalize_to_knapsack`` and
    ``strengthen``) are taken at construction; later edits to
    ``variables`` are not seen by any of them.
    """

    variables: list[Variable]
    rows: list[Row]
    name: str = ""
    objective_name: str = "OBJ"
    _index: dict[str, int] = field(init=False, repr=False, compare=False, default_factory=dict)
    _binary: list[bool] = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self):
        for i, v in enumerate(self.variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable name {v.name}")
            self._index[v.name] = i
        self._binary = [v.is_binary for v in self.variables]
        row_names = set()
        n = len(self.variables)
        for r in self.rows:
            if r.name in row_names:
                raise ValueError(f"duplicate row name {r.name}")
            if r.name == self.objective_name:
                raise ValueError(f"row {r.name} has the objective's name")
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
        return self._binary[j]

    def binary_indices(self) -> list[int]:
        return [j for j, b in enumerate(self._binary) if b]

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
    binary = instance._binary
    if not all(binary[j] for j, _ in row.coeffs):
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

    def lit_value(self, node: int, n_vars: int) -> float:
        v = self.values.get(node_var(node, n_vars), 0.0)
        return 1.0 - v if node >= n_vars else v

    def literal_values(self, n_vars: int) -> list[float]:
        """The 2 * n_vars literal values indexed by node id, each equal to
        ``lit_value(node, n_vars)``."""
        get = self.values.get
        values = [get(j, 0.0) for j in range(n_vars)]
        return values + [1.0 - v for v in values]

    def lit_reduced_cost(self, node: int, n_vars: int) -> float:
        """Reduced cost of a literal, 0 when unknown; the sign flips under
        complementation."""
        if self.reduced_costs is None:
            return 0.0
        rc = self.reduced_costs.get(node_var(node, n_vars))
        if rc is None:
            return 0.0
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


def parse_mps(text: str) -> MilpInstance:
    """Parse the supported MPS subset into an instance.

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
            if "'MARKER'" in tokens:
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


def read_point(text: str, instance: MilpInstance) -> FractionalPoint:
    """Read a point file: ``name value [reduced_cost]`` lines, ``#`` comments.

    Binary values must lie in [0, 1] (tiny float slop is clamped by
    :class:`FractionalPoint`); entries for non-binary variables are ignored;
    unknown names and NaN values or reduced costs are errors.
    """
    values: dict[int, float] = {}
    rcs: dict[int, float] = {}
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
        values[j] = value
        if rc is not None:
            rcs[j] = rc
    return FractionalPoint(values, rcs or None)
