"""Model layer: instances, literals, MPS-subset I/O and knapsack normalization.

A model is a list of variables plus a list of linear rows.  Conflict
analysis works on *literals*: a binary variable x_j or its complement
(1 - x_j).  Literals are addressed by integer node ids in [0, 2n): id j
for x_j, id j + n for the complement.

Supported MPS subset: sections NAME, ROWS (N/L/G/E), COLUMNS (with
``'MARKER'`` ``'INTORG'``/``'INTEND'`` toggles), RHS, BOUNDS (UP, LO, FX,
BV, MI) and ENDATA.  A COLUMNS line is a marker line when its second
token is ``'MARKER'``; any other line is a data line, even one that holds
``'MARKER'`` elsewhere.  Section headers start in column one, data lines are
indented; tokens are whitespace-separated, so fixed- and free-format files
both parse.  RANGES and SOS are rejected.  Default bounds are [0, +inf)
for every column, including integer columns.  ``parse_mps`` and
``read_point`` take the file's text; the parser keeps one record per row
(sense, entries by column index, rhs) and one per column (index,
integrality, bounds, last BOUNDS line), so a duplicate entry is a key
already in its row and crossing bounds name the line that set them last.
Each row is built with its entries sorted by column index, so a column
whose lines are split by another column's still gives rows in column
order.
Its line loop splits each line once and skips blank and ``*`` comment
lines by their tokens.  A data line then costs one section test, COLUMNS
first as the section with the most lines, and one dict lookup per row or
column name; the (row, value) pairs of a COLUMNS or RHS line are read by
token index, in one loop that holds each entry check once.

A model is checked once, where it enters the library.  ``Row(...)`` and
``MilpInstance(...)`` check what a caller hands them.  The parser checks
every name, index, sense and coefficient as it reads the lines, so it
makes its rows without ``Row.__init__`` and its instance through
``_instance``, with no second check.  ``strengthen`` makes its result
through ``_instance`` too, from rows and variables already checked.
New names are numbered by one rule, ``_fresh_name``: the name itself, or
else the name followed by the smallest free k >= 2.  ``parse_mps`` names
a missing objective so, and ``strengthen`` each row it extends.

Every record in the package is a plain class over ``_Record``, which
compares and prints it field by field: this module's (``Variable``,
``Row``, ``MilpInstance``, ``KnapsackRow``, ``FractionalPoint``) and those
of ``cgraph``, ``presolve``, ``bk``, ``sep_clique``, ``sep_oddcycle`` and
``oracle``.  So no module of the package imports a record library or
``typing``.
``sep_clique.CliqueCut`` is slotted, so the cuts of a separation round
carry no instance dicts.

The knapsack direction rule is written once, in ``_directions``: a >= row
is negated, an equality gives both directions, and a negative term becomes
its complemented literal while its magnitude joins the rhs.
``normalize_to_knapsack`` adds the absolute coefficients that clique
detection needs; ``unit_knapsacks`` passes only a row of binary terms with
coefficient 1 or -1, and sorts each direction's literals for ``build``;
``strengthen`` reads ``_directions`` itself.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterable

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


class _Record:
    """Base of the record classes: ``==`` and ``repr`` over the fields named
    in ``_fields``, in order, ``repr`` as ``Name(field=value, ...)``.  A
    record equals only a record of its own class, and is unhashable unless
    its class defines ``__hash__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Variable(_Record):
    """An immutable, hashable column."""

    _fields = ("name", "lower", "upper", "is_integer", "objective_coeff")

    def __init__(self, name: str, lower: float = 0.0, upper: float = math.inf,
                 is_integer: bool = False, objective_coeff: float = 0.0):
        if lower > upper:
            raise ValueError(f"variable {name}: lower {lower} > upper {upper}")
        self.__dict__.update(name=name, lower=lower, upper=upper, is_integer=is_integer,
                             objective_coeff=objective_coeff)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())

    @property
    def is_binary(self) -> bool:
        return self.is_integer and self.lower == 0.0 and self.upper == 1.0


class Row(_Record):
    """A linear constraint ``sum coeffs <sense> rhs`` over variable indices."""

    __slots__ = _fields = ("name", "coeffs", "sense", "rhs")

    def __init__(self, name: str, coeffs: list[tuple[int, float]], sense: str, rhs: float):
        self.name, self.coeffs, self.sense, self.rhs = name, coeffs, sense, rhs
        if sense not in _SENSES:
            raise ValueError(f"row {name}: bad sense {sense!r}")
        seen = set()
        for j, a in coeffs:
            if j in seen:
                raise ValueError(f"row {name}: duplicate variable index {j}")
            seen.add(j)
            if not math.isfinite(a) or a == 0.0:
                raise ValueError(f"row {name}: coefficient {a} on index {j}")


class MilpInstance(_Record):
    """Variables and rows of a model.

    The name index and the binarity list (one ``Variable.is_binary`` per
    column, read by ``is_binary``, ``normalize_to_knapsack`` and
    ``strengthen``) are taken at construction; later edits to
    ``variables`` are not seen by any of them.  Neither takes part in
    ``==`` or ``repr``.
    """

    _fields = ("variables", "rows", "name", "objective_name")

    def __init__(self, variables: list[Variable], rows: list[Row], name: str = "",
                 objective_name: str = "OBJ"):
        self.variables, self.rows, self.name = variables, rows, name
        self.objective_name = objective_name
        self._index: dict[str, int] = {}
        for i, v in enumerate(variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable name {v.name}")
            self._index[v.name] = i
        self._binary = [v.is_binary for v in variables]
        row_names = set()
        n = len(variables)
        for r in rows:
            if r.name in row_names:
                raise ValueError(f"duplicate row name {r.name}")
            if r.name == objective_name:
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


def _fresh_name(base: str, taken: Container[str]) -> str:
    """``base``, or else ``base<k>`` for the smallest k >= 2 not in
    ``taken``: the one numbering of new names, ``OBJ``, ``OBJ2``, ... for
    a parsed model without an objective and ``<row>_clqext``,
    ``<row>_clqext2``, ... for a row ``strengthen`` extends."""
    name, k = base, 2
    while name in taken:
        name, k = f"{base}{k}", k + 1
    return name


def _instance(variables: list[Variable], rows: list[Row], name: str,
              objective_name: str) -> MilpInstance:
    """A ``MilpInstance`` of parts already checked, made without the
    checks of its ``__init__``: the parser's, whose rows skip those of
    ``Row.__init__`` too, and ``strengthen``'s."""
    inst = object.__new__(MilpInstance)
    inst.variables, inst.rows = variables, rows
    inst.name, inst.objective_name = name, objective_name
    inst._index = {v.name: j for j, v in enumerate(variables)}
    inst._binary = [v.is_binary for v in variables]
    return inst


class KnapsackRow(_Record):
    """``sum a_j * lit_j <= rhs`` over literal node ids with all a_j > 0."""

    _fields = ("literals", "rhs")

    def __init__(self, literals: list[tuple[int, float]], rhs: float):
        self.literals, self.rhs = literals, rhs


def _directions(row: Row, instance: MilpInstance) -> list[tuple[list[int], float]]:
    """The knapsack directions of a row over binary variables, as
    (literals in row order, rhs); ``[]`` when a term is not binary.

    This is the one direction rule: a <= row gives its own direction, a >=
    row its negation and an equality both, in that order.  A term that is
    negative in its direction becomes the complemented literal, whose
    magnitude |a_j| the rhs gains: the <= direction adds each negative
    coefficient's magnitude and the >= direction each positive one, in row
    order.  Both directions weigh each literal by the same |a_j|.
    """
    binary = instance._binary
    n = len(binary)
    lits = []  # the <= direction's: x_j for a_j > 0, its complement otherwise
    up, down = row.rhs, -row.rhs
    for j, a in row.coeffs:
        if not binary[j]:
            return []
        if a > 0:
            lits.append(j)
            down += a
        else:
            lits.append(j + n)
            up += -a
    if row.sense == SENSE_LE:
        return [(lits, up)]
    flipped = [v - n if v >= n else v + n for v in lits]
    return [(flipped, down)] if row.sense == SENSE_GE else [(lits, up), (flipped, down)]


def normalize_to_knapsack(row: Row, instance: MilpInstance) -> list[KnapsackRow]:
    """Rewrite a row over binary variables into knapsack form: each of
    ``_directions``, with the absolute coefficients.  Rows touching any
    non-binary variable yield no knapsack rows (skip signal, not an error).
    """
    mags = [abs(a) for _, a in row.coeffs]
    return [KnapsackRow(list(zip(lits, mags)), b) for lits, b in _directions(row, instance)]


def unit_knapsacks(row: Row, instance: MilpInstance) -> list[tuple[list[int], float]] | None:
    """``_directions`` of a row whose terms are all binary with coefficient
    exactly 1.0 or -1.0, each with its literals sorted by id.  Any other
    row gives None.
    """
    for _, a in row.coeffs:
        if a != 1.0 and a != -1.0:
            return None
    out = _directions(row, instance)
    for lits, _ in out:
        lits.sort()
    return out or None


# A value v is fractional iff FRAC_EPS < v < 1 - FRAC_EPS.
FRAC_EPS = 1e-6


class FractionalPoint(_Record):
    """A (fractional) solution over binary variables, values in [0, 1].

    Missing binary variables read as 0.  Reduced costs are optional and used
    only to order lifting candidates.
    """

    _fields = ("values", "reduced_costs")

    def __init__(self, values: dict[int, float], reduced_costs: dict[int, float] | None = None):
        for j, v in values.items():
            if not -EPS <= v <= 1.0 + EPS:  # NaN fails this too
                raise ValueError(f"value {v} for variable index {j} outside [0, 1]")
        for j, rc in (reduced_costs or {}).items():
            if math.isnan(rc):
                raise ValueError(f"reduced cost NaN for variable index {j}")
        self.values = {j: min(1.0, max(0.0, v)) for j, v in values.items()}
        self.reduced_costs = reduced_costs

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


def candidate_order_key(point: FractionalPoint, n_vars: int):
    """Lifting order: smallest reduced cost when costs are available,
    otherwise largest value; ties by node id."""
    if point.reduced_costs is not None:
        return lambda v: (point.lit_reduced_cost(v, n_vars), v)
    return lambda v: (-point.lit_value(v, n_vars), v)


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
# The index of each (row, value) pair's row token on a COLUMNS or RHS line,
# by the line's token count.
_PAIRS = {3: (1,), 5: (1, 3)}


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
    # COLUMNS value token -> its float, parsed at its first occurrence.
    # Keyed by the token, so "-0" and "0" stay apart.
    values: dict[str, float] = {}

    def number(tok: str, lineno: int) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(lineno, f"bad numeric value {tok!r}") from None
        if math.isnan(value):
            raise ParseError(lineno, f"NaN value {tok!r}")
        return value

    for lineno, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "*":
            continue
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
        elif section == "COLUMNS":
            if len(tokens) > 1 and tokens[1] == "'MARKER'":
                integer_mode = "'INTORG'" in tokens
                if not integer_mode and "'INTEND'" not in tokens:
                    raise ParseError(lineno, "marker line without INTORG/INTEND")
                continue
            pairs = _PAIRS.get(len(tokens))
            if pairs is None:
                raise ParseError(lineno, "COLUMNS line must be '<col> (<row> <value>)+'")
            j = (cols.get(tokens[0])
                 or cols.setdefault(tokens[0], [len(cols), integer_mode, 0.0, math.inf, 0]))[0]
            for k in pairs:
                tok = tokens[k + 1]
                value = values.get(tok)
                if value is None:
                    value = values[tok] = number(tok, lineno)
                row = rows.get(tokens[k])
                if row is None:
                    raise ParseError(lineno, f"unknown row {tokens[k]!r}")
                sense, entries, _ = row
                if sense is not None and math.isinf(value):
                    raise ParseError(lineno, f"infinite coefficient {tokens[k + 1]!r} for "
                                             f"column {tokens[0]!r} in row {tokens[k]!r}")
                if j in entries:
                    raise ParseError(lineno, f"duplicate entry for column {tokens[0]!r} "
                                             f"in row {tokens[k]!r}")
                entries[j] = value
        elif section == "ROWS":
            if len(tokens) != 2:
                raise ParseError(lineno, "ROWS line must be '<sense> <name>'")
            code, rname = tokens[0].upper(), tokens[1]
            if rname in rows:
                raise ParseError(lineno, f"duplicate row name {rname!r}")
            sense = _MPS_SENSE.get(code)
            if sense is None and code != "N":
                raise ParseError(lineno, f"unknown row sense {tokens[0]!r}")
            if sense is None and objective_name is None:
                objective_name = rname
            rows[rname] = [sense, {}, None]
        elif section == "RHS":
            pairs = _PAIRS.get(len(tokens))
            if pairs is None:
                raise ParseError(lineno, "RHS line must be '<set> (<row> <value>)+'")
            for k in pairs:
                value = number(tokens[k + 1], lineno)
                row = rows.get(tokens[k])
                if row is None:
                    raise ParseError(lineno, f"unknown row {tokens[k]!r}")
                if row[0] is None:
                    continue
                if row[2] is not None:
                    raise ParseError(lineno, f"duplicate rhs for row {tokens[k]!r}")
                row[2] = value
        elif section == "BOUNDS":
            if len(tokens) < 3:
                raise ParseError(lineno, "BOUNDS line must be '<type> <set> <col> [value]'")
            btype = tokens[0].upper()
            col = cols.get(tokens[2])
            if col is None:
                raise ParseError(lineno, f"unknown column {tokens[2]!r}")
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
        objective_name = _fresh_name("OBJ", rows)
    variables = [Variable(cname, lower, upper, integer, objective.get(j, 0.0))
                 for cname, (j, integer, lower, upper, _) in cols.items()]
    constraints = []
    for rname, (sense, entries, rhs) in rows.items():
        if sense is not None:
            row = object.__new__(Row)  # checked as read: not through Row.__init__
            row.name, row.sense, row.rhs = rname, sense, 0.0 if rhs is None else rhs
            row.coeffs = sorted(entries.items())
            if 0.0 in entries.values():
                row.coeffs = [(j, a) for j, a in row.coeffs if a != 0.0]
            constraints.append(row)
    return _instance(variables, constraints, name, objective_name)


def write_mps(instance: MilpInstance) -> str:
    """Serialize an instance, column by column.

    Whenever it returns, ``parse_mps(write_mps(m)) == m`` for every parsed
    model, and for every model whose rows list their coefficients in column
    order, as the parser and ``literals_to_row`` build them; any other row
    parses back with its coefficients sorted by column.  A name that would
    not parse back raises ``ValueError`` naming the first one in the file's
    order: a model name holding whitespace, an objective, row or variable
    name that is empty or holds whitespace, a variable name starting with
    ``*``, which would begin a comment line, or an objective or row named
    ``'MARKER'``, whose COLUMNS lines would read as marker lines.
    """
    if instance.name and instance.name.split() != [instance.name]:
        raise ValueError(f"model name {instance.name!r} holds whitespace")
    for kind, names in (("objective", [instance.objective_name]),
                        ("row", [row.name for row in instance.rows]),
                        ("variable", [v.name for v in instance.variables])):
        for name in names:
            if (name.split() != [name]
                    or (name[0] == "*" if kind == "variable" else name == "'MARKER'")):
                raise ValueError(f"{kind} name {name!r} would not parse back")
    out = [f"NAME {instance.name}".rstrip()]
    out.append("ROWS")
    out.append(f" N {instance.objective_name}")
    for row in instance.rows:
        out.append(f" {_SENSE_MPS[row.sense]} {row.name}")

    # Each row name is padded once per row and each column name once per
    # column: an entry is the padded row name and the value's repr, and a
    # COLUMNS line puts the padded column name before it.
    obj = f"{instance.objective_name:<10} "
    entries: list[list[str]] = [[] for _ in instance.variables]
    for j, v in enumerate(instance.variables):
        if v.objective_coeff != 0.0:
            entries[j].append(obj + repr(v.objective_coeff))
    for row in instance.rows:
        head = f"{row.name:<10} "
        for j, a in row.coeffs:
            entries[j].append(head + repr(a))

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
        col = f"    {v.name:<10} "
        out += [col + entry for entry in entries[j] or [obj + "0.0"]]
        entries[j] = []  # its lines are made: let the entries go
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

    out.append("ENDATA\n")  # the final newline, without copying the text again
    return "\n".join(out)


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
