"""A seeded mutation test of the CLI contract.

Each mutant is a model text (a ``gen`` instance or a fixed text) and a
point text, each with zero to two line or token edits, plus a few
mutated options.  ``stats``, ``strengthen``, ``separate clique --machine``
and ``separate oddcycle --machine`` run on it through ``cli.main``, and
every run must:

* exit 0, 1 or 2, and never through the catch-all ``error: <Type>: ``
  line that reports an unexpected exception;
* for ``strengthen``, write a model ``m`` with ``parse_mps(write_mps(m))
  == m`` and the input's variables;
* on models of at most 12 variables, give literals that conflict under
  ``probe_pairs``: every pair of an extended row's literals, of a clique
  cut's members, and every edge, spoke and center pair of an odd-wheel
  cut.
"""

import random
import re

import cgcuts.sep_clique
import cgcuts.sep_oddcycle
from cgcuts import MilpInstance, ParseError, parse_mps, write_mps
from cgcuts.cli import main
from cgcuts.oracle import probe_pairs

import gen

N_MUTANTS = 300
MAX_PROBED_VARS = 12

CATCH_ALL = re.compile(r"^error: \w+: ", re.M)

FIXED_TEXTS = [
    # integer and continuous columns and every bound type
    """NAME MIXED
ROWS
 N COST
 L c1
 G c2
 E c3
COLUMNS
    MARKER  'MARKER'  'INTORG'
    x1  COST  1.0  c1  3.0
    x2  c1  4.0  c2  1.0
    x3  c1  5.0  c3  1.0
    n1  c2  1.0  c3  2.0
    MARKER  'MARKER'  'INTEND'
    y1  c1  -2.0  c2  0.5
    y2  COST  -1.0
RHS
    RHS  c1  6.0  c2  1.0
    RHS  c3  2.0
BOUNDS
 UP BND x1 1
 UP BND x2 1
 BV BND x3
 UP BND n1 4
 LO BND y1 -3.5
 UP BND y1 2.0
 MI BND y2
 FX BND y2 0.25
ENDATA
""",
    # no N row, and rows named like the default objective
    """NAME NOOBJ
ROWS
 L OBJ
 G OBJ2
 L p3
COLUMNS
    a  OBJ  1.0  OBJ2  1.0
    b  OBJ  1.0  p3  1.0
    c  p3  1.0  OBJ2  1.0
RHS
    RHS  OBJ  1.0  OBJ2  1.0
    RHS  p3  1.0
BOUNDS
 BV BND a
 BV BND b
 BV BND c
ENDATA
""",
    # a mixed-sign knapsack with a comment and a free-format tail
    """* a comment line
NAME KNP
ROWS
 N OBJ
 L k
 G cov
COLUMNS
    x1 k -3 cov 1
    x2 k 4 cov 1
    x3 k -5 cov 1
    x4 k 6
    x5 k 7
    x6 k 8
RHS
    RHS k 2 cov 1
BOUNDS
 BV BND x1
 BV BND x2
 BV BND x3
 BV BND x4
 BV BND x5
 BV BND x6
ENDATA
""",
]

NUMBERS = ["0", "1", "-1", "2", "0.5", "3", "7", "-4.5", "1e-9", "1e30", "-1e30",
           "inf", "-inf", "nan", "x", ""]
KEYWORDS = ["N", "L", "G", "E", "UP", "LO", "FX", "BV", "MI", "PL", "ROWS", "COLUMNS",
            "RHS", "BOUNDS", "RANGES", "ENDATA", "'MARKER'", "'INTORG'", "'INTEND'"]
POINT_VALUES = ["0", "1", "0.5", "0.25", "0.75", "0.3333333333333333", "1.5", "-0.1",
                "nan", "inf", "1e-7", "0.9999999"]


def _cycle_instance(rng):
    """An odd hole of 5 to 9 variables, up to three hub variables that
    conflict with the whole hole, and some random chords."""
    k, hubs = rng.choice([5, 7, 9]), rng.randint(0, 3)
    n = k + hubs
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(c, i) for c in range(k, n) for i in range(k)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
    pairs = list({tuple(sorted(e)) for e in pairs})
    variables = gen.binary_vars(k) + gen.binary_vars(hubs, prefix="hub")
    return MilpInstance(variables, gen.pair_rows(sorted(pairs)), name="HOLE")


def _base_models(rng):
    """40 ``gen`` instances plus the fixed texts."""
    models = [write_mps(gen.odd_wheel_instance()), write_mps(gen.tuple_store_instance())]
    while len(models) < 40:
        kind = rng.random()
        if kind < 0.25:
            inst = gen.random_binary_instance(rng, guard_fixings=rng.random() < 0.7)
        elif kind < 0.5:
            inst = gen.random_setpacking_instance(rng)
        elif kind < 0.65:
            inst = gen.random_setpacking_instance(rng, n_vars=rng.randint(13, 20))
        else:
            inst = _cycle_instance(rng)
        models.append(write_mps(inst))
    return models + FIXED_TEXTS


def _point_text(rng, model_text):
    """Values for most of the model's columns, some with reduced costs: 0
    on a hub, since a wheel center must be integral to be lifted, and
    elsewhere either all near 0.5 or a mix of 0, 1 and fractions."""
    try:
        inst = parse_mps(model_text)
    except ParseError:
        return "x1 0.5\n"
    near_half = rng.random() < 0.5
    lines = []
    for v in inst.variables:
        if rng.random() < 0.95:
            if v.name.startswith("hub"):
                value = "0"
            elif near_half:
                value = f"{rng.uniform(0.4, 0.6):.6f}"
            else:
                value = rng.choice(["0", "1", "0.5", f"{rng.random()!r}"])
            rc = f" {rng.uniform(-3, 3):.3f}" if rng.random() < 0.3 else ""
            lines.append(f"{v.name} {value}{rc}")
    return "\n".join(lines) + "\n"


def _mutate_token(rng, tokens, pool):
    i = rng.randrange(len(tokens))
    op = rng.random()
    if op < 0.15:
        del tokens[i]
    elif op < 0.3:
        tokens.insert(i, rng.choice(tokens))
    else:
        tokens[i] = rng.choice(pool)


def _mutate(rng, text, pool):
    """Zero to two line or token edits of ``text``."""
    lines = text.splitlines()
    for _ in range(rng.choice([0, 1, 1, 2])):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.random()
        if op < 0.15:
            del lines[i]
        elif op < 0.25:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op < 0.35:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
            tokens = lines[i].split()
            if tokens:
                _mutate_token(rng, tokens, pool)
            lines[i] = indent + " ".join(tokens)
    return "\n".join(lines) + ("\n" if rng.random() < 0.95 else "")


def _options(rng, command):
    opts = []
    if rng.random() < 0.3:
        opts += ["--min-clq-size", rng.choice(["0", "2", "3", "512", "-1"])]
    if command == "strengthen" and rng.random() < 0.3:
        opts += ["--alpha-max", rng.choice(["0", "1", "3", "128", "-2"])]
    if command == "clique" and rng.random() < 0.3:
        opts += ["--min-viol", rng.choice(["0", "0.02", "0.3", "-0.5", "nan", "inf"])]
    if command == "clique" and rng.random() < 0.2:
        opts += ["--max-calls", rng.choice(["0", "1", "5", "100000"])]
    if rng.random() < 0.02:
        opts += ["--no-such-option"]
    return opts


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert not CATCH_ALL.search(err), (argv, err)
    return code, out


def _conflict(instance):
    n = instance.n_vars
    edges = probe_pairs(instance).edges
    return lambda a, b: abs(a - b) == n or frozenset((a, b)) in edges


def _recorder(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def record(*args, **kwargs):
        cuts = fn(*args, **kwargs)
        calls.append(cuts)
        return cuts

    monkeypatch.setattr(module, name, record)
    return calls


def _check_machine_lines(out, n_cuts):
    lines = out.splitlines()
    assert len(lines) == n_cuts
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6 and fields[0] == "cut" and fields[3] == "<=", line


def test_cli_contract_under_mutation(tmp_path, capsys, monkeypatch):
    rng = random.Random(20261019)
    clique_calls = _recorder(monkeypatch, cgcuts.sep_clique, "separate_cliques")
    cycle_calls = _recorder(monkeypatch, cgcuts.sep_oddcycle, "separate_odd_cycles")
    models = _base_models(rng)
    mpath, ppath = tmp_path / "m.mps", tmp_path / "p.txt"
    seen = {"parsed": 0, "strengthened": 0, "extended_rows": 0, "probed": 0,
            "clique_cuts": 0, "cycle_cuts": 0}
    for _ in range(N_MUTANTS):
        base = rng.choice(models)
        text = _mutate(rng, base, NUMBERS + KEYWORDS)
        mpath.write_text(text)
        ppath.write_text(_mutate(rng, _point_text(rng, base), POINT_VALUES))
        try:
            instance = parse_mps(text)
        except (ParseError, ValueError):
            instance = None
        seen["parsed"] += instance is not None

        _run(["stats", str(mpath), *_options(rng, "stats")], capsys)

        conflict = None
        if instance is not None and instance.n_vars <= MAX_PROBED_VARS:
            conflict = _conflict(instance)

        code, out = _run(["strengthen", str(mpath), *_options(rng, "strengthen")], capsys)
        if code == 0:
            m = parse_mps(out)
            assert parse_mps(write_mps(m)) == m
            assert m.variables == instance.variables
            seen["strengthened"] += 1
            for row in m.rows:
                if conflict is not None and "_clqext" in row.name:
                    lits = sorted(j if a > 0 else j + m.n_vars for j, a in row.coeffs)
                    pairs = [(a, b) for i, a in enumerate(lits) for b in lits[i + 1:]]
                    assert all(conflict(a, b) for a, b in pairs), (text, row)
                    seen["extended_rows"] += 1
        for kind, calls in (("clique", clique_calls), ("oddcycle", cycle_calls)):
            calls.clear()
            code, out = _run(["separate", kind, str(mpath), str(ppath), "--machine",
                              *_options(rng, kind)], capsys)
            cuts = calls[0] if calls and code in (0, 1) else []
            if code in (0, 1):
                _check_machine_lines(out, len(cuts))
                assert code == (0 if cuts else 1)
            if conflict is None:
                continue
            seen["probed"] += 1
            for cut in cuts:
                if kind == "clique":
                    members = sorted(cut.members)
                    pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
                    seen["clique_cuts"] += 1
                else:
                    cyc, center = cut.cycle, sorted(cut.center)
                    pairs = [(cyc[i - 1], cyc[i]) for i in range(len(cyc))]
                    pairs += [(c, v) for c in center for v in cyc]
                    pairs += [(a, b) for i, a in enumerate(center) for b in center[i + 1:]]
                    seen["cycle_cuts"] += 1
                bad = [(a, b) for a, b in pairs if not conflict(a, b)]
                assert not bad, (kind, text, bad)
    # The mutants must reach every check, not only the parser's errors.
    assert seen["parsed"] >= N_MUTANTS // 3, seen
    assert seen["strengthened"] >= N_MUTANTS // 3, seen
    assert seen["probed"] >= N_MUTANTS // 3, seen
    assert seen["extended_rows"] >= 50, seen
    assert seen["clique_cuts"] >= 30 and seen["cycle_cuts"] >= 5, seen
