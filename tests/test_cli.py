import os
import subprocess
import sys
from pathlib import Path

import pytest

from cgcuts import MilpInstance, Row, build, parse_mps, write_mps
from cgcuts.cli import main

import gen


@pytest.fixture
def ex_model(tmp_path):
    path = tmp_path / "knp.mps"
    path.write_text(write_mps(gen.knapsack_example_instance()))
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    mpath = tmp_path / "tri.mps"
    mpath.write_text(write_mps(gen.triangle_instance()))
    ppath = tmp_path / "tri.pnt"
    ppath.write_text("x1 0.5\nx2 0.5\nx3 0.5\n")
    return str(mpath), str(ppath)


@pytest.fixture
def wheel(tmp_path):
    mpath = tmp_path / "wheel.mps"
    mpath.write_text(write_mps(gen.odd_wheel_instance()))
    ppath = tmp_path / "wheel.pnt"
    ppath.write_text("".join(f"x{j} 0.5\n" for j in range(1, 6))
                     + "".join(f"x{j} 0.0\n" for j in range(6, 9)))
    return str(mpath), str(ppath)


def test_stats_reports_detected_cliques(ex_model, capsys):
    assert main(["stats", ex_model]) == 0
    out = capsys.readouterr().out
    assert "cliques detected: 3" in out
    assert "variables: 6 (binary 6" in out


def test_stats_empty_model(tmp_path, capsys):
    path = tmp_path / "empty.mps"
    path.write_text("NAME EMPTY\nROWS\n N OBJ\nCOLUMNS\nRHS\nBOUNDS\nENDATA\n")
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cliques detected: 0" in out
    assert "nodes 0, edges 0" in out


def test_stats_dump(ex_model, capsys):
    assert main(["stats", ex_model, "--min-clq-size", "0", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "C 0: !x3 x4 x5 x6" in out


KNAPSACK_MPS = "\n".join(
    ["NAME KNAP", "ROWS", " N OBJ", " L knap", "COLUMNS"]
    + [f"    x{j} knap {j}" for j in range(1, 11)]
    + ["RHS", "    RHS knap 10", "BOUNDS"]
    + [f" BV BND x{j}" for j in range(1, 11)]
    + ["ENDATA", ""])

KNAPSACK_HEAD = """\
instance: KNAP
variables: 10 (binary 10, integer 0, continuous 0)
rows: 1  nonzeros: 10
conflict graph: nodes 20, edges 25
cliques detected: 5
"""

STATS_DUMP_GOLDENS = {
    0: KNAPSACK_HEAD + """\
stored: first cliques 1, tuples 4, adjlist entries 10
C 0: x5 x6 x7 x8 x9 x10
T x4 0 3
T x3 0 4
T x2 0 5
T x1 0 6
A x7: x4
A x8: x3 x4
A x9: x2 x3 x4
A x10: x1 x2 x3 x4
""",
    6: KNAPSACK_HEAD + """\
stored: first cliques 0, tuples 0, adjlist entries 50
A x1: x10
A x2: x9 x10
A x3: x8 x9 x10
A x4: x7 x8 x9 x10
A x5: x6 x7 x8 x9 x10
A x6: x5 x7 x8 x9 x10
A x7: x4 x5 x6 x8 x9 x10
A x8: x3 x4 x5 x6 x7 x9 x10
A x9: x2 x3 x4 x5 x6 x7 x8 x10
A x10: x1 x2 x3 x4 x5 x6 x7 x8 x9
""",
}


@pytest.mark.parametrize("mcs", sorted(STATS_DUMP_GOLDENS))
def test_stats_dump_golden_knapsack_row(tmp_path, capsys, mcs):
    # x1 + 2 x2 + ... + 10 x10 <= 10: a first clique of six literals and
    # four tuples, stored at size 0 and dissolved at 6.  Neither the A
    # lines nor the adjlist entries count a literal's complement.
    path = tmp_path / "knap.mps"
    path.write_text(KNAPSACK_MPS)
    assert main(["stats", str(path), "--min-clq-size", str(mcs), "--dump"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines.pop(6).startswith("build time: ")
    assert "".join(lines) == STATS_DUMP_GOLDENS[mcs]


def test_strengthen_golden(tmp_path, capsys):
    mpath = tmp_path / "clq.mps"
    mpath.write_text(write_mps(gen.strengthen_example_instance()))
    out_path = tmp_path / "out.mps"
    assert main(["strengthen", str(mpath), "--out", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "rows extended: 1" in err and "rows removed: 1" in err
    result = parse_mps(out_path.read_text())
    assert [r.name for r in result.rows] == ["k1", "p1_clqext"]
    assert result.rows[1].coeffs == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]


def test_strengthen_noop_is_identity(ex_model, tmp_path, capsys):
    out_path = tmp_path / "same.mps"
    assert main(["strengthen", ex_model, "--out", str(out_path)]) == 0
    capsys.readouterr()
    with open(ex_model) as f:
        original = parse_mps(f.read())
    assert out_path.read_text() == write_mps(original)


def test_separate_clique_triangle(triangle, capsys):
    mpath, ppath = triangle
    assert main(["separate", "clique", mpath, ppath]) == 0
    out = capsys.readouterr().out
    assert out == "clique_0: x1 + x2 + x3 <= 1  # violation=0.500000\n"


def test_separate_integral_point_exit_one(triangle, tmp_path, capsys):
    mpath, _ = triangle
    ppath = tmp_path / "int.pnt"
    ppath.write_text("x1 1\nx2 0\nx3 0\n")
    assert main(["separate", "clique", mpath, str(ppath)]) == 1
    assert capsys.readouterr().out == ""


def test_separate_min_viol_zero_prints_no_tautology(triangle, tmp_path, capsys):
    # x_j with its complement weighs exactly 1: its cut reads 0 <= 0.
    mpath, ppath = triangle
    low = tmp_path / "low.pnt"
    low.write_text("x1 0.3\nx2 0.3\nx3 0.3\n")
    assert main(["separate", "clique", mpath, str(low), "--min-viol", "0"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["separate", "clique", mpath, ppath, "--min-viol", "0"]) == 0
    assert capsys.readouterr().out == "clique_0: x1 + x2 + x3 <= 1  # violation=0.500000\n"


def test_separate_oddcycle_wheel_golden(wheel, capsys):
    mpath, ppath = wheel
    assert main(["separate", "oddcycle", mpath, ppath]) == 0
    out = capsys.readouterr().out
    assert out == ("oddcycle_0: x1 + x2 + x3 + x4 + x5 + 2 x6 + 2 x7 + 2 x8 <= 2"
                   "  # violation=0.500000 center=[x6,x7,x8]\n")


def test_separate_oddcycle_machine_golden(wheel, capsys):
    mpath, ppath = wheel
    assert main(["separate", "oddcycle", mpath, ppath, "--machine"]) == 0
    out = capsys.readouterr().out
    assert out == ("cut\toddcycle_0\t0.500000000\t<=\t2\t"
                   "x1:1,x2:1,x3:1,x4:1,x5:1,x6:2,x7:2,x8:2\n")


def test_separate_machine_format(triangle, capsys):
    mpath, ppath = triangle
    assert main(["separate", "clique", mpath, ppath, "--machine"]) == 0
    out = capsys.readouterr().out
    fields = out.strip().split("\t")
    assert fields[0] == "cut" and fields[1] == "clique_0"
    assert abs(float(fields[2]) - 0.5) < 1e-9
    assert fields[3] == "<=" and fields[4] == "1"
    assert fields[5] == "x1:1,x2:1,x3:1"


def test_separate_deterministic_output(triangle, tmp_path):
    mpath, ppath = triangle
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.cuts"
        assert main(["separate", "clique", mpath, ppath,
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_separate_flags_accepted(triangle, capsys):
    mpath, ppath = triangle
    rc = main(["separate", "clique", mpath, ppath, "--min-viol", "0.4",
               "--max-calls", "10", "--min-clq-size", "0"])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--min-viol", "5"], ["--max-calls", "1"]])
def test_separate_oddcycle_rejects_clique_flags(wheel, capsys, flag):
    # --min-viol and --max-calls belong to the clique separator only
    mpath, ppath = wheel
    with pytest.raises(SystemExit) as exc:
        main(["separate", "oddcycle", mpath, ppath, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.mps")
    assert main(["stats", missing]) == 2
    bad = tmp_path / "bad.mps"
    bad.write_text("GARBAGE\n")
    assert main(["stats", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_nan_in_point_exits_2(tmp_path, capsys):
    # max(0.0, nan) is 0.0: a NaN once read as a zero and gave exit 1.
    mpath = tmp_path / "c5.mps"
    mpath.write_text(write_mps(gen.five_cycle_instance()))
    for point in ("x2 nan\n", "x2 0.5 nan\n"):
        ppath = tmp_path / "p.txt"
        ppath.write_text("x1 0.5\n" + point + "x3 0.5\nx4 0.5\nx5 0.5\n")
        assert main(["separate", "oddcycle", str(mpath), str(ppath)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: NaN for variable 'x2'\n"


def test_nan_in_model_exits_2(tmp_path, capsys):
    # x1 + x2 <= nan once gave 0 edges and exit 0 in stats, and a wrong
    # "input is not a clique" diagnosis in strengthen.
    mpath = tmp_path / "nan.mps"
    text = write_mps(gen.triangle_instance())
    mpath.write_text(text.replace("    RHS        t          1.0",
                                  "    RHS        t          nan"))
    for command in ("stats", "strengthen"):
        assert main([command, str(mpath)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 12: NaN value 'nan'\n"


@pytest.mark.parametrize("old, new, message", [
    ("    x2         t          1.0", "    x2         t          inf",
     "line 8: infinite coefficient 'inf' for column 'x2' in row 't'"),
    (" BV BND        x3", " UP BND x3 -1",
     "line 16: column 'x3': lower bound 0.0 > upper bound -1.0"),
], ids=["inf-coefficient", "crossing-bounds"])
def test_invalid_model_exits_2_naming_the_line(tmp_path, capsys, old, new, message):
    # Both errors once came from Variable and Row after the whole file was
    # read, with no line number.
    text = write_mps(gen.triangle_instance())
    assert old in text
    mpath = tmp_path / "bad.mps"
    mpath.write_text(text.replace(old, new))
    assert main(["stats", str(mpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("min_viol, message", [
    ("nan", "error: min_viol must be finite and >= 0, not nan"),
    ("inf", "error: min_viol must be finite and >= 0, not inf"),
    ("-0.5", "error: min_viol must be finite and >= 0, not -0.5"),
], ids=["nan", "inf", "-0.5"])
def test_negative_or_non_finite_min_viol_exits_2(triangle, capsys, min_viol, message):
    # Exit 1 means "no cuts"; a bad threshold once read that way, and a
    # negative one printed satisfied rows as cuts with exit 0.
    mpath, ppath = triangle
    assert main(["separate", "clique", mpath, ppath, "--min-viol", min_viol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["stats", "M", "--min-clq-size", "-1"], "error: min_clq_size must be >= 0, not -1\n"),
    (["strengthen", "M", "--min-clq-size", "-1"], "error: min_clq_size must be >= 0, not -1\n"),
    (["strengthen", "M", "--alpha-max", "-2"], "error: alpha_max must be >= 0, not -2\n"),
    (["strengthen", "M", "--alpha-max", "-1", "--min-clq-size", "-1"],
     "error: min_clq_size must be >= 0, not -1\n"),
    (["separate", "clique", "M", "P", "--min-clq-size", "-1"],
     "error: min_clq_size must be >= 0, not -1\n"),
    (["separate", "oddcycle", "M", "P", "--min-clq-size", "-3"],
     "error: min_clq_size must be >= 0, not -3\n"),
], ids=["stats", "strengthen-mcs", "strengthen-alpha", "strengthen-both", "clique", "oddcycle"])
def test_negative_size_exits_2(triangle, capsys, argv, message):
    # Both once exited 0: a negative size stored every clique, or
    # extended no row, without a word.
    mpath, ppath = triangle
    argv = [{"M": mpath, "P": ppath}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_zero_sizes_are_accepted(triangle, capsys):
    mpath, _ = triangle
    assert main(["stats", mpath, "--min-clq-size", "0"]) == 0
    assert "cliques detected: 1\n" in capsys.readouterr().out
    assert main(["strengthen", mpath, "--alpha-max", "0", "--min-clq-size", "0"]) == 0
    inst = gen.triangle_instance()
    assert parse_mps(capsys.readouterr().out) == inst
    with pytest.raises(ValueError, match="^min_clq_size must be >= 0, not -1$"):
        build(inst, -1)


def test_usage_error_missing_point(triangle):
    mpath, _ = triangle
    with pytest.raises(SystemExit) as exc:
        main(["separate", "clique", mpath])
    assert exc.value.code == 2


def test_stats_edge_count_matches_oracle(tmp_path, capsys):
    import random

    from cgcuts.oracle import probe_pairs

    rng = random.Random(71)
    for i in range(10):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(2, 10))
        path = tmp_path / f"r{i}.mps"
        path.write_text(write_mps(inst))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        edge_line = next(l for l in out.splitlines() if l.startswith("conflict graph"))
        reported = int(edge_line.split("edges")[1].strip())
        assert reported == len(probe_pairs(inst).edges)


def test_stats_edge_count_matches_edge_set_with_tuples(tmp_path, capsys):
    inst = gen.tuple_store_instance()
    path = tmp_path / "tuples.mps"
    path.write_text(write_mps(inst))
    for mcs in (0, 4, 512):
        g = build(inst, mcs)
        assert mcs == 512 or g.store.addtl
        assert main(["stats", str(path), "--min-clq-size", str(mcs)]) == 0
        out = capsys.readouterr().out
        assert f"conflict graph: nodes {g.n_nodes}, edges {len(gen.edge_set(g))}\n" in out


def test_stats_holds_one_literals_neighbors_at_a_time(tmp_path, capsys):
    # Counting edges walks each literal of the stored 2,000-literal clique
    # without caching its neighbors: about 30 MB if all 4,000 were kept.
    import tracemalloc

    n = 2000
    inst = MilpInstance(gen.binary_vars(n), [Row("pack", [(j, 1.0) for j in range(n)], "<=", 1.0)])
    path = tmp_path / "pack.mps"
    path.write_text(write_mps(inst))
    tracemalloc.start()
    try:
        assert main(["stats", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    edges = n * (n - 1) // 2  # complement pairs are not counted
    assert f"conflict graph: nodes {2 * n}, edges {edges}\n" in capsys.readouterr().out
    assert peak < 8 * 2**20


def _run_python(*args):
    """Run a fresh interpreter that imports cgcuts from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_unexpected_exception_exits_2(triangle, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("cgcuts.sep_clique.separate_cliques", boom)
    mpath, ppath = triangle
    assert main(["separate", "clique", mpath, ppath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: boom\n"


def test_separate_clique_1200_literals(tmp_path, capsys):
    # One clique deeper than the interpreter's recursion limit.
    n = 1200
    inst = MilpInstance(gen.binary_vars(n), [Row("pack", [(j, 1.0) for j in range(n)], "<=", 1.0)])
    mpath = tmp_path / "big.mps"
    mpath.write_text(write_mps(inst))
    ppath = tmp_path / "big.pnt"
    ppath.write_text("".join(f"x{j + 1} 0.5\n" for j in range(n)))
    assert main(["separate", "clique", str(mpath), str(ppath)]) == 0
    out = capsys.readouterr().out
    expr = " + ".join(f"x{j + 1}" for j in range(n))
    assert out == f"clique_0: {expr} <= 1  # violation=599.000000\n"


def test_separate_clique_budget_warning(tmp_path):
    # Two disjoint triangles at 0.5: four search nodes emit the first one,
    # the fifth hits the budget.
    inst = MilpInstance(gen.binary_vars(6), [
        Row("t1", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0),
        Row("t2", [(3, 1.0), (4, 1.0), (5, 1.0)], "<=", 1.0)])
    mpath = tmp_path / "two.mps"
    mpath.write_text(write_mps(inst))
    ppath = tmp_path / "two.pnt"
    ppath.write_text("".join(f"x{j} 0.5\n" for j in range(1, 7)))
    proc = _run_python("-m", "cgcuts.cli", "separate", "clique", str(mpath), str(ppath),
                       "--max-calls", "4")
    assert proc.returncode == 0
    assert proc.stdout == "clique_0: x1 + x2 + x3 <= 1  # violation=0.500000\n"
    assert proc.stderr == ("Bron-Kerbosch stopped at its budget: 5 calls counted, "
                           "max_calls 4; violated cliques may be missing\n")
    proc = _run_python("-m", "cgcuts.cli", "separate", "clique", str(mpath), str(ppath))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == ("clique_0: x1 + x2 + x3 <= 1  # violation=0.500000\n"
                           "clique_1: x4 + x5 + x6 <= 1  # violation=0.500000\n")


def test_cli_import_skips_numpy():
    proc = _run_python("-c", "import sys, cgcuts.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_package_runs_without_numpy():
    tests = str(Path(__file__).resolve().parent)
    proc = _run_python("-c", f"""if True:
        import importlib, pkgutil, sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        sys.path.insert(0, {tests!r})
        import cgcuts
        for info in pkgutil.iter_modules(cgcuts.__path__):
            importlib.import_module("cgcuts." + info.name)
        import gen
        from cgcuts import (BkParams, FractionalPoint, build, separate_cliques,
                            separate_odd_cycles, strengthen)
        from cgcuts.oracle import probe_pairs
        inst = gen.odd_wheel_instance()
        g = build(inst)
        strengthen(inst, g)
        hub = FractionalPoint({{5: 0.4, 6: 0.4, 7: 0.4}})
        assert separate_cliques(g, hub, 0.02, BkParams())
        assert separate_odd_cycles(g, FractionalPoint({{j: 0.5 for j in range(5)}}))
        assert len(probe_pairs(inst).edges) == 23
        print("ok")
    """)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_cli_import_skips_oracle():
    proc = _run_python("-c", "import sys, cgcuts.cli; print('cgcuts.oracle' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_cli_import_skips_separators():
    # -S: a .pth file that site runs may import typing before cgcuts does.
    names = ["cgcuts.bk", "cgcuts.sep_clique", "cgcuts.sep_oddcycle", "logging", "heapq",
             "dataclasses", "inspect", "typing"]
    proc = _run_python("-S", "-c", f"import sys, cgcuts.cli; "
                             f"print([m for m in {names!r} if m in sys.modules])")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_separators_import_no_dataclasses():
    # Every record is a model._Record class, the separators' too.
    names = ["dataclasses", "inspect", "typing"]
    proc = _run_python("-S", "-c", "import sys, cgcuts.bk, cgcuts.sep_clique, "
                             "cgcuts.sep_oddcycle, cgcuts.oracle; "
                             f"print([m for m in {names!r} if m in sys.modules])")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_package_namespace_loads_separators_on_demand():
    proc = _run_python("-c", """if True:
        import sys, cgcuts
        lazy = ["cgcuts.bk", "cgcuts.sep_clique", "cgcuts.sep_oddcycle"]
        assert not [m for m in lazy if m in sys.modules]
        names = {}
        exec("from cgcuts import *", names)
        assert set(cgcuts.__all__) <= set(names), set(cgcuts.__all__) - set(names)
        assert set(cgcuts.__all__) <= set(dir(cgcuts))
        assert names["separate_cliques"] is sys.modules["cgcuts.sep_clique"].separate_cliques
        assert names["BkParams"] is sys.modules["cgcuts.bk"].BkParams
        try:
            cgcuts.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        print("ok")
    """)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_strengthen_output_parses_when_a_row_is_named_obj(tmp_path, capsys):
    # No N row, and constraints named OBJ and OBJ2: the objective is OBJ3.
    mpath, out = tmp_path / "m.mps", tmp_path / "o.mps"
    mpath.write_text("NAME M\nROWS\n L OBJ\n G OBJ2\nCOLUMNS\n    x OBJ 1.0 OBJ2 1.0\n"
                     "    y OBJ 1.0\nRHS\n    RHS OBJ 1.0\nBOUNDS\n BV BND x\n BV BND y\n"
                     "ENDATA\n")
    assert main(["strengthen", str(mpath), "--out", str(out)]) == 0
    assert main(["stats", str(out)]) == 0
    capsys.readouterr()
    inst = parse_mps(out.read_text())
    assert inst.objective_name == "OBJ3"
    assert [r.name for r in inst.rows] == ["OBJ", "OBJ2"]
    assert inst == parse_mps(mpath.read_text())


def test_strengthen_exits_2_on_a_row_or_objective_named_marker(tmp_path, capsys):
    for kind, text in (("row", gen.MARKER_ROW_MPS), ("objective", gen.MARKER_OBJECTIVE_MPS)):
        mpath, out = tmp_path / "m.mps", tmp_path / "o.mps"
        mpath.write_text(text)
        assert main(["strengthen", str(mpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {kind} name \"'MARKER'\" would not parse back\n", err
        assert not out.exists()
