"""Command-line front end: stats, strengthen, separate.

Exit codes for ``separate``: 0 when cuts were found, 1 when none, 2 on
errors: bad files, usage, or any other exception, which is reported as
one ``error: <Type>: <message>`` line.  Cut and model payloads are
byte-identical for identical inputs; the stats report includes
wall-clock timing and is exempt from that guarantee.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cgraph import build
from .model import MilpInstance, Row, parse_mps, read_point, write_mps
from .presolve import strengthen


def _load_model(path: str) -> MilpInstance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_mps(f.read())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def format_row(row: Row, instance: MilpInstance) -> str:
    parts = []
    for j, a in row.coeffs:
        name = instance.variables[j].name
        mag = abs(a)
        term = name if mag == 1.0 else f"{mag:g} {name}"
        if not parts:
            parts.append(term if a > 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if a > 0 else f"- {term}")
    expr = " ".join(parts) if parts else "0"
    return f"{expr} <= {row.rhs:g}"


def cmd_stats(args) -> int:
    instance = _load_model(args.model)
    t0 = time.perf_counter()
    g = build(instance, args.min_clq_size)
    elapsed = time.perf_counter() - t0
    n_bin = len(instance.binary_indices())
    n_int = sum(1 for v in instance.variables if v.is_integer and not v.is_binary)
    n_con = instance.n_vars - n_bin - n_int
    nz = sum(len(r.coeffs) for r in instance.rows)
    # degree() counts the complement, which is no edge of the graph; it
    # builds no neighbor tuple, so one literal's neighbors are held at a time.
    n_edges = sum(g.degree(a) - 1 for a in range(g.n_nodes)) // 2
    st = g.store
    stored_first = sum(st.first_stored)
    lines = [
        f"instance: {instance.name or args.model}",
        f"variables: {instance.n_vars} (binary {n_bin}, integer {n_int}, continuous {n_con})",
        f"rows: {len(instance.rows)}  nonzeros: {nz}",
        f"conflict graph: nodes {g.n_nodes}, edges {n_edges}",
        f"cliques detected: {g.cliques_detected}",
        f"stored: first cliques {stored_first}, tuples {len(st.addtl)}, adjlist entries {g.adj_entries}",
        f"build time: {elapsed:.6f} s",
    ]
    text = "\n".join(lines) + "\n"
    if args.dump:
        text += g.dump(instance)
    _emit(text, args.out)
    return 0


def cmd_strengthen(args) -> int:
    instance = _load_model(args.model)
    # No name holds the graph, so it and its block-member sets are freed
    # before the rewritten model is written.
    report = strengthen(instance, build(instance, args.min_clq_size), args.alpha_max)
    _emit(write_mps(report.instance), args.out)
    added = sum(k for _, k in report.extended)
    print(
        f"rows extended: {len(report.extended)}  "
        f"rows removed: {len(report.removed_rows)}  "
        f"literals added: {added}",
        file=sys.stderr,
    )
    return 0


def cmd_separate(args) -> int:
    # Only this command runs the separators, so only it imports them.
    from .bk import BkParams
    from .sep_clique import cut_to_row, separate_cliques
    from .sep_oddcycle import oddwheel_to_row, separate_odd_cycles

    instance = _load_model(args.model)
    g = build(instance, args.min_clq_size)
    with open(args.point, "r", encoding="utf-8") as f:
        point = read_point(f.read(), instance)
    n = instance.n_vars
    if args.kind == "clique":
        params = BkParams(max_calls=args.max_calls)
        cuts = separate_cliques(g, point, args.min_viol, params)
        found = [(cut_to_row(cut, n, f"clique_{i}"), cut.violation, "")
                 for i, cut in enumerate(cuts)]
    else:
        cuts = separate_odd_cycles(g, point)
        found = [(oddwheel_to_row(cut, n, f"oddcycle_{i}"), cut.violation,
                  ",".join(instance.node_name(v) for v in sorted(cut.center)))
                 for i, cut in enumerate(cuts)]
    lines = []
    for row, violation, center in found:
        if args.machine:
            terms = ",".join(f"{instance.variables[j].name}:{a:g}" for j, a in row.coeffs)
            lines.append(f"cut\t{row.name}\t{violation:.9f}\t<=\t{row.rhs:g}\t{terms}")
        else:
            annotation = f"  # violation={violation:.6f}"
            if center:
                annotation += f" center=[{center}]"
            lines.append(f"{row.name}: {format_row(row, instance)}{annotation}")
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0 if cuts else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-clq-size", type=int, default=512,
                   help="cliques this small are stored pairwise (default 512)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgcuts",
        description="Conflict-graph presolve and cut separation for 0-1 programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="model and conflict-graph statistics")
    p_stats.add_argument("model")
    p_stats.add_argument("--dump", action="store_true", help="append the graph dump")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_str = sub.add_parser("strengthen", help="clique-strengthen set-packing rows")
    p_str.add_argument("model")
    p_str.add_argument("--alpha-max", type=int, default=128,
                       help="only extend rows with at most this many variables")
    _add_common(p_str)
    p_str.set_defaults(func=cmd_strengthen)

    p_sep = sub.add_parser("separate", help="separate cuts against a point")
    sep_sub = p_sep.add_subparsers(dest="kind", required=True)
    p_clq, p_odd = sep_sub.add_parser("clique"), sep_sub.add_parser("oddcycle")
    p_clq.add_argument("--min-viol", type=float, default=0.02)
    p_clq.add_argument("--max-calls", type=int, default=100_000)
    for q in (p_clq, p_odd):
        q.add_argument("model")
        q.add_argument("point")
        q.add_argument("--machine", action="store_true",
                       help="tab-separated machine-readable cut lines")
        _add_common(q)
    p_sep.set_defaults(func=cmd_separate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as "no cuts" (exit 1)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
