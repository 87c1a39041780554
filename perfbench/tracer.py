"""In-memory spans and counters around the public functions of each layer.

The tracer rebinds functions of the ``cgcuts`` modules at run time; the
package itself is not changed.  A function is rebound in every loaded
``cgcuts`` module that holds it, so ``from .x import f`` call sites see
the wrapper too.  Spans are ``[name, start, end, parent, unit]`` lists
kept in memory and written out by the caller at exit; a unit is one op or
one set-up, and every span carries the unit it ran in.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute, span name or None for a call counter only).
TARGETS = [
    ("cgcuts.model", "parse_mps", "model.parse"),
    ("cgcuts.model", "write_mps", "model.write"),
    ("cgcuts.model", "normalize_to_knapsack", "model.normalize"),
    ("cgcuts.cgraph", "build", "cgraph.build"),
    ("cgcuts.cgraph", "detect_cliques_compressed", "cgraph.detect"),
    ("cgcuts.cgraph", "ConflictGraph.conflicting", None),
    ("cgcuts.cgraph", "ConflictGraph.neighbors", None),
    ("cgcuts.presolve", "strengthen", "presolve.strengthen"),
    ("cgcuts.presolve", "extend_clique", "presolve.extend"),
    ("cgcuts.bk", "find_cliques", "bk.find"),
    ("cgcuts.sep_clique", "separate_cliques", "sep_clique.separate"),
    ("cgcuts.sep_clique", "fractional_subgraph", "sep_clique.subgraph"),
    ("cgcuts.sep_clique", "extend_cut", "sep_clique.extend"),
    ("cgcuts.sep_oddcycle", "separate_odd_cycles", "sep_oddcycle.separate"),
    ("cgcuts.sep_oddcycle", "build_auxiliary", "sep_oddcycle.aux"),
    ("cgcuts.sep_oddcycle", "lift_center", "sep_oddcycle.lift"),
    ("cgcuts.sep_oddcycle", "_shortest_path", None),
    ("cgcuts.cli", "main", "cli.main"),
]


def _observe_build(c: Counter, args, g) -> None:
    c["cgraph.adj_entries"] += sum(len(a) for a in g.adjlist)
    c["cgraph.stored_cliques"] += sum(g.store.first_stored)
    c["cgraph.stored_tuples"] += len(g.store.addtl)


def _observe_bk(c: Counter, args, result) -> None:
    c["bk.calls"] += result.calls
    c["bk.cliques"] += len(result.cliques)
    c["bk.truncated_rounds"] += not result.exact


def _observe_subgraph(c: Counter, args, sub) -> None:
    c["sep_clique.subgraph_nodes"] += len(sub.nodes)
    c["sep_clique.subgraph_edges"] += sum(m.bit_count() for m in sub.adj) // 2


def _observe_separate_cliques(c: Counter, args, cuts) -> None:
    c["sep_clique.cuts"] += len(cuts)
    c["sep_clique.lifted_lits"] += sum(len(cut.lifted_members) for cut in cuts)


def _observe_aux(c: Counter, args, aux) -> None:
    c["sep_oddcycle.aux_nodes"] += len(aux.adj)
    c["sep_oddcycle.aux_edges"] += sum(len(a) for a in aux.adj) // 2
    c["sep_oddcycle.clamped_edges"] += aux.clamped_edges


def _observe_separate_odd(c: Counter, args, cuts) -> None:
    c["sep_oddcycle.cuts"] += len(cuts)
    c["sep_oddcycle.center_lits"] += sum(len(cut.center) for cut in cuts)


def _observe_strengthen(c: Counter, args, report) -> None:
    c["presolve.rows_extended"] += len(report.extended)
    c["presolve.rows_removed"] += len(report.removed_rows)


OBSERVERS: dict[str, Callable] = {
    "cgraph.build": _observe_build,
    "bk.find": _observe_bk,
    "sep_clique.subgraph": _observe_subgraph,
    "sep_clique.separate": _observe_separate_cliques,
    "sep_oddcycle.aux": _observe_aux,
    "sep_oddcycle.separate": _observe_separate_odd,
    "presolve.strengthen": _observe_strengthen,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.units: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._unit: tuple[str, int] | None = None
        self._unit_start = 0
        self._counts: Counter = Counter()
        self._conflicting = [0]
        self._neighbors = [0]
        self._dijkstra = [0]
        self._seen: set[int] = set()
        self._wrappers: list[tuple[object, Callable, Callable]] | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- units ----------------------------------------------------------

    def begin_unit(self, kind: str, index: int) -> None:
        self._unit = (kind, index)
        self._unit_start = len(self.spans)

    def end_unit(self, window: bool) -> dict:
        """Close the unit and summarize it.  Counters of units outside the
        counting window are dropped, so counts stay repeatable."""
        kind, index = self._unit
        time_s: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(self._unit_start, len(self.spans)):
            name, t0, t1, parent, _ = self.spans[i]
            calls[name] += 1
            time_s[name] += t1 - t0
            self_s[name] += t1 - t0
            if parent >= self._unit_start:
                self_s[self.spans[parent][0]] -= t1 - t0
        counts = self._counts
        counts["cgraph.conflicting_calls"] += self._conflicting[0]
        counts["cgraph.neighbors_calls"] += self._neighbors[0]
        counts["sep_oddcycle.dijkstra_runs"] += self._dijkstra[0]
        counts["cgraph.neighbors_distinct"] += len(self._seen)
        summary = {"kind": kind, "index": index, "window": window,
                   "time": dict(time_s), "self": dict(self_s),
                   "calls": dict(calls) if window else {},
                   "counts": dict(counts) if window else {}}
        self.units.append(summary)
        self._counts = Counter()
        self._conflicting[0] = self._neighbors[0] = self._dijkstra[0] = 0
        self._seen.clear()
        self._unit = None
        return summary

    # -- rebinding ------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._unit]
            spans.append(span)
            stack.append(i)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if observe is not None:
                observe(self._counts, args, result)
            return result

        return wrapper

    def _counter(self, attr: str, fn: Callable) -> Callable:
        if attr == "ConflictGraph.neighbors":
            cell, seen = self._neighbors, self._seen

            def neighbors(g, a):
                cell[0] += 1
                seen.add(a)
                return fn(g, a)

            return neighbors
        cell = self._conflicting if attr == "ConflictGraph.conflicting" else self._dijkstra

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _build_wrappers(self) -> list[tuple[object, Callable, Callable]]:
        out = []
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue  # layer not imported by this process
            owner: object = mod
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None)
            if fn is None:
                # A later version may rename or merge a function; its
                # metrics then read 0 instead of failing the run.
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._span(name, fn) if name else self._counter(attr, fn)
            out.append((owner if len(parts) > 1 else None, fn, wrapped))
        return out

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "cgcuts" or k.startswith("cgcuts."))]
        for cls, fn, wrapped in self._wrappers:
            if cls is not None:
                self._patch(cls, fn.__name__, fn, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapped)

    def _patch(self, owner: object, key: str, fn: object, wrapped: object) -> None:
        setattr(owner, key, wrapped)
        self._patched.append((owner, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()


def peak_rss_mb() -> float:
    """Peak RSS of this process since its last exec.  ``ru_maxrss`` would
    also count the parent's pages from before the exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# --------------------------------------------------------------------------
# Per-layer metrics from unit summaries


def _mean_over_units(units: list[dict], section: str, key: str,
                     window_only: bool) -> float:
    """Mean of one value over the units of the kind that uses it: ops when
    any op has it, else set-ups (the rounds workloads parse and build only
    while setting up)."""
    for kind in ("op", "setup"):
        chosen = [u for u in units if u["kind"] == kind
                  and (u["window"] or not window_only)]
        if any(u[section].get(key) for u in chosen):
            return sum(u[section].get(key, 0) for u in chosen) / len(chosen)
    return 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(units: list[dict], traced_ops: list[float],
                  untraced_ops: list[float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).

    Times are means per unit over every traced unit; counts are means per
    unit over the counting window, so they repeat exactly for a seed.
    """
    import statistics  # here, so that importing the tracer stays cheap in the CLI shim

    def t(span):
        return _mean_over_units(units, "time", span, False)

    def self_t(span):
        return _mean_over_units(units, "self", span, False)

    def calls(span):
        return _mean_over_units(units, "calls", span, True)

    def n(key):
        return _mean_over_units(units, "counts", key, True)

    m: dict[str, tuple[float, str]] = {}
    s, c, r = "s", "count", "ratio"
    m["model.parse_s"] = (t("model.parse"), s)
    m["model.write_s"] = (t("model.write"), s)
    m["model.normalize_calls"] = (calls("model.normalize"), c)
    m["model.normalize_s"] = (t("model.normalize"), s)
    m["cgraph.build_s"] = (t("cgraph.build"), s)
    m["cgraph.detect_calls"] = (calls("cgraph.detect"), c)
    m["cgraph.detect_s"] = (t("cgraph.detect"), s)
    m["cgraph.store_self_s"] = (self_t("cgraph.build"), s)
    for key in ("adj_entries", "stored_cliques", "stored_tuples",
                "neighbors_distinct", "conflicting_calls", "neighbors_calls"):
        m[f"cgraph.{key}"] = (n(f"cgraph.{key}"), c)
    m["presolve.strengthen_s"] = (t("presolve.strengthen"), s)
    m["presolve.extend_calls"] = (calls("presolve.extend"), c)
    m["presolve.extend_s"] = (t("presolve.extend"), s)
    m["presolve.rows_extended"] = (n("presolve.rows_extended"), c)
    m["presolve.rows_removed"] = (n("presolve.rows_removed"), c)
    m["presolve.extend_yield"] = (
        _ratio(n("presolve.rows_extended"), calls("presolve.extend")), r)
    m["bk.find_s"] = (t("bk.find"), s)
    m["bk.calls"] = (n("bk.calls"), c)
    m["bk.calls_per_s"] = (_ratio(n("bk.calls"), t("bk.find")), "1/s")
    m["bk.truncated_rounds"] = (n("bk.truncated_rounds"), c)
    m["bk.cliques"] = (n("bk.cliques"), c)
    m["sep_clique.separate_s"] = (t("sep_clique.separate"), s)
    m["sep_clique.subgraph_s"] = (t("sep_clique.subgraph"), s)
    m["sep_clique.extend_s"] = (t("sep_clique.extend"), s)
    m["sep_clique.extend_calls"] = (calls("sep_clique.extend"), c)
    m["sep_clique.self_s"] = (self_t("sep_clique.separate"), s)
    m["sep_clique.subgraph_nodes"] = (n("sep_clique.subgraph_nodes"), c)
    m["sep_clique.subgraph_edges"] = (n("sep_clique.subgraph_edges"), c)
    m["sep_clique.lifted_lits"] = (n("sep_clique.lifted_lits"), c)
    m["sep_clique.dedup_ratio"] = (
        _ratio(n("sep_clique.cuts"), n("bk.cliques")), r)
    m["sep_oddcycle.separate_s"] = (t("sep_oddcycle.separate"), s)
    m["sep_oddcycle.aux_s"] = (t("sep_oddcycle.aux"), s)
    m["sep_oddcycle.search_self_s"] = (self_t("sep_oddcycle.separate"), s)
    m["sep_oddcycle.lift_s"] = (t("sep_oddcycle.lift"), s)
    m["sep_oddcycle.lift_calls"] = (calls("sep_oddcycle.lift"), c)
    for key in ("aux_nodes", "aux_edges", "clamped_edges"):
        m[f"sep_oddcycle.{key}"] = (n(f"sep_oddcycle.{key}"), c)
    m["sep_oddcycle.cut_yield"] = (
        _ratio(n("sep_oddcycle.cuts"), n("sep_oddcycle.dijkstra_runs")), r)
    m["sep_oddcycle.center_lits"] = (n("sep_oddcycle.center_lits"), c)
    m["cli.main_s"] = (t("cli.main"), s)
    m["cli.self_s"] = (self_t("cli.main"), s)
    m["trace.overhead"] = (
        _ratio(statistics.median(traced_ops), statistics.median(untraced_ops))
        if traced_ops and untraced_ops else 0.0, r)
    return m
