"""Worker process of the rounds workloads: set up, then the closed op loop.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (started by run.py).
The worker holds only the program and its inputs, so its peak RSS is the
program's.  Outside the timed regions it writes one JSON line per op with
the canonical payload, for run.py to gate; at exit it writes its timings,
and with tracing on, its spans and unit summaries.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cgcuts.bk  # noqa: E402
import cgcuts.cgraph  # noqa: E402
import cgcuts.model  # noqa: E402
import cgcuts.sep_clique  # noqa: E402
import cgcuts.sep_oddcycle  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, peak_rss_mb  # noqa: E402

MIN_VIOL = 0.02


def clique_op(g, point):
    return cgcuts.sep_clique.separate_cliques(g, point, MIN_VIOL, cgcuts.bk.BkParams())


def clique_payload(cuts) -> list:
    return sorted([sorted(c.members), f"{c.violation:.9f}", sorted(c.lifted_members)]
                  for c in cuts)


def odd_op(g, point):
    return cgcuts.sep_oddcycle.separate_odd_cycles(g, point)


def odd_payload(cuts) -> list:
    return sorted([list(c.cycle), sorted(c.center), f"{c.violation:.9f}"] for c in cuts)


KINDS = {
    "clique-rounds": (workloads.clique_model, workloads.clique_point, clique_op, clique_payload),
    "oddcycle-rounds": (workloads.oddcycle_model, workloads.oddcycle_point, odd_op, odd_payload),
}


def main(cfg_path: str) -> int:
    with open(cfg_path, encoding="utf-8") as f:
        cfg = json.load(f)
    make_model, make_point, op, payload_of = KINDS[cfg["workload"]]
    seed, trace = cfg["seed"], cfg["trace"]
    models = [make_model(seed, m) for m in range(workloads.ROUND_MODELS)]
    graphs = [None] * len(models)
    tracer = Tracer() if trace else None
    scale = speed.Scale()
    setup_s = []  # parse, build and one warm-up op, each on its own point
    for i in range(cfg["setups"]):  # set-up i is of model i % ROUND_MODELS
        m = i % len(models)
        graphs[m] = None
        warm = cgcuts.model.FractionalPoint(make_point(models[m], seed, f"warmup/{i}"))
        if tracer:
            tracer.install()
            tracer.begin_unit("setup", i)
        t0 = time.perf_counter()
        graphs[m] = cgcuts.cgraph.build(cgcuts.model.parse_mps(models[m].mps))
        if tracer:
            tracer.uninstall()
            tracer.end_unit(window=True)
        op(graphs[m], warm)
        dt = time.perf_counter() - t0
        setup_s.append(dt * scale.after())

    ops = []  # [k, seconds, traced, error, factor to reference seconds]
    with open(cfg["payloads"], "w", encoding="utf-8") as out:
        start = time.perf_counter()
        k = 0
        while True:
            m = k % len(models)
            p = cgcuts.model.FractionalPoint(make_point(models[m], seed, k))
            for traced in ((True, False) if tracer else (False,)):
                if traced:
                    tracer.install()
                    tracer.begin_unit("op", k)
                error = None
                t0 = time.perf_counter()
                try:
                    cuts = op(graphs[m], p)
                except Exception as exc:  # a failed op is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                    tracer.end_unit(window=k < cfg["window"])
                ops.append([k, dt, traced, error, scale.after()])
                line = {"k": k, "cuts": None if error else payload_of(cuts)}
                out.write(json.dumps(line, separators=(",", ":")) + "\n")
            k += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= cfg["seconds"] and len(ops) >= cfg["min_ops"]
                    and k >= cfg["window"]) or elapsed >= cfg["max_seconds"]:
                break

    result = {"setup_s": setup_s, "ops": ops, "loop_s": scale.loops,
              "peak_rss_mb": peak_rss_mb()}
    if tracer:
        result["units"] = tracer.units
        result["missing"] = tracer.missing
        with open(cfg["spans"], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    with open(cfg["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
