"""Closed-loop benchmark of cgcuts: clique rounds, odd-cycle rounds and
CLI strengthening.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_A DIR_B

Run from the root of a cgcuts checkout.  One client drives each workload
and starts the next op only when the previous one has returned.  The
rounds workloads run in a worker process (perfbench/worker.py) so that
the checker's memory stays out of the program's peak RSS; cli-strengthen
spawns one interpreter per op (perfbench/cli_shim.py).  Every op is gated
outside the timed region against conflicts from ``cgcuts.oracle``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced ops and prints the per-layer metrics.  The last line
of standard output is one JSON object; each run also leaves its result in
.perfbench/results/ and, when traced, its spans in .perfbench/traces/.
``--compare`` reads two directories of such results.  DESIGN.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# min_ops: ops a run completes at least; window: the leading points (or
# models) whose payloads make the digest and whose counts are reported.
WORKLOADS = {
    "clique-rounds": {"min_ops": 100, "window": 50,
                      "gen": (workloads.clique_model, workloads.clique_point)},
    "oddcycle-rounds": {"min_ops": 100, "window": 50,
                        "gen": (workloads.oddcycle_model, workloads.oddcycle_point)},
    "cli-strengthen": {"min_ops": 20, "window": workloads.CLI_MODELS},
}
SETUPS = 12  # set-ups per untraced rounds run, 3 per model; setup_s is their median
MIN_VIOL = 0.02
MAX_SECONDS = 100  # a loop stops here even short of min_ops
WORKER_TIMEOUT = 160
OP_TIMEOUT = 60


class Outcome:
    """Gate results of one run, in op order."""

    def __init__(self) -> None:
        # Latencies are in reference seconds (speed.py); wall: as timed.
        self.lat: list[float] = []  # untraced op latencies (inf if failed)
        self.wall: list[float] = []  # untraced wall latencies of passing ops
        self.traced: list[float] = []  # traced op latencies of passing ops
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.window: dict[int, tuple[str, int, float, int]] = {}  # k -> (payload, cuts, viol, lits)

    def record(self, k: int, dt: float, factor: float, traced: bool,
               reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op on item {k}: {reason}")
        if traced:
            if not reason:
                self.traced.append(dt * factor)
        else:
            self.lat.append(math.inf if reason else dt * factor)
            if not reason:
                self.wall.append(dt)

    def digest(self, window: int) -> str:
        h = hashlib.sha256()
        for k in range(window):
            h.update(self.window.get(k, ("missing",))[0].encode() + b"\n")
        return h.hexdigest()

    def per_item(self, field: int) -> float:
        vals = [v[field] for v in self.window.values()]
        return sum(vals) / len(vals) if vals else 0.0


# --------------------------------------------------------------------------
# rounds workloads


def run_rounds(name: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    import checks

    spec = WORKLOADS[name]
    make_model, make_point = spec["gen"]
    models = [make_model(seed, m) for m in range(workloads.ROUND_MODELS)]
    cfg = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
           "setups": len(models) if trace else SETUPS, "min_ops": spec["min_ops"],
           "window": spec["window"], "max_seconds": MAX_SECONDS,
           "payloads": str(run_dir / "payloads.jsonl"),
           "result": str(run_dir / "result.json"),
           "spans": str(WORK / "traces" / f"{name}.jsonl")}
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads((run_dir / "result.json").read_text())
    cfs: dict[int, checks.Conflicts] = {}

    out = Outcome()
    points: dict[int, dict[int, float]] = {}
    seen: dict[int, str] = {}
    with open(cfg["payloads"], encoding="utf-8") as f:
        for (k, dt, traced, error, factor), line in zip(res["ops"], f):
            cuts = json.loads(line)["cuts"]
            reason = error
            if not reason:
                m = k % len(models)
                x = points.setdefault(k, make_point(models[m], seed, k))
                if m not in cfs:
                    cfs[m] = checks.Conflicts(models[m].mps)
                cf = cfs[m]
                if name == "clique-rounds":
                    reason = checks.check_clique_cuts(cf, x, cuts, MIN_VIOL)
                    lits = sum(len(c[2]) for c in cuts)
                    viol = sum(float(c[1]) for c in cuts)
                else:
                    reason = checks.check_oddwheel_cuts(cf, x, cuts)
                    lits = sum(len(c[1]) for c in cuts)
                    viol = sum(float(c[2]) for c in cuts)
                payload = json.dumps(cuts, separators=(",", ":"))
                if seen.setdefault(k, payload) != payload:
                    reason = reason or "payload differs between two ops on one point"
                if k < spec["window"] and not reason:
                    out.window.setdefault(k, (payload, len(cuts), viol, lits))
            out.record(k, dt, factor, traced, reason)
    return {"outcome": out, "setup_s": res["setup_s"], "rss_mb": res["peak_rss_mb"],
            "loop_s": res["loop_s"],
            "units": res.get("units", []), "missing": res.get("missing", []),
            "setup_note": f"median of {len(res['setup_s'])} set-ups"}


# --------------------------------------------------------------------------
# cli-strengthen


def run_cli(seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    import checks

    spec = WORKLOADS["cli-strengthen"]
    models = [workloads.cli_model(seed, m) for m in range(workloads.CLI_MODELS)]
    paths = []
    for m, model in enumerate(models):
        paths.append(run_dir / f"model{m}.mps")
        paths[-1].write_text(model.mps)
    shim = str(HERE / "cli_shim.py")
    ops = []  # (k, seconds, traced, imported_s, error, output, sidecar, factor)
    scale = speed.Scale()
    start = time.perf_counter()
    k = 0
    while True:
        m = k % len(models)
        for traced in ((True, False) if trace else (False,)):
            sidecar = run_dir / "sidecar.json"
            out_path = run_dir / "out.mps"
            for p in (sidecar, out_path):
                p.unlink(missing_ok=True)
            argv = [sys.executable, shim, str(sidecar), "1" if traced else "0",
                    "strengthen", str(paths[m]), "--out", str(out_path)]
            error = None
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, capture_output=True, timeout=OP_TIMEOUT)
                dt = time.perf_counter() - t0
                if proc.returncode != 0:
                    error = f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
            except subprocess.TimeoutExpired:
                dt = time.perf_counter() - t0
                error = f"no exit within {OP_TIMEOUT} s"
            record = json.loads(sidecar.read_text()) if sidecar.exists() else {}
            output = out_path.read_bytes() if out_path.exists() and not error else None
            if output is None and not error:
                error = "no output file"
            ops.append((k, dt, traced, record.get("imported", t0) - t0, error, output, record,
                        scale.after()))
        k += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(ops) >= spec["min_ops"]
                and k >= spec["window"]) or elapsed >= MAX_SECONDS:
            break
    rss_mb = max(op[6].get("peak_rss_mb", 0.0) for op in ops)

    cfs = {}
    verified: dict[int, bytes] = {}
    out = Outcome()
    units, spans, missing = [], [], set()
    for k, dt, traced, _, error, output, record, factor in ops:
        m = k % len(models)
        reason = error
        if not reason and verified.get(m) != output:
            if m in verified:
                reason = "output differs from an earlier run on the same model"
            else:
                cf = cfs.setdefault(m, checks.Conflicts(models[m].mps))
                reason, n_ext, added = checks.check_strengthened(
                    cf, models[m].rows, output.decode())
                if not reason:
                    verified[m] = output
                    if k < spec["window"]:
                        out.window[k] = (hashlib.sha256(output).hexdigest(), n_ext, 0.0, added)
        out.record(k, dt, factor, traced, reason)
        if traced and "unit" in record:
            unit = record["unit"]
            unit.update(index=k, window=k < spec["window"])
            units.append(unit)
            spans += [s[:4] + [["op", k]] for s in record["spans"]]
            missing.update(record["missing"])
    if trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        with open(WORK / "traces" / "cli-strengthen.jsonl", "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    imported = [op[3] * op[7] for op in ops if not op[4]]
    return {"outcome": out, "setup_s": imported, "rss_mb": rss_mb, "loop_s": scale.loops,
            "units": units, "missing": sorted(missing),
            "setup_note": f"median of {len(imported)} spawns, spawn to import"}


# --------------------------------------------------------------------------
# metrics and report


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def finite(v: float) -> float:
    """JSON has no infinity; a failed median reads as 1e9 s."""
    return v if math.isfinite(v) else 1e9


def end_to_end(run: dict) -> dict[str, tuple[float, str, str]]:
    """Times are in reference seconds: each is scaled by the host's speed
    around it (speed.py), since the host's own swings exceed the bounds."""
    out: Outcome = run["outcome"]
    lat = out.lat
    ok = [v for v in lat if math.isfinite(v)]
    n = len(lat)
    total = sum(ok)  # failed ops have no latency to add
    return {
        "setup_s": (finite(statistics.median(run["setup_s"] or [math.inf])), "s",
                    run["setup_note"]),
        "op_s_p50": (finite(statistics.median(lat)), "s", f"n={n} ops"),
        "op_s_p90": (finite(percentile(lat, 0.9)), "s",
                     f"n={n} ops, {n - math.ceil(0.9 * n)} beyond"),
        "ops_per_s": (len(ok) / total if total else 0.0, "1/s",
                      f"{len(ok)} ops in {total:.3f} s of ops"),
        "peak_rss_mb": (run["rss_mb"], "MB", "max over the workload's processes"),
        "ok_frac": (1.0 - out.failed / out.attempted, "ratio", f"n={out.attempted} ops"),
    }


def quality(out: Outcome) -> dict[str, tuple[float, str, str]]:
    """Output counts over the digest window.  They repeat exactly for a
    seed but differ between seeds, so BENCHMARK.json gives them no bound."""
    items = f"mean over {len(out.window)} items"
    return {
        "fail_frac": (out.failed / out.attempted, "ratio", f"n={out.attempted} ops"),
        "cuts_per_op": (out.per_item(1), "count", items + "; clique rows written on cli"),
        "viol_per_op": (out.per_item(2), "1", items + "; 0 on cli, which has no point"),
        "lits_added_per_op": (out.per_item(3), "count", items),
    }


def host(run: dict) -> dict[str, tuple[float, str, str]]:
    """The unscaled op latency and the host speed it was scaled by."""
    wall = run["outcome"].wall
    return {
        "wall_op_s_p50": (statistics.median(wall) if wall else 0.0, "s",
                          f"n={len(wall)} passing ops, as timed"),
        "loop_s": (statistics.median(run["loop_s"]), "s",
                   f"median of {len(run['loop_s'])} reference loops; "
                   f"{speed.REF_S} s is reference speed"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "cgcuts" / "__init__.py").is_file():
        print(f"error: no cgcuts sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and every process it starts, so that the
    # reference loop (speed.py) runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli-strengthen":
            run = run_cli(args.seed, args.seconds, bool(args.trace), run_dir)
        else:
            run = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    out: Outcome = run["outcome"]
    window = WORKLOADS[args.workload]["window"]
    digest = out.digest(window)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    extra = {}
    if args.trace:
        metrics = {k: (v, unit, "") for k, (v, unit) in
                   tracer.layer_metrics(run["units"], out.traced, out.lat).items()}
        print(f"  traced ops {len(out.traced)}, untraced ops {len(out.lat)}")
        if run["missing"]:
            print("  not traced (not found): " + ", ".join(run["missing"]))
    else:
        metrics, extra = end_to_end(run), {**quality(out), **host(run)}
    for key, (value, unit, note) in {**metrics, **extra}.items():
        print(f"  {key:<28} {value:<22.10g} {unit:<6} {note}")
    print(f"  digest sha256:{digest}  (items 0..{window - 1})")
    print(f"  gates: {out.attempted - out.failed}/{out.attempted} ops passed")
    for reason in out.reasons:
        print(f"  FAILED {reason}")

    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    saved = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, digest=digest,
                 quality={k: {"value": v, "unit": u} for k, (v, u, _) in extra.items()})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(saved, indent=1))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# compare mode


def _load(d: Path) -> tuple[dict, dict]:
    values: dict[tuple, dict[str, list[float]]] = {}
    digests: dict[tuple, set[str]] = {}
    for p in sorted(d.glob("*.json")):
        r = json.loads(p.read_text())
        key = (r["workload"], r["trace"])
        for name, m in {**r["metrics"], **r["quality"]}.items():
            values.setdefault(key, {}).setdefault(name, []).append(m["value"])
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    return values, digests


def _quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def compare(dir_a: Path, dir_b: Path) -> int:
    """Median and quartiles per workload and metric for two result sets;
    flags a change for the worse beyond the metric's bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    (va, da), (vb, db) = _load(dir_a), _load(dir_b)
    flagged = 0
    for key in sorted(set(va) | set(vb)):
        print(f"{key[0]}  trace {key[1]}   A={dir_a}  B={dir_b}")
        print(f"  {'metric':<28} {'A q1 / median / q3':<36} {'B q1 / median / q3':<36} change")
        for name in sorted(set(va.get(key, {})) | set(vb.get(key, {}))):
            a, b = va.get(key, {}).get(name), vb.get(key, {}).get(name)
            if not a or not b:
                print(f"  {name:<28} only in {'A' if a else 'B'}")
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            m = spec.get(name, {})
            sign = -1.0 if m.get("better") == "higher" else 1.0
            worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = f"  WORSE by {worse:.1%} > bound {m['bound']:.0%}"
                flagged += 1
            fa = " / ".join(f"{x:.4g}" for x in qa)
            fb = " / ".join(f"{x:.4g}" for x in qb)
            print(f"  {name:<28} {fa:<36} {fb:<36} {sign * worse:+.1%}"
                  f" (n={len(a)}/{len(b)}){flag}")
    for key in sorted(set(da) & set(db)):
        if len(da[key] | db[key]) > 1:
            print(f"{key[0]} seed {key[1]}: payload digests differ")
            flagged += 1
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
