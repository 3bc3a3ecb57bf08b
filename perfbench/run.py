"""gvlam benchmark: time to a verdict on seeded query workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  One
client in one process and one thread sends each query after the previous
one returns (a closed loop); rounds of queries run until the timed work
reaches --seconds, and a started round always completes.  Every verdict
is checked after its round, outside the timed calls.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1, odd rounds run with spans around calls into gvlam's modules,
even rounds without, and the last line carries the per-layer metrics and
the tracing overhead.  The line before the last records the run: query
list hash, rounds, failures, the tail percentile used and the src/ line
count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 5
IMPORT_REPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# ---------------------------------------------------------------------------
# Statistics

def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of n samples
    beyond its nearest-rank position; the median when none has."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(p * len(s) / 100)) - 1]


def query_hash(labels) -> str:
    h = hashlib.sha256()
    for label in labels:
        h.update(label.encode())
        h.update(b"\n")
    return h.hexdigest()


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# Fresh interpreters

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "import workloads; workloads.WORKLOADS[sys.argv[3]].setup(); "
    "print('ready', flush=True)")


def measure_setup(name: str) -> float:
    """Time from starting an interpreter until the workload's first query
    could run: importing gvlam, loading the theory and building the
    model.  Input generation is not part of it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name} failed")
    return t1 - t0


def import_times() -> dict:
    """Median cumulative import time of sympy and of gvlam (all of it,
    sympy included), from python -X importtime."""
    sympy_s, gvlam_s = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gvlam"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        sym = top = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2][1:]
            if name.strip() == "sympy":
                sym = cumulative
            if not name.startswith(" ") and name.startswith("gvlam"):
                top += cumulative
        sympy_s.append(sym / 1e6)
        gvlam_s.append(top / 1e6)
    return {"import.sympy_s": statistics.median(sympy_s),
            "import.gvlam_s": statistics.median(gvlam_s)}


# ---------------------------------------------------------------------------
# The closed loop

def run_rounds(wl, state, seed: int, seconds: float, tracer,
               between=lambda done: None):
    """Run rounds until the timed work reaches `seconds`; with a tracer,
    odd rounds run traced.  `between` is called before each round with
    the timed work so far.  Returns the per-query records, the round walls
    by traced flag, the query labels, the failures and the round count."""
    import workloads

    trace = tracer is not None
    records, labels, failures = [], [], []
    walls = {False: [], True: []}
    qid = r = 0
    while r < (2 if trace else 1) or sum(map(sum, walls.values())) < seconds:
        traced = trace and r % 2 == 1
        between(sum(map(sum, walls.values())))
        queries = wl.round(state, seed, r)
        labels += [q.label for q in queries]
        if traced:
            tracer.install()
        outcomes = []
        start = time.perf_counter()
        try:
            for q in queries:
                if traced:
                    tracer.query = qid
                t0 = time.perf_counter()
                try:
                    out = q.run()
                except Exception as exc:   # judged by the query's check
                    out = exc
                t1 = time.perf_counter()
                outcomes.append((q, out, t1 - t0, qid))
                qid += 1
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - start)
        for q, out, _, _ in outcomes:
            if "outcomes" in q.item:
                q.item["outcomes"][q.kind] = out
        for q, out, dt, i in outcomes:
            failed = known = False
            try:
                q.check(out)
            except workloads.Mismatch as exc:
                failed = True
                known = bool(q.defect and q.defect(out))
                failures.append({"query": i, "kind": q.kind,
                                 "known_defect": known,
                                 "reason": str(exc)[:300]})
            records.append({"kind": q.kind, "seconds": dt, "failed": failed,
                            "known": known, "size": q.size, "id": i,
                            "traced": traced})
        r += 1
    return records, walls, labels, failures, r


def end_to_end(records, walls, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    from workloads import KINDS
    lat = [r["seconds"] for r in records]
    p = tail_percentile(len(lat))
    metrics = {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_tail_ms": (percentile(lat, p) if p > 50
                          else statistics.median(lat)) * 1e3,
        "queries_per_s": len(lat) / sum(walls[False]),
        "peak_rss_mb": peak_rss_mb,
    }
    for kind in KINDS:
        times = [r["seconds"] for r in records if r["kind"] == kind]
        metrics[f"{kind}_p50_ms"] = statistics.median(times) * 1e3
    return metrics, {"tail_percentile": p, "tail_samples": len(lat)}


def per_layer(records, walls, tracer) -> dict:
    import tracing
    from gvlam import metmodel
    traced = [r for r in records if r["traced"]]
    sizes = {r["id"]: r["size"] for r in traced if r["size"]}
    values = tracing.layer_metrics(tracer.spans, len(traced), sizes,
                                   metmodel.guard_limit())
    values.update(import_times())
    plain = statistics.mean(walls[False])
    values["trace.overhead_share"] = statistics.mean(walls[True]) / plain - 1
    return values


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------

def load_library():
    """Import gvlam from this checkout's src/, and nowhere else."""
    if not (SRC / "gvlam" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gvlam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gvlam
    if Path(gvlam.__file__).resolve().parent != (SRC / "gvlam").resolve():
        raise SystemExit(f"perfbench: gvlam imported from {gvlam.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    # Set-up is measured SETUP_REPS times, spread over the run so that
    # its median samples the host's speed at several moments.
    setup_times = []

    def between(done):
        if not trace and len(setup_times) < SETUP_REPS and \
                done >= len(setup_times) * args.seconds / SETUP_REPS:
            setup_times.append(measure_setup(wl.name))

    tracer = None
    if trace:
        # The in-process set-up runs traced, so theory loading and its
        # parsing show in the per-layer numbers.
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        state = wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    wl.warmup(state)
    records, walls, labels, failures, rounds = run_rounds(
        wl, state, args.seed, args.seconds, tracer, between)
    while not trace and len(setup_times) < SETUP_REPS:
        setup_times.append(measure_setup(wl.name))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "queries": len(records),
        "query_hash": query_hash(labels), "src_lines": src_lines(),
        "failed_share": sum(r["failed"] for r in records) / len(records),
        "known_defect_failures": sum(r["known"] for r in records),
        "failures": failures[:10],
    }
    if trace:
        metrics = per_layer(records, walls, tracer)
        info["absent_targets"] = tracer.absent
        info["traced_queries"] = sum(r["traced"] for r in records)
    else:
        metrics, tail = end_to_end(records, walls,
                                   statistics.median(setup_times),
                                   peak_rss_mb)
        info.update(tail)
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(metrics)}, "
                         f"declared {sorted(units)}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": all(f["known_defect"] for f in failures),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
