"""Run one workload under several seeds and report each end-to-end
metric's spread: the distance between the first and third quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py WORKLOAD [--seeds 1 2 ...] [--seconds S]

Runs are sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)

    for metric in spec["end_to_end"]:
        vs = values.get(metric["name"], [])
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        flag = "ok" if spread < metric["bound"] / 3 else \
            "WIDE" if spread >= metric["bound"] else "over a third"
        print(f"{metric['name']:16s} median {med:10.4g} spread "
              f"{spread:6.3f} bound {metric['bound']:.2f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
