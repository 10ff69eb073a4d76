"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json's bounds
are judged.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--out runs.json]
                            [--against earlier.json]

Runs `bench/run.py` once per seed and workload, alternating workloads so that
a slow minute of a shared machine does not land on one workload only.  For
each workload and metric it prints the median, the quartiles, the spread
(q3 - q1) / median as Python's statistics.quantiles(n=4) gives them, and the
metric's bound.  With --against it also prints median / earlier median - 1,
the share by which the median worsened against an earlier set of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        for name in args.workloads.split(","):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            *_, details, last = proc.stdout.splitlines()
            result = json.loads(last)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"workload": name, "seed": seed, "elapsed": elapsed,
                         "correct": result["correct"], "failed": result["failed"],
                         "metrics": metrics, "details": json.loads(details)})
            print(f"{name:15s} seed {seed:3d} {elapsed:6.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    earlier = json.loads(Path(args.against).read_text()) if args.against else []
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
          f" {'spread':>7s} {'bound':>6s} {'vs earlier':>10s}")
    for name in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == name]
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            before = [r["metrics"][metric] for r in earlier if r["workload"] == name]
            change = statistics.median(values) / statistics.median(before) - 1 if before else None
            print(f"{name:15s} {metric:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f}"
                  f" {bounds[metric]:>6} "
                  f"{'' if change is None else f'{change:+.3f}':>10s}")
    print(f"\nruns: {len(runs)}, longest {max(r['elapsed'] for r in runs):.1f}s, "
          f"total {sum(r['elapsed'] for r in runs):.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
