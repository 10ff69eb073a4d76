"""fsing benchmark: one seeded workload driven through the CLI in-process.

    python3 bench/run.py --workload analyze-ladder --seed 1 --seconds 30 --trace 0

One process runs one workload.  It first times fresh interpreters that import
fsing and write the workload's problem files (`setup_s`), then calls
`fsing.cli.main(argv)` with `--json` for each call of the workload, one
caller in a closed loop, pass after pass until `--seconds` is spent.  Every
output is checked (see checks.py).  The last line of standard output is the
result object; the line before it gives the details.

`--trace 0` reports the end-to-end metrics: the median pass time, and the
median and tail latency of the calls, each call taken at its median time over
the passes.  Call times are scaled to the speed gauge's reference speed (see
GAUGE_REFERENCE_S); the measured times are on the details line.  `--trace 1` spends half the time in passes with layer spans
installed (see tracer.py) and half without, and reports the per-layer
metrics, each the median over the traced passes.  `--quick` runs a small
version of each workload, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7

# The speed gauge: a fixed pure-Python loop, timed before the first call of a
# pass and then whenever GAUGE_EVERY_S has passed since the last timing.  On
# the 2-core shared machine the benchmark was tuned on, the speed of the whole
# machine drifted by 15-30% from one run to the next; every call time is
# reported at the gauge's reference speed, its time when that machine was
# quiet.
GAUGE_LOOP = 20_000
GAUGE_EVERY_S = 0.05
GAUGE_REFERENCE_S = 0.0014

# units of wrong_answers and failed_share, which go on the details line:
# both are 0 when every call succeeds, so they are not gated metrics
OUTCOME_UNITS = {"wrong_answers": "count", "failed_share": "ratio"}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass
class Record:
    call: object
    code: int | None
    stdout: str
    error: str | None
    seconds: float

    @property
    def succeeded(self) -> bool:
        return self.error is None and self.code in self.call.expect


@dataclass
class Pass:
    records: list[Record]
    gauges: list[float]
    layers: dict = field(default_factory=dict)
    root_s: float = 0.0

    @property
    def wall(self) -> float:
        """Measured time of all calls, gauge timings left out."""
        return sum(rec.seconds for rec in self.records)

    @property
    def speed(self) -> float:
        """Reported seconds per measured second in this pass."""
        return GAUGE_REFERENCE_S / statistics.median(self.gauges)


def gauge() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOP):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def run_call(cli, call, workdir) -> Record:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv(workdir))
    except SystemExit as exc:
        # argparse rejects bad arguments this way, with code 2
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        # an uncaught error fails the call; the pass goes on
        error = type(exc).__name__
    return Record(call, code, out.getvalue(), error, time.perf_counter() - start)


def run_passes(cli, calls, workdir, budget, tracer=None) -> list[Pass]:
    """Passes over all calls until the next one would overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        done = Pass([], [gauge()])
        last = time.perf_counter()
        for call in calls:
            done.records.append(run_call(cli, call, workdir))
            if time.perf_counter() - last >= GAUGE_EVERY_S:
                done.gauges.append(gauge())
                last = time.perf_counter()
        if tracer is not None:
            done.layers, done.root_s = tracer.snapshot(), tracer.root_s
        passes.append(done)
        elapsed = time.perf_counter() - t0
        if time.perf_counter() - start + elapsed > budget:
            return passes


def tail(latencies):
    """Latency at the highest percentile with at least ten calls beyond it,
    and that percentile; never below the median, for small quick runs."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure_setup(args, workdir, samples) -> float:
    """Median time from starting a fresh interpreter until its problem files
    are written and it could make the first call.  Measured as is: the gauge
    reads slow right after a child process ran, so it cannot scale these."""
    times = []
    for i in range(samples):
        cmd = [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed),
               str(workdir / f"setup{i}")]
        if args.quick:
            cmd.append("--quick")
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up sample exited with code {code}")
    return statistics.median(times)


def src_lines() -> int:
    return sum(path.read_text().count("\n") for path in sorted((SRC / "fsing").rglob("*.py")))


def outputs_differ(passes) -> list[str]:
    """Calls whose standard output is not the same bytes in every pass."""
    first = passes[0].records
    return sorted({
        rec.call.key
        for p in passes[1:]
        for rec, ref in zip(p.records, first)
        if rec.stdout != ref.stdout
    })


def typical(passes) -> list[float]:
    """Each call's median time over the passes, at the reference speed."""
    return [statistics.median(rec.seconds * p.speed for rec, p in zip(recs, passes))
            for recs in zip(*(p.records for p in passes))]


def timing(passes) -> dict:
    calls = typical(passes)
    tail_s, percentile = tail(calls)
    return {
        "wall_s": statistics.median(p.wall * p.speed for p in passes),
        "call_p50_s": statistics.median(calls),
        "call_tail_s": tail_s,
        "tail_percentile": percentile,
    }


def layer_metrics(spec, traced, plain) -> dict:
    """Per-layer numbers of one pass, each the median over the traced
    passes; times at the reference speed."""
    def median_of(key):
        return statistics.median(
            p.layers.get(key, 0) * (p.speed if key.endswith(".s") else 1) for p in traced
        )

    out = {m["name"]: median_of(m["name"]) for m in spec["per_layer"]}
    tried = median_of("invariants.q_tried")
    searches = median_of("invariants.find_stable_q.calls")
    out["invariants.q_tried"] = tried / searches if searches else 0.0
    call_s = sum(rec.seconds for p in traced for rec in p.records)
    out["bench.calib_s"] = statistics.median(g for p in traced + plain for g in p.gauges)
    out["bench.uncovered_share"] = (call_s - sum(p.root_s for p in traced)) / call_s
    out["bench.trace_overhead_s"] = (
        statistics.median(p.wall * p.speed for p in traced)
        - statistics.median(p.wall * p.speed for p in plain)
    )
    out["repo.src_lines"] = src_lines()
    return out


def run(args, spec, workdir) -> dict:
    import checks
    import workloads

    # fresh interpreters first, before this one has anything cached
    setup_s = measure_setup(args, workdir, 1 if args.quick else SETUP_SAMPLES)

    sys.path.insert(0, str(SRC))
    fsing = importlib.import_module("fsing")
    cli = importlib.import_module("fsing.cli")
    if Path(fsing.__file__).resolve().parent != SRC / "fsing":
        raise BenchError(f"imported fsing from {fsing.__file__}, not from {SRC}")

    reference = checks.load_reference()
    broken = checks.reference_disagreements(reference)
    if broken:
        raise BenchError(f"stored reference answers contradict facts: {broken}")
    workload = workloads.build(args.workload, args.seed, args.quick)
    inputs = workdir / "inputs"
    workload.write(inputs)
    checker = checks.Checker(workload, reference[workload.name], workloads.DEFAULT_SEED)

    traced = []
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, workload.calls, inputs, args.seconds / 2, tracer)
        finally:
            tracer.remove()
        left = tracer.leftovers()
        if left:
            raise BenchError(f"wrapped names not restored: {left}")
        plain = run_passes(cli, workload.calls, inputs, args.seconds / 2)
    else:
        plain = run_passes(cli, workload.calls, inputs, args.seconds)

    passes = traced + plain
    records = [rec for p in passes for rec in p.records]
    failed = sum(not rec.succeeded for rec in records)
    wrong = [msg for p in passes for msg in checker.check_pass(p.records)]
    differ = outputs_differ(passes)
    times = timing(plain)
    values = {
        "setup_s": setup_s,
        "wall_s": times["wall_s"],
        "call_p50_s": times["call_p50_s"],
        "call_tail_s": times["call_tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    end_to_end = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_walls_measured": [p.wall for p in plain],
        "pass_speeds": [p.speed for p in plain],
        "calls_per_pass": len(workload.calls),
        "call_tail_percentile": times["tail_percentile"],
        "end_to_end": end_to_end,
        "wrong_answers": {"value": len(wrong), "unit": OUTCOME_UNITS["wrong_answers"]},
        "failed_share": {"value": failed / len(records), "unit": OUTCOME_UNITS["failed_share"]},
        "bench.calib_s": {
            "value": statistics.median(g for p in passes for g in p.gauges), "unit": "s"
        },
        "failures": sorted({
            f"{rec.call.key}: {rec.error or f'exit {rec.code}'}"
            for rec in records if not rec.succeeded
        }),
        "wrong": wrong[:20],
        "outputs_differ": differ,
    }
    print(json.dumps(details, sort_keys=True))
    if args.trace:
        layers = layer_metrics(spec, traced, plain)
        reported = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]}
    else:
        reported = end_to_end
    return {
        "correct": not wrong and not differ,
        "attempted": len(records),
        "failed": failed,
        "metrics": reported,
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small workloads, one set-up sample")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fsing" / "__init__.py").is_file():
        print(f"bench: no fsing sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one BLAS thread on a shared 2-core machine; set before numpy loads, and
    # inherited by the set-up samples
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workdir = WORK / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args, spec, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
