"""The benchmark's own tests: each workload in quick mode, the stored
reference answers, and the tracer's clean removal.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# calls per pass that fail at the commit that defined the benchmark: the
# 3,000-nested-parentheses analyze of cli-mixed raises RecursionError
KNOWN_FAILURES = {"analyze-ladder": 0, "verify-depth": 0, "cli-mixed": 1}

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.splitlines()
    details, result = json.loads(details), json.loads(last)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = {name: m["unit"] for name, m in details["end_to_end"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    assert result["correct"] is True
    assert details["wrong_answers"] == {"value": 0, "unit": "count"}
    passes = details["passes"] + details["traced_passes"]
    assert result["failed"] == KNOWN_FAILURES[workload] * passes
    assert details["failed_share"]["value"] == result["failed"] / result["attempted"]
    assert details["outputs_differ"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_agrees_with_the_facts():
    import checks

    reference = checks.load_reference()
    assert checks.reference_disagreements(reference) == []
    stored = {key for name in WORKLOADS for section in reference[name].values() for key in section}
    assert set(checks.FACTS) <= stored


def test_inputs_depend_on_the_seed_only():
    import workloads

    for name in WORKLOADS:
        first = workloads.build(name, 5)
        assert first.files == workloads.build(name, 5).files
        assert first.calls == workloads.build(name, 5).calls
        assert first.files != workloads.build(name, 6).files


def test_tracer_restores_every_name():
    import fsing.cli  # noqa: F401  (loads every fsing module)
    import tracer as tracing

    def bindings():
        out = {}
        for mod in tracing.Tracer._modules():
            for key, value in vars(mod).items():
                out[(mod.__name__, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(mod.__name__, key, attr)] = member
        return out

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = [k for k, v in bindings().items() if before.get(k) is not v]
        assert ("fsing.cli", "analyze") in changed
        assert ("fsing.invariants", "analyze") in changed
        assert ("fsing.groebner", "Ideal", "groebner") in changed
    finally:
        tracer.remove()
    assert tracer.leftovers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
