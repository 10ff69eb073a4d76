#!/usr/bin/env python3
"""Compare what the CLI prints from two source trees, call by call.

Each tree runs in one subprocess of its own, every call through
fsing.cli.main in-process: every call of the three benchmark workloads of
bench/workloads.py at each seed (their problem files written to a fresh
directory), `analyze`, `witness` and `verify`, text and --json, on every
problems/*.ci, and `batch problems/`, text and --json.  Per call it
compares stdout, stderr and the exit code, or the type of the exception the
call raised; each tree's work directory reads as <workdir> in both streams.
Prints the key of every call that differs, with the fields that differ,
and exits 1 on any difference, else 0.  Each subprocess is this script,
run as `compare_outputs.py --collect SRC OUT SEED...`.

Usage:
    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC
    python3 scripts/compare_outputs.py ../parent/src src --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
COMMANDS = ("analyze", "witness", "verify")


def calls(workdir: Path, seeds):
    """(key, argv) for every call, the workload files written under workdir."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in seeds:
            workload = workloads.build(name, seed)
            inputs = workdir / f"{name}-{seed}"
            workload.write(inputs)
            for call in workload.calls:
                yield f"{name}/seed{seed}/{call.key}", call.argv(inputs)
    for path in sorted(PROBLEMS.glob("*.ci")):
        for command in COMMANDS:
            yield f"problems/{path.name}/{command}", [command, str(path)]
            yield f"problems/{path.name}/{command} --json", [command, str(path), "--json"]
    yield "problems/batch", ["batch", str(PROBLEMS)]
    yield "problems/batch --json", ["batch", str(PROBLEMS), "--json"]


def run(main, argv, workdir: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        error = type(exc).__name__
    place = str(workdir)
    return {"code": code, "error": error,
            "stdout": out.getvalue().replace(place, "<workdir>"),
            "stderr": err.getvalue().replace(place, "<workdir>")}


def collect(src: str, out: str, seeds) -> None:
    """Run every call on the fsing under src; write {key: outcome} to out."""
    sys.path.insert(0, src)
    from fsing import cli

    if Path(cli.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported fsing from {cli.__file__}, not from {src}")
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for key, argv in calls(workdir, seeds):
            if key in outcomes:
                raise SystemExit(f"two calls share the key {key}")
            outcomes[key] = run(cli.main, argv, workdir)
    Path(out).write_text(json.dumps(outcomes))


def outcomes_of(src: str, seeds, out: Path) -> dict:
    # one hash seed for both trees, so that no set order tells them apart
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--collect", src, str(out), *map(str, seeds)]
    subprocess.run(cmd, check=True, env=env)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="source tree holding the reference fsing package")
    parser.add_argument("new_src", help="source tree holding the fsing package to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="workload seeds")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = outcomes_of(args.old_src, args.seeds, Path(tmp) / "old.json")
        new = outcomes_of(args.new_src, args.seeds, Path(tmp) / "new.json")
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a != b:
            differ += 1
            fields = "call missing" if a is None or b is None else ", ".join(f for f in a if a[f] != b[f])
            print(f"{key}: {fields}")
    print(f"{len(old)} calls compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--collect"]:
        collect(sys.argv[2], sys.argv[3], [int(s) for s in sys.argv[4:]])
    else:
        sys.exit(main())
