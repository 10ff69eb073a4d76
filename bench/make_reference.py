"""Write reference.json: the answers of every workload at the default seed.

    python3 bench/make_reference.py

Run it only when the program's answers are meant to change; the benchmark
counts every later disagreement as a wrong answer.  It refuses to write
answers that contradict the facts in checks.py or break a consistency rule.
"""

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from fsing import cli

    reference = {"default_seed_value": workloads.DEFAULT_SEED}
    workdir = run.WORK / f"reference-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            workload.write(workdir / name)
            records = [run.run_call(cli, call, workdir / name) for call in workload.calls]
            empty = {"any_seed": {}, "default_seed": {}}
            wrong = checks.Checker(workload, empty, workloads.DEFAULT_SEED).check_pass(records)
            if wrong:
                print("\n".join(wrong), file=sys.stderr)
                return 1
            stored = reference[name] = {"any_seed": {}, "default_seed": {}}
            for rec in records:
                if not rec.succeeded:
                    continue
                out = checks.parse_output(rec.call.command, rec.stdout)
                if rec.call.command == "batch":
                    for record in out:
                        section = (
                            "default_seed" if record["file"] in workload.random_files
                            else "any_seed"
                        )
                        stored[section][f"batch/{record['file']}"] = {"exit": 0, "out": record}
                    continue
                section = "any_seed" if rec.call.any_seed else "default_seed"
                stored[section][rec.call.key] = {"exit": rec.code, "out": out}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
