"""One set-up sample: a fresh interpreter imports fsing and writes the
workload's problem files, then prints "ready".

    python3 bench/probe.py <workload> <seed> <directory> [--quick]

`run.py` starts this several times and times each start until "ready".
"""

import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import fsing  # noqa: F401  (importing fsing and numpy is part of set-up)
    import workloads

    workloads.build(name, seed, quick="--quick" in argv[3:]).write(directory)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
