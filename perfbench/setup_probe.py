"""Child process that run.py times for setup_s.

A fresh interpreter imports the library and prepares one workload's inputs,
then prints `ready`: the point where it could make the workload's first call.

    python3 perfbench/setup_probe.py <workload> <seed> <output dir>
"""

import os
import sys

import run


def main() -> int:
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    run.WORKLOADS[name].prepare(run.load_library(os.getcwd()), seed, outdir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
