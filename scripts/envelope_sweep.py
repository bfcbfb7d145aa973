#!/usr/bin/env python3
"""Run thm1, thm2 and thm3 through the CLI at every accepted 2 <= j <= d <= 8.

Each cell runs at --steps 12, 50 subspaces and 500 points, with
RuntimeWarnings turned into errors: thm1 at seed 1 and at --l0 2 and 10 (the
longer needles put its Hausdorff column's far points 5 times farther out),
thm2 and thm3 at seeds 1, 2 and 7 (seed 1 alone misses good subspaces that
see the last spindles as slivers).  thm1 at (8, 8) runs at --l0 2 alone: its
8-D qhull step takes about 27 s and fails.  One line per cell gives the exit
code, the seconds taken and the process's peak RSS in MB so far (ru_maxrss);
the peak is a running maximum, so a jump marks the cell that caused it.
After the count of failed cells, the last line gives each command's seconds
summed over its cells.  The script exits 1 if any cell did not exit 0.  An
exception that escapes the CLI is printed with its traceback and reported
as the cell's exit code "exception".

Usage: PYTHONPATH=src python scripts/envelope_sweep.py
About a minute end to end, most of it thm1 at (8, 8), whose 8-D qhull
volumes take seconds each; the thm2 and thm3 cells take about 20 s
together.  The tables go to a temporary directory.
"""

import pathlib
import resource
import sys
import tempfile
import time
import traceback
import warnings

from projmetrics.experiments.cli import main as cli_main


def cells():
    """(command, d, j, seed, l0) for every cell the CLI accepts: thm2 and
    thm3 need j < d, and they ignore l0."""
    for d in range(2, 9):
        for j in range(2, d + 1):
            for l0 in (2, 10) if (d, j) != (8, 8) else (2,):
                yield "thm1", d, j, 1, l0
            if j < d:
                for command in ("thm2", "thm3"):
                    for seed in (1, 2, 7):
                        yield command, d, j, seed, 2


def run_cell(command: str, d: int, j: int, seed: int, l0: int, out: pathlib.Path):
    argv = [command, "-d", str(d), "-j", str(j), "--steps", "12", "--subspaces", "50",
            "--points", "500", "--seed", str(seed), "--l0", str(l0),
            "--out", str(out / f"{command}_d{d}_j{j}_s{seed}_l{l0}.csv")]
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(argv)
    except Exception:  # the sweep reports every cell, so it records this one and goes on
        traceback.print_exc()
        code = "exception"
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed = []
        totals = {}
        for command, d, j, seed, l0 in cells():
            code, seconds = run_cell(command, d, j, seed, l0, pathlib.Path(tmp))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            print(f"{command} d={d} j={j} seed={seed} l0={l0} exit={code} "
                  f"seconds={seconds:.2f} peak_rss_mb={peak_mb:.0f}", flush=True)
            totals[command] = totals.get(command, 0.0) + seconds
            if code != 0:
                failed.append(f"{command}({d},{j},seed {seed},l0 {l0})")
    print(f"{len(failed)} failed cell(s)" + (": " + " ".join(failed) if failed else ""))
    print("seconds per command: " + " ".join(f"{c}={s:.2f}" for c, s in totals.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
