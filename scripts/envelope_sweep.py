#!/usr/bin/env python3
"""Run thm1, thm2 and thm3 through the CLI at every accepted 2 <= j <= d <= 8,
then fibers at every 2 <= d <= 8.

Each thm cell runs at --steps 12, 50 subspaces and 500 points: thm1 at seed 1
and at --l0 2 and 10 (the longer needles put its Hausdorff column's far
points 5 times farther out), thm2 and thm3 at seeds 1, 2 and 7 (seed 1 alone
misses good subspaces that see the last spindles as slivers).  thm1 at
(8, 8) runs at --l0 2 alone: its 8-D qhull step takes about 27 s and fails.
Each fibers cell profiles the unit d-cube grown by a prism needle (length 8,
radius 0.01, from the centroid along e1, the needle of `reproduce`) at grid
400 with the needle's cross-section as tube, over --plane e1e2 and
random:1, and once more over random:1 with the cube's rows reversed, so
that they do not lead the grown body's and its containment is checked.
Every cell runs with RuntimeWarnings turned into errors, so a
division by zero or a NaN in a kernel fails its cell.  One line per cell
gives the exit code, the seconds taken and the process's peak RSS in MB so
far (ru_maxrss); the peak is a running maximum, so a jump marks the cell
that caused it.  After the count of failed cells, a line gives each
command's seconds summed over its cells.  The last lines give the cold
start a CLI user waits for, which no in-process cell sees: for each of
`thm1 -d 4 -j 3 --steps 12`, `hausdorff` on two random 20-vertex bodies in
R^3 and `intrinsic -j 2` on one of them, the median wall time of 5 fresh
`python -m projmetrics` processes, and their exit codes.  The script exits
1 if any cell or cold-start process did not exit 0.  An exception that
escapes the CLI is printed with its traceback and reported as the cell's
exit code "exception".

Usage: PYTHONPATH=src python scripts/envelope_sweep.py
About a minute end to end, most of it thm1 at (8, 8), whose 8-D qhull
volumes take seconds each; the thm2 and thm3 cells take about 20 s
together, the fibers cells well under a second, and the cold starts about
10 s.  The tables and bodies go to a temporary directory.
"""

import itertools
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np

from projmetrics.bodies import VPolytope, save_body
from projmetrics.constructions import NeedleSpec, augment, cross_section, prism_needle
from projmetrics.experiments.cli import main as cli_main
from projmetrics.grassmann import full_space


def thm_cells(out: pathlib.Path):
    """(label, argv) for every thm cell the CLI accepts: thm2 and thm3 need
    j < d, and they ignore l0."""
    def cell(command, d, j, seed, l0):
        argv = [command, "-d", str(d), "-j", str(j), "--steps", "12", "--subspaces", "50",
                "--points", "500", "--seed", str(seed), "--l0", str(l0),
                "--out", str(out / f"{command}_d{d}_j{j}_s{seed}_l{l0}.csv")]
        return f"{command} d={d} j={j} seed={seed} l0={l0}", argv

    for d in range(2, 9):
        for j in range(2, d + 1):
            for l0 in (2, 10) if (d, j) != (8, 8) else (2,):
                yield cell("thm1", d, j, 1, l0)
            if j < d:
                for command in ("thm2", "thm3"):
                    for seed in (1, 2, 7):
                        yield cell(command, d, j, seed, 2)


def fibers_cells(out: pathlib.Path):
    """(label, argv) for the fibers cells, each d's body files written to
    out on the way."""
    for d in range(2, 9):
        cube = VPolytope(list(itertools.product((0.0, 1.0), repeat=d)))
        plane, x0, u = full_space(d), np.full(d, 0.5), np.eye(d)[0]
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=8.0, eps=0.01, kind="prism")
        bodies = {"cube": cube, "reversed": VPolytope(cube.vertices[::-1]),
                  "grown": augment(cube, prism_needle(spec)),
                  "tube": VPolytope(x0 + cross_section(plane, u, spec.eps).vertices)}
        path = {name: str(out / f"{name}_d{d}.body") for name in bodies}
        for name, body in bodies.items():
            save_body(body, path[name])
        for h, inner in (("e1e2", "cube"), ("random:1", "cube"), ("random:1", "reversed")):
            rows = "" if inner == "cube" else f" rows={inner}"
            yield f"fibers d={d} plane={h}{rows}", [
                "fibers", "--body-a", path["grown"], "--body-b", path[inner],
                "--tube", path["tube"], "--plane", h, "--grid", "400",
                "--out", str(out / f"fibers_d{d}_{h.replace(':', '')}_{inner}.csv")]


def cold_start_cells(out: pathlib.Path):
    """(label, argv) for the cold-start lines, the two random bodies in R^3
    written to out on the way."""
    rng = np.random.default_rng(0)
    a, b = str(out / "cold_a.body"), str(out / "cold_b.body")
    for path in (a, b):
        save_body(VPolytope(rng.normal(size=(20, 3))), path)
    yield "thm1 d=4 j=3", ["thm1", "-d", "4", "-j", "3", "--steps", "12",
                           "--out", str(out / "cold_thm1.csv")]
    yield "hausdorff d=3", ["hausdorff", "--body-a", a, "--body-b", b]
    yield "intrinsic d=3 j=2", ["intrinsic", "--body", a, "-j", "2"]


def cold_start(argv: list[str]):
    """The exit codes of 5 fresh CLI processes and their median wall time,
    imports included."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    codes, seconds = set(), []
    for _ in range(5):
        start = time.perf_counter()
        codes.add(subprocess.run([sys.executable, "-m", "projmetrics", *argv], env=env,
                                 capture_output=True).returncode)
        seconds.append(time.perf_counter() - start)
    return sorted(codes), statistics.median(seconds)


def run_cell(argv: list[str]):
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
        out = pathlib.Path(tmp)
        failed = []
        totals = {}
        for label, argv in itertools.chain(thm_cells(out), fibers_cells(out)):
            code, seconds = run_cell(argv)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            print(f"{label} exit={code} seconds={seconds:.2f} peak_rss_mb={peak_mb:.0f}",
                  flush=True)
            totals[argv[0]] = totals.get(argv[0], 0.0) + seconds
            if code != 0:
                failed.append(f"{argv[0]}({label.partition(' ')[2]})")
        print(f"{len(failed)} failed cell(s)" + (": " + " ".join(failed) if failed else ""))
        print("seconds per command: " + " ".join(f"{c}={s:.2f}" for c, s in totals.items()))
        cold_failed = False
        for label, argv in cold_start_cells(out):
            codes, seconds = cold_start(argv)
            print(f"cold start {label} exit={','.join(map(str, codes))} "
                  f"median_s={seconds:.3f} of 5 processes", flush=True)
            cold_failed |= codes != [0]
    return 1 if failed or cold_failed else 0


if __name__ == "__main__":
    sys.exit(main())
