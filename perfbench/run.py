"""projmetrics benchmark: experiment tables end to end, checked against exact values.

    python3 perfbench/run.py --workload exact-d3j2 --seed 1 --seconds 30 --trace 0

Run from the root of a projmetrics checkout; the library is imported from
./src.  One repetition of a workload makes all of its tables: the thm
workloads call the CLI entry point `projmetrics.experiments.cli.main` in
process, the fibers workload calls `run_fibers` and `write_csv`.  Outputs go
to a temporary directory under the checkout.  The seed is the CLI's --seed,
so a seed reproduces the tables exactly; fibers-needle draws no random
numbers and only records it.

A first, untimed repetition warms up and its outputs are checked against the
exact references in exact.py; every later repetition must write the same
bytes.  An expected output value fails when its runner aborted, when it is
not finite, or when it reports se = 0 yet misses its exact value.
Repetitions then run until --seconds have passed.  wall_s is their mean and
units_per_s the work done over their total time: on a shared machine whose
speed drifts over tens of seconds, averaging over the whole run is steadier
than a median of a few repetitions.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones (per
repetition), the tracing overhead, and the accuracy of the tables.  Metric
lines go to stdout as `metric <name> <value> <unit>`; the last line is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import exact  # also imports scipy, before any timing
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 5        # fresh interpreters timed for setup_s
MIN_REPS = 3            # untraced repetitions, at least, in a --trace 0 run
MIN_TRACED_REPS = 2     # of each kind, at least, in a --trace 1 run
Z_LIMIT = 6.0           # |estimate - exact| / se allowed for exact-oracle rows
FIBER_TOL = 1e-6        # chord-length tolerance of the Wolfe/bisection fibers
SCHEDULE_RTOL = 1e-12   # schedule columns against their closed forms
RATIO_RTOL = 1e-9       # spread of value / exact across an exact-oracle workload


class LibraryMissing(RuntimeError):
    """The working directory is not a projmetrics checkout."""


def load_library(root: str) -> SimpleNamespace:
    """Import projmetrics from root/src, plus the scipy module it loads lazily."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "projmetrics", "__init__.py")):
        raise LibraryMissing(f"no projmetrics package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    lib = SimpleNamespace(**{
        name.rsplit(".", 1)[-1]: importlib.import_module(f"projmetrics.{name}")
        for name in ("bodies", "constructions", "grassmann", "experiments", "experiments.cli")})
    if not os.path.abspath(lib.bodies.__file__).startswith(os.path.abspath(src)):
        raise LibraryMissing(f"projmetrics was imported from outside {src}")
    importlib.import_module("scipy.spatial")
    return lib


@dataclass
class Row:
    """One checked output value: a table row, or thm3's a0 footer."""

    label: str
    value: float
    se: float        # nan where the program reports no standard error
    exact: float
    failed: bool
    wrong: str = ""  # why the value contradicts the reference, if it does


def _read_table(path: str) -> tuple[list[dict], list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    footer = [line[2:] for line in lines if line.startswith("# ")]
    data = [line for line in lines if line and not line.startswith("# ")]
    return list(csv.DictReader(data)), footer


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _row(label, value, se, exact_value, exact_oracle) -> Row:
    finite = math.isfinite(value) and (math.isnan(se) or math.isfinite(se))
    miss = abs(value - exact_value) > 1e-9 * abs(exact_value)
    failed = not finite or (se == 0.0 and miss)
    wrong = ""
    if finite and exact_oracle and se > 0.0 and abs(value - exact_value) > Z_LIMIT * se:
        wrong = f"{label}: {value!r} +- {se!r} against exact {exact_value!r}"
    return Row(label, value, se, exact_value, failed, wrong)


@dataclass(frozen=True)
class ThmWorkload:
    """thm1/thm2/thm3 tables through the CLI at one (d, j) shape."""

    name: str
    d: int
    j: int
    steps: int
    subspaces: int
    points: int
    workers: int
    commands: tuple[str, ...]
    l0: float = 2.0

    def prepare(self, lib, seed: int, outdir: str) -> list[list[str]]:
        argvs = []
        for command in self.commands:
            argv = [command, "-d", str(self.d), "-j", str(self.j),
                    "--steps", str(self.steps), "--l0", repr(self.l0),
                    "--subspaces", str(self.subspaces), "--points", str(self.points),
                    "--workers", str(self.workers), "--seed", str(seed),
                    "--out", os.path.join(outdir, f"{command}.csv")]
            if command == "thm1":
                argv += ["--svg", os.path.join(outdir, "thm1.svg")]
            argvs.append(argv)
        return argvs

    def run(self, lib, argvs) -> dict[str, int]:
        return {argv[0]: lib.cli.main(argv) for argv in argvs}

    def units(self) -> int:
        """Projection samples per repetition: subspaces times delta_j calls
        (thm3 adds its a0 estimate and the intrinsic-volume cross-check)."""
        calls = {"thm1": self.steps, "thm2": self.steps, "thm3": self.steps + 2}
        return self.subspaces * sum(calls[c] for c in self.commands)

    def rows(self, outdir: str, codes: dict[str, int]) -> list[Row]:
        out = []
        exact_oracle = self.j <= 2
        for command in self.commands:
            if codes[command] != 0:  # the runner aborted: every value is missing
                out += [Row(f"{command} row {i}", math.nan, math.nan, math.nan, True)
                        for i in range(self.steps + (command == "thm3"))]
                continue
            table, footer = _read_table(os.path.join(outdir, f"{command}.csv"))
            if command == "thm1":
                ref = exact.thm1_rows(self.d, self.j, self.l0, self.steps)
                schedule, cols = {"L_i": 0, "eps_i": 1}, ("delta_hat", "delta_se")
            elif command == "thm2":
                ref = exact.thm2_rows(self.d, self.j, self.steps)
                schedule, cols = {"eps_m": 0}, ("step_delta_hat", "step_se")
            else:
                a0 = dict(kv.split("=") for kv in footer[0].split())
                ref = exact.thm3_rows(self.d, self.j, self.steps, float(a0["used"]))
                schedule, cols = {"eps_m": 0}, ("delta_to_empty_hat", "se")
                out.append(_row("thm3 a0", float(a0["a0"]), float(a0["se"]), 1.0,
                                exact_oracle))
            for i, expected in enumerate(ref):
                label = f"{command} row {i}"
                if i >= len(table):
                    out.append(Row(label, math.nan, math.nan, expected[-1], True,
                                   f"{label}: missing"))
                    continue
                rec = table[i]
                row = _row(label, float(rec[cols[0]]), float(rec[cols[1]]), expected[-1],
                           exact_oracle)
                for col, k in schedule.items():
                    if not _close(float(rec[col]), expected[k], SCHEDULE_RTOL):
                        row.wrong = f"{label}: {col} {rec[col]} != {expected[k]!r}"
                out.append(row)
            if len(table) > len(ref):
                out[-1].wrong = f"{command}: {len(table)} rows, expected {len(ref)}"
        finite = [r for r in out if math.isfinite(r.value)]
        if exact_oracle and finite:
            # Every body is flat in the j-plane, and projecting that plane onto
            # a sample subspace scales all its j-volumes by one factor.  All
            # delta_j calls draw the same subspaces, so with exact inner oracles
            # every value is the same multiple of its exact value.
            common = statistics.median(r.value / r.exact for r in finite)
            for r in finite:
                ratio = r.value / r.exact
                if abs(ratio - common) > RATIO_RTOL * common and not r.wrong:
                    r.wrong = (f"{r.label}: {r.value!r} is {ratio!r} times exact, "
                               f"the other values {common!r} times")
        return out


@dataclass(frozen=True)
class FibersWorkload:
    """run_fibers on the unit square plus a prism needle, then write_csv."""

    name: str
    length: float
    eps: float
    grid: int

    def prepare(self, lib, seed: int, outdir: str):
        VPolytope = lib.bodies.VPolytope
        c = lib.constructions
        plane = lib.grassmann.full_space(2)
        x0, u = [0.5, 0.5], [1.0, 0.0]
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        spec = c.NeedleSpec(x0=x0, u=u, plane=plane, length=self.length, eps=self.eps,
                            kind="prism")
        grown = c.augment(square, c.prism_needle(spec))
        tube = VPolytope(spec.x0 + c.cross_section(plane, spec.u, self.eps).vertices)
        return grown, square, tube, os.path.join(outdir, "fibers.csv")

    def run(self, lib, prepared) -> dict[str, int]:
        grown, square, tube, path = prepared
        try:
            table = lib.experiments.run_fibers(grown, square, "e1e2", self.grid, tube=tube)
            lib.experiments.write_csv(table, path)
        except (ValueError, RuntimeError, OSError):
            traceback.print_exc()
            return {"fibers": 1}
        return {"fibers": 0}

    def units(self) -> int:
        """Fiber grid lines per repetition."""
        return self.grid

    def rows(self, outdir: str, codes: dict[str, int]) -> list[Row]:
        ys, diffs, in_tube, measure, outside = exact.fiber_rows(self.length, self.eps,
                                                                 self.grid)
        if codes["fibers"] != 0:
            return [Row(f"fibers row {i}", math.nan, math.nan, d, True)
                    for i, d in enumerate(diffs)]
        table, footer = _read_table(os.path.join(outdir, "fibers.csv"))
        out = []
        for i, (y, ex, tube_ex) in enumerate(zip(ys, diffs, in_tube)):
            label = f"fibers row {i}"
            if i >= len(table):
                out.append(Row(label, math.nan, math.nan, ex, True, f"{label}: missing"))
                continue
            rec = table[i]
            value = float(rec["fiber_diff_length"])
            row = Row(label, value, math.nan, ex, not math.isfinite(value))
            if not _close(float(rec["y"]), y, SCHEDULE_RTOL):
                row.wrong = f"{label}: y {rec['y']} != {y!r}"
            elif abs(value - ex) > FIBER_TOL * (1.0 + ex):
                row.wrong = f"{label}: length {value!r} != {ex!r}"
            elif (rec["in_tube"] == "true") != bool(tube_ex):
                row.wrong = f"{label}: in_tube {rec['in_tube']}"
            out.append(row)
        if len(table) > self.grid:
            out[-1].wrong = f"fibers: {len(table)} rows, expected {self.grid}"
        sums = dict(line.split(": ") for line in footer)
        for key, ex in (("diff_measure", measure), ("diff_measure_outside_tube", outside)):
            if not _close(float(sums[key]), ex, SCHEDULE_RTOL):
                out.append(Row(key, float(sums[key]), math.nan, ex, False,
                               f"{key} {sums[key]} != {ex!r}"))
        return out


# Shapes are fixed by the workload; the sizes are scaled so that one
# repetition takes a few seconds and a run holds several of them.
WORKLOADS = {
    w.name: w for w in (
        ThmWorkload("exact-d3j2", d=3, j=2, steps=6, subspaces=400, points=2000,
                    workers=1, commands=("thm1", "thm2", "thm3")),
        # thm2 is left out: at j >= 3 it aborts with a false AssertionFailure
        ThmWorkload("mc-d4j3", d=4, j=3, steps=12, subspaces=200, points=2000,
                    workers=2, commands=("thm1", "thm3")),
        FibersWorkload("fibers-needle", length=8.0, eps=0.01, grid=400),
    )
}

# sizes for the benchmark's own smoke test
SMALL = {
    "exact-d3j2": dict(subspaces=20),
    "mc-d4j3": dict(subspaces=10, points=200),
    "fibers-needle": dict(grid=40),
}


def git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"  # an exported tree, not a git clone
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:  # no git executable
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure_setup(name: str, seed: int, root: str, outdir: str) -> float:
    """Median time from starting a fresh interpreter to the point where it
    could make the workload's first call."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), outdir],
            cwd=root, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {name} failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child (pool
    workers, setup probes); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _outputs(outdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def layer_metrics(tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced repetition."""
    st, edges = tracer.stats, tracer.edges

    def per(layer, key):
        return st[layer][key] / reps

    m = {}
    for layer, extra in (("numerics.uniform_block", ("values",)),
                         ("numerics.gram_schmidt", ()),
                         ("grassmann.haar_sample", ()),
                         ("grassmann.goodness", ()),
                         ("bodies.hull_2d", ()),
                         ("bodies.polygon_area", ()),
                         ("bodies.polygon_clip", ()),
                         ("bodies.ring_contains", ("points",)),
                         ("metrics.qhull", ("errors",)),
                         ("metrics.delta_j", ("samples", "per_subspace_items")),
                         ("bodies.distance_to_hull", ()),
                         ("bodies.line_fiber", ()),
                         ("metrics.hausdorff", ()),
                         ("metrics.projected_volume", ()),
                         ("experiments.write_csv", ("bytes",))):
        m[f"{layer}.calls"] = (per(layer, "calls"), "count")
        for key in extra:
            m[f"{layer}.{key}"] = (per(layer, key), "B" if key == "bytes" else "count")
        m[f"{layer}.self_s"] = (per(layer, "self_s"), "s")
    for layer in ("metrics.fiber_profile", "constructions.sequence",
                  "experiments.runner", "experiments.write_svg"):
        m[f"{layer}.self_s"] = (per(layer, "self_s"), "s")

    haar, gs, fiber, wolfe = ("grassmann.haar_sample", "numerics.gram_schmidt",
                              "bodies.line_fiber", "bodies.distance_to_hull")
    m[f"{haar}.redraws"] = (edges[haar, gs] / reps - per(haar, "calls"), "count")
    items = st["metrics.delta_j"]["per_subspace_items"]
    m["metrics.delta_j.zero_sample_share"] = (
        st["metrics.delta_j"]["zero_samples"] / items if items else 0.0, "1")
    m["metrics.pool.starts"] = (per("metrics.pool", "starts"), "count")
    m["metrics.pool.start_s"] = (per("metrics.pool", "start_s"), "s")
    m[f"{wolfe}.nonconverged"] = (per(wolfe, "errors"), "count")
    fibers = st[fiber]["calls"]
    m[f"{fiber}.wolfe_per_call"] = (edges[fiber, wolfe] / fibers if fibers else 0.0, "1")
    return m


def accuracy(rows: list[Row]) -> dict[str, float]:
    rel = [abs(r.value - r.exact) / abs(r.exact) for r in rows
           if math.isfinite(r.value) and r.exact != 0.0]
    z = [abs(r.value - r.exact) / r.se for r in rows
         if math.isfinite(r.value) and math.isfinite(r.se) and r.se > 0.0]
    return {"max_rel_err": float(max(rel, default=0.0)),
            "max_abs_z": float(max(z, default=0.0)),
            "failed_share": sum(r.failed for r in rows) / len(rows)}


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        small: bool = False) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    work = WORKLOADS[name]
    if small:
        work = replace(work, **SMALL[name])
    lib = load_library(root)

    print("provenance " + json.dumps({
        "workload": name, "seed": seed, "config": asdict(work), "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "scipy": sys.modules["scipy"].__version__,
        "nproc": len(os.sched_getaffinity(0))}), flush=True)

    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        outdir = os.path.join(tmp, "out")
        dumps = os.path.join(tmp, "spans")
        os.mkdir(outdir)
        os.mkdir(dumps)
        setup_s = None if trace else measure_setup(name, seed, root, outdir)
        prepared = work.prepare(lib, seed, outdir)
        tracer = spans.Tracer()
        # the first repetition warms up, untimed, and its outputs are checked
        codes = work.run(lib, prepared)
        first = _outputs(outdir)
        rows = work.rows(outdir, codes)
        consistent = True
        walls = {False: [], True: []}
        start = time.perf_counter()
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            with spans.traced(tracer, dumps) if traced else nullcontext():
                t0 = time.perf_counter()
                rep_codes = work.run(lib, prepared)
                walls[traced].append(time.perf_counter() - t0)
            consistent &= _outputs(outdir) == first and rep_codes == codes
            elapsed = time.perf_counter() - start
            if trace:
                if elapsed >= seconds and len(walls[True]) >= MIN_TRACED_REPS:
                    break
            elif elapsed >= seconds and len(walls[False]) >= MIN_REPS:
                break

    try:
        os.rmdir(scratch)
    except OSError:  # another run still uses it
        pass

    for row in rows:
        if row.wrong:
            print(f"mismatch {row.wrong}", file=sys.stderr)
    if not consistent:
        print("mismatch: repetitions wrote different outputs", file=sys.stderr)
    acc = accuracy(rows)
    print(f"rows attempted {len(rows)} failed {sum(r.failed for r in rows)}")
    if trace:
        metrics = layer_metrics(tracer, len(walls[True]))
        # repetitions alternate, so each traced one is paired with the
        # untraced one just before it and slow drifts of machine speed cancel
        metrics["trace.overhead_s"] = (
            statistics.median(t - u for u, t in zip(walls[False], walls[True])), "s")
        for key, value in acc.items():
            metrics[f"result.{key}"] = (value, "1")
    else:
        wall = statistics.fmean(walls[False])
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "units_per_s": (work.units() / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        # Accuracy moves with the seed's sampling noise, so it cannot be held to
        # a bound across seeds; traced runs report it as result.* per-layer metrics.
        for key, value in acc.items():
            print(f"metric {key} {value!r} 1")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    for traced, label in ((False, "untraced"), (True, "traced")):
        print(f"repetitions {label} " + " ".join(f"{w:.4f}" for w in walls[traced]))
    return {
        "correct": consistent and not any(r.wrong for r in rows),
        "attempted": len(rows),
        "failed": sum(r.failed for r in rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
