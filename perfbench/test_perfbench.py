"""Tests of the benchmark itself: pinned exact references, and a reduced-size
smoke run of every workload with and without tracing.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import exact
import run

ROOT = os.path.dirname(run.HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_exact_references_pin_known_values():
    rows = exact.thm1_rows(4, 3, 2.0, 12)
    assert round(rows[8][2], 2) == 170.50
    assert round(rows[9][2], 2) == 341.17
    assert exact.flat_volume(exact.cube(4, 3), 3) == pytest.approx(1.0, abs=1e-12)
    _, _, _, measure, outside = exact.fiber_rows(8.0, 0.01, 400)
    assert measure == pytest.approx(1.0, abs=1e-12)
    assert outside == pytest.approx(0.98, abs=1e-12)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric_and_keeps_layers_apart(workload, capsys):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    results = {}
    for trace in (False, True):
        result = run.run(workload, seed=1, seconds=0.1, trace=trace, root=ROOT, small=True)
        assert json.loads(json.dumps(result)) == result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        listed = spec["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}
        results[trace] = {k: v["value"] for k, v in result["metrics"].items()}
    printed = capsys.readouterr().out
    for name in ("wall_s", "setup_s", "units_per_s", "peak_rss_mb",
                 "max_rel_err", "max_abs_z", "failed_share"):
        assert f"\nmetric {name} " in printed
    assert all(v > 0 for v in results[False].values())

    layers = results[True]
    work = run.WORKLOADS[workload]
    small = run.SMALL[workload]
    if workload == "fibers-needle":
        assert layers["grassmann.haar_sample.calls"] == 0
        assert layers["metrics.delta_j.calls"] == 0
        assert layers["bodies.line_fiber.calls"] == 2 * small["grid"]
        assert layers["bodies.line_fiber.wolfe_per_call"] > 1
    else:
        # units_per_s counts exactly the samples delta_j draws
        assert layers["metrics.delta_j.samples"] == replace(work, **small).units()
    if workload == "exact-d3j2":
        assert layers["metrics.qhull.calls"] == 0
        assert layers["metrics.pool.starts"] == 0
        assert layers["bodies.hull_2d.calls"] > 0
    if workload == "mc-d4j3":
        assert layers["metrics.pool.starts"] == 2 * work.steps + 2
        # qhull runs only inside the pool workers here, so a nonzero count
        # shows their spans reached the trace
        assert layers["metrics.qhull.calls"] > 0
        assert layers["bodies.hull_2d.calls"] == 0


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-d3j2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
