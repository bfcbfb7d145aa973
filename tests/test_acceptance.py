"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with `pytest -s tests/test_acceptance.py` to see them).

Every tolerance and sample size is pinned here; nothing is deferred to
later calibration.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
from scipy.spatial import ConvexHull

from conftest import unit_cube
from projmetrics import metrics
from projmetrics.bodies import VPolytope, hull_2d, polygon_area
from projmetrics.constructions import (
    NeedleSpec,
    augment,
    block_bounds,
    cross_section,
    prism_needle,
    spindle_needle,
    thm2_sequence,
    thm3_sequence,
)
from projmetrics.experiments import (
    ExperimentConfig,
    read_csv,
    run_lemma,
    run_thm1,
    run_thm3,
    write_csv,
    write_svg,
)
from projmetrics.grassmann import axis_subspace, full_space, goodness, project_body
from projmetrics.metrics import (
    SamplingPlan,
    fiber_profile,
    hausdorff,
    intrinsic_volume,
)
from projmetrics.numerics import (
    RngStream,
    flag_coefficient,
    needle_bound_constant,
    uniform_block,
)
from projmetrics.oracles import exact_symdiff, mc_symdiff


class _Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(capsys, num: int, label: str, timer: _Timer):
    line = (f"[{'PASS' if timer.elapsed < timer.budget else 'SLOW'}] "
            f"criterion {num:2d}: {label} "
            f"({timer.elapsed:.2f}s / budget {timer.budget:.0f}s)")
    with capsys.disabled():  # keep the line visible in piped/quiet runs
        print(line, flush=True)
    assert timer.elapsed < timer.budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_flag_coefficients(capsys):
    flag_coefficient(8, 8)  # warm any lazy setup before timing
    with _Timer(budget_s=0.001) as t:
        for d in range(1, 9):
            assert flag_coefficient(d, d) == 1.0
        assert abs(flag_coefficient(2, 1) - math.pi / 2.0) <= 1e-12
        assert abs(flag_coefficient(3, 2) - 2.0) <= 1e-12
    _report(capsys, 1, "flag coefficients exact", t)


def test_criterion_02_kubota_cube(capsys):
    with _Timer(budget_s=30) as t:
        est = intrinsic_volume(unit_cube(3, 3), 2, SamplingPlan(n_subspaces=4000, seed=42))
        assert abs(est.value - 3.0) < 0.05
        assert abs(est.value - 3.0) <= 3.0 * est.std_error
    _report(capsys, 2, f"V2(cube)={est.value:.4f} se={est.std_error:.4f} vs 3", t)


def test_criterion_03_segment_length(capsys):
    with _Timer(budget_s=10) as t:
        seg = VPolytope([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        est = intrinsic_volume(seg, 1, SamplingPlan(n_subspaces=4000, seed=42))
        assert est.exact and abs(est.value - 5.0) <= 1e-12 * 5.0  # flat: no sampling
    _report(capsys, 3, f"V1(segment)={est.value:.4f} se={est.std_error:.4f} vs 5", t)


def test_criterion_04_embedding_invariance(capsys):
    with _Timer(budget_s=30) as t:
        est = intrinsic_volume(unit_cube(3, 2), 2, SamplingPlan(n_subspaces=4000, seed=42))
        assert est.exact and abs(est.value - 1.0) <= 1e-12  # flat: no sampling
    _report(capsys, 4, f"V2(square in R3)={est.value:.4f} se={est.std_error:.4f} vs 1", t)


def test_criterion_05_exact_vs_mc_symdiff(capsys):
    with _Timer(budget_s=60) as t:
        hits = 0
        for k in range(20):
            a = uniform_block(RngStream(17, 3 * k), 16).reshape(8, 2) * 2.0
            b = uniform_block(RngStream(17, 3 * k + 1), 16).reshape(8, 2) * 2.0
            exact = exact_symdiff(a, b, 2)
            mc, se = mc_symdiff(a, b, 2, 100_000, RngStream(17, 3 * k + 2))
            hits += abs(mc - exact) <= 4.0 * se
        assert hits >= 19
    _report(capsys, 5, f"symdiff MC vs clip oracle: {hits}/20 within 4 se", t)


def test_criterion_06_hausdorff_identities(capsys):
    with _Timer(budget_s=10) as t:
        rng = np.random.default_rng(1)
        for _ in range(20):
            body = VPolytope(rng.uniform(-1, 1, size=(8, 3)))
            shift = rng.uniform(-2, 2, size=3)
            err = abs(hausdorff(body, body.translate(shift)) - float(np.linalg.norm(shift)))
            assert err <= 1e-9
        small = VPolytope([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        big = VPolytope([[0, 0], [2, 0], [2, 2], [0, 2.0]])
        assert abs(hausdorff(small, big) - math.sqrt(2.0)) <= 1e-9
        for _ in range(100):
            a, b, c = (VPolytope(rng.uniform(-1, 1, size=(6, 2))) for _ in range(3))
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 3e-9
    _report(capsys, 6, "Hausdorff translation/value/triangle identities", t)


def test_criterion_07_thm1_harness(capsys, tmp_path):
    with _Timer(budget_s=180) as t:
        out_csv, out_svg = tmp_path / "thm1.csv", tmp_path / "thm1.svg"
        # drift assertions are hard inside the runner
        table = run_thm1(ExperimentConfig(d=3, j=2, seed=42, steps=6, l0=2.0))
        assert len(table.rows) == 6
        for row in table.rows:
            record = dict(zip(table.header, row))
            assert abs(float(record["claimed_bound"]) - 4.0 / float(record["L_i"])) <= 1e-12
            assert float(record["d_hausdorff"]) >= float(record["drift_floor"]) - 1e-9
            assert float(record["delta_se"]) <= 0.05 * float(record["delta_hat"])
        write_csv(table, out_csv)
        write_svg(table, "L_i", ["delta_hat", "claimed_bound"], out_svg, log_log=True)
        assert read_csv(out_csv).rows == table.rows
        ET.parse(out_svg)
    _report(capsys, 7, "drift harness: floor asserted, claimed=4/L, SE<=5%, CSV+SVG", t)


def test_criterion_08_schedule_identities(capsys):
    with _Timer(budget_s=1) as t:
        for (d, j) in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            base = unit_cube(d, j)
            plane = axis_subspace(d, list(range(j)))
            u = np.zeros(d)
            u[0] = 1.0
            x0 = base.vertices.mean(axis=0)
            c2 = needle_bound_constant(d, j, "two_sided")
            for row, _ in thm2_sequence(base, plane, x0, u, 11):
                assert abs(c2 * row.eps ** (j - 1) * row.length
                           - 2.0 ** -(row.m + 1)) <= 1e-12
            a0 = 1.0
            for row, _ in thm3_sequence(base, plane, x0, u, 11, a0):
                assert abs(c2 * row.eps ** (j - 1) * row.length
                           - (a0 / 4.0) * 2.0 ** -(row.m + 1)) <= 1e-12
    _report(capsys, 8, "dyadic schedule identities, m=0..10, four (d,j) pairs", t)


def test_criterion_09_block_bounds(capsys):
    with _Timer(budget_s=1) as t:
        plane = axis_subspace(3, [0, 1])
        u = np.array([1.0, 0.0, 0.0])
        spec = NeedleSpec(x0=np.zeros(3), u=u, plane=plane, length=3.0, eps=0.5,
                          kind="spindle")
        area = polygon_area(hull_2d(project_body(plane, spindle_needle(spec)).vertices))
        assert abs(area - 3.0) <= 1e-9
        bounds = block_bounds(goodness(plane, plane, u), spec)
        assert abs(bounds.cone_bound - area) <= 1e-9
        assert bounds.rect_bound / bounds.cone_bound == 2.0
    _report(capsys, 9, f"block bounds: area={area:.1f}, ratio exactly 2", t)


def test_criterion_10_goodness_statistics(capsys):
    with _Timer(budget_s=30) as t:
        table = run_lemma(ExperimentConfig(d=4, j=2, seed=7, n_subspaces=10_000, n_points=1))
        record = dict(zip(table.header, table.rows[0]))
        assert record["near_singular_count"] == "0"
        mean_proj = float(record["mean_proj_e1_sq"])
        assert 0.48 <= mean_proj <= 0.52
    _report(capsys, 10, f"10^4 subspaces: 0 near-singular, mean proj {mean_proj:.4f}", t)


def test_criterion_11_floor_bookkeeping(capsys):
    with _Timer(budget_s=300) as t:
        cfg = ExperimentConfig(d=3, j=2, seed=42, steps=7)  # m = 0..6
        table = run_thm3(cfg)
        a0_comment = next(c for c in table.footer_comments if c.startswith("a0="))
        a0 = float(a0_comment.split()[0].split("=")[1])
        a0_se = float(a0_comment.split()[1].split("=")[1])
        assert a0_se == 0.0 and abs(a0 - 1.0) <= 1e-12  # V_2 of the flat unit square
        claimed_sum = sum(float(r[table.header.index("claimed_step")]) for r in table.rows)
        assert claimed_sum <= a0 / 4.0 + 1e-12
        base = unit_cube(3, 2)
        seq = thm3_sequence(base, axis_subspace(3, [0, 1]), base.vertices.mean(axis=0),
                            np.array([1.0, 0.0, 0.0]), cfg.steps, a0)
        for row, (_, body) in zip(table.rows, seq):
            record = dict(zip(table.header, row))
            assert float(record["se"]) == 0.0
            in_plane = ConvexHull(body.vertices[:, :2]).volume  # every K_m lies in e1, e2
            assert abs(float(record["delta_to_empty_hat"]) - in_plane) <= 1e-12 * in_plane
    _report(capsys, 11, f"a0={a0:.4f}+-{a0_se:.4f}, claimed sum {claimed_sum:.4f} <= a0/4", t)


def test_criterion_12_worker_determinism(capsys, tmp_path, monkeypatch):
    # under auto the flat thm1 rows draw no subspace, so the table is
    # sampled in monte_carlo mode, and every row's delta_j starts a pool
    starts = []

    class CountedPool(metrics.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(metrics, "ProcessPoolExecutor", CountedPool)
    with _Timer(budget_s=360) as t:
        paths = []
        for workers in (1, 8):
            cfg = ExperimentConfig(d=3, j=2, seed=42, steps=3, l0=2.0, workers=workers,
                                   mode="monte_carlo", n_subspaces=16, n_points=200)
            path = tmp_path / f"thm1_w{workers}.csv"
            write_csv(run_thm1(cfg), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert starts == [8, 8, 8]
        se = [float(x) for x in read_csv(paths[0]).column("delta_se")]
        assert all(x > 0.0 for x in se)
    _report(capsys, 12, "sampled thm1 CSV byte-identical for workers 1 and 8", t)


def test_criterion_13_fiber_diagnostic(capsys):
    with _Timer(budget_s=10) as t:
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        plane = full_space(2)
        x0 = np.array([0.5, 0.5])
        u = np.array([1.0, 0.0])
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=8.0, eps=0.01, kind="prism")
        grown = augment(square, prism_needle(spec))
        tube = VPolytope(x0 + cross_section(plane, u, 0.01).vertices)
        profile = fiber_profile(grown, square, plane, u, grid_n=200, tube=tube)
        assert profile.diff_measure_outside_tube > 0.0
        assert np.max(profile.diff_length) <= 8.0 + 2e-9
    _report(capsys, 13, f"out-of-tube diff mass {profile.diff_measure_outside_tube:.3f} > 0, "
                "diffs bounded by the axial extent", t)
