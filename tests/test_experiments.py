import csv
import dataclasses
import io
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from scipy.spatial import ConvexHull

from projmetrics import grassmann, metrics, oracles
from projmetrics.bodies import VPolytope, distance_to_hull, save_body
from projmetrics.constructions import (
    NeedleSpec,
    augment,
    block_bounds,
    prism_needle,
    thm1_sequence,
    thm2_sequence,
)
from projmetrics.experiments import (
    ConfigError,
    CsvTable,
    ExperimentConfig,
    read_csv,
    run_fibers,
    run_lemma,
    run_thm1,
    run_thm2,
    run_thm3,
    run_validation,
    runners,
    write_csv,
    write_svg,
)
from projmetrics.experiments.cli import _build_parser, main
from projmetrics.experiments.runners import (
    AUX_STREAM_BASE,
    GOOD_SIGMA,
    _good_subspace_scan,
    _slope_footer,
    unit_cube_body,
)
from projmetrics.grassmann import Subspace, full_space, goodness, haar_frames, project_body
from projmetrics.metrics import SamplingPlan
from projmetrics.numerics import RngStream, needle_bound_constant
from projmetrics.oracles import exact_outside_area_stack, mc_volume

SMALL = dict(d=3, j=2, seed=42, n_subspaces=150, n_points=2000, steps=3)


def thm1_closed_form(length: float, eps: float, j: int) -> float:
    """delta_j(K_i, C) for thm1's unit j-cube C and its prism needle, no qhull.

    The needle runs from the centroid along e_1 to x_1 = 1/2 + L, with a
    cross-polytope cross-section of radius eps <= 1/2, so K_i = C U conv(F U T):
    F is the facet x_1 = 1 and T the needle's far end, at height h = L - 1/2
    above F.  The slice of conv(F U T) at fraction s of that height is
    (1 - s) F + s T.  F is a unit (j-1)-box, so its volume expands over the
    coordinate projections of T:
        vol_{j-1}((1 - s) F + s T) = sum_k C(j-1, k) (1-s)^(j-1-k) s^k v_k,
    where v_k = (2 eps)^k / k! is the volume of T's projection onto any k of
    the box's axes (a k-dimensional cross-polytope of radius eps).  Since
    int_0^1 C(j-1, k) (1-s)^(j-1-k) s^k ds = 1/j, integrating over the height
    gives vol_j(K_i) - vol_j(C) = (h / j) sum_{k<j} (2 eps)^k / k!.  The pair
    is nested in one j-flat, so that is delta_j, also at j = d, where the
    flag coefficient is 1.
    """
    return (length - 0.5) / j * sum((2.0 * eps) ** k / math.factorial(k) for k in range(j))


class TestConfig:
    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=9, j=2)
        with pytest.raises(ConfigError):
            ExperimentConfig(d=3, j=1)

    def test_budget_guard(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=3, j=2, n_subspaces=100_000, n_points=100_000)

    def test_steps_guard(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=3, j=2, steps=13)


def reference_cell(x) -> str:
    """The cell text the tables have always been written with."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def reference_bytes(table: CsvTable) -> bytes:
    """A table rendered row by row through csv.writer (QUOTE_MINIMAL, CRLF),
    with run_fibers' former y labels for the rows of a 2-D array."""
    def cells(column):
        if isinstance(column, np.ndarray) and column.ndim == 2:
            return [y[0] if len(y) == 1 else ";".join(format(c, ".17g") for c in y)
                    for y in column.tolist()]
        return column.tolist() if isinstance(column, np.ndarray) else column

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(table.header)
    writer.writerows(zip(*([reference_cell(v) for v in cells(c)] for c in table.columns)))
    for comment in table.footer_comments:
        buf.write(f"# {comment}\r\n")
    return buf.getvalue().encode("utf-8")


def reproduce_tables():
    """Every table of `projmetrics reproduce` at its default seed and sizes."""
    thm = ExperimentConfig(d=3, j=2, seed=42, n_subspaces=2000, n_points=2000, steps=6)
    grown, square = TestFibersRunner().make_bodies()
    tube = VPolytope([[0.5, 0.49], [0.5, 0.51]])
    return {
        "thm1": run_thm1(thm), "thm2": run_thm2(thm), "thm3": run_thm3(thm),
        "lemma": run_lemma(ExperimentConfig(d=4, j=2, seed=42, n_subspaces=10000,
                                            n_points=1)),
        "fibers": run_fibers(grown, square, "e1e2", 400, tube=tube),
        "validation": run_validation(seed=42),
    }


class TestTables:
    def test_round_trip(self, tmp_path):
        table = CsvTable(header=["a", "b"])
        table.add_row([1, 2.5])
        table.add_row(["x,y", 'quo"te'])
        table.add_row(["a\nb", "c\r\nd\re"])  # line breaks inside quoted cells
        table.add_row(["# not a footer", "# nor this"])
        table.footer_comments.append("slope=1")
        path = tmp_path / "t.csv"
        write_csv(table, path)
        again = read_csv(path)
        assert again.header == table.header
        assert again.rows == table.rows
        assert again.footer_comments == ["slope=1"]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(CsvTable(header=["only"]), path)
        again = read_csv(path)
        assert again.header == ["only"] and again.rows == []

    def test_bytes_match_csv_writer_on_reproduce_tables(self):
        for name, table in reproduce_tables().items():
            assert table.to_bytes() == reference_bytes(table), name

    def test_bytes_match_csv_writer_on_fibers(self):
        rng = np.random.default_rng(2)
        small = VPolytope(rng.uniform(-1, 1, size=(6, 3)))
        big = VPolytope(np.vstack([small.vertices, rng.uniform(-2, 2, size=(4, 3))]))
        table = run_fibers(big, small, "random:7", 30)
        assert table.columns[0].ndim == 1  # a 2-plane's one transverse coordinate
        assert table.to_bytes() == reference_bytes(table)

    @pytest.mark.parametrize("header,rows", [
        (["a", "b"], [["x,y", 'say "hi"'], ["cr\rhere", "lf\nhere"], ["", ""]]),
        (["a", "b"], [[",", '"'], ["\r", "\n"], ["\r\n", '""']]),
        (["only"], [[""], ["x"], [""]]),
        (["only"], []),
        (["a", "b,c"], []),
    ])
    def test_bytes_match_csv_writer_on_edge_cells(self, tmp_path, header, rows):
        table = CsvTable(header=header)
        for row in rows:
            table.add_row(row)
        assert table.to_bytes() == reference_bytes(table)
        write_csv(table, tmp_path / "edge.csv")
        again = read_csv(tmp_path / "edge.csv")
        assert again.header == header and again.rows == rows

    def test_seventeen_digit_cells(self, tmp_path):
        table = CsvTable(header=["v"])
        value = 0.1 + 0.2
        table.add_row([value])
        path = tmp_path / "v.csv"
        write_csv(table, path)
        assert float(read_csv(path).rows[0][0]) == value

    def test_svg_valid_xml(self, tmp_path):
        table = CsvTable(header=["x", "y"])
        for i in range(1, 6):
            table.add_row([float(i), float(i * i)])
        path = tmp_path / "plot.svg"
        write_svg(table, "x", ["y"], path, log_log=True)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_svg_labels_escape_markup(self, tmp_path):
        # '&', '<' and '>' in labels give the same bytes as xml.sax.saxutils
        table = CsvTable(header=["a&b", "x<y>z"])
        for i in range(1, 4):
            table.add_row([float(i), float(i + 1)])
        path = tmp_path / "labels.svg"
        write_svg(table, "a&b", ["x<y>z"], path)
        text = path.read_text(encoding="utf-8")
        for label, escaped in (("a&b", "a&amp;b"), ("x<y>z", "x&lt;y&gt;z")):
            assert sax_escape(label) == escaped
            assert f">{escaped}</text>" in text
        ET.parse(path)

    def test_cli_import_loads_no_network_stack(self):
        # the CLI's import cost stays free of urllib, http.client and ssl
        src = str(pathlib.Path(metrics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, projmetrics.experiments.cli; "
                "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestThm1Runner:
    def test_columns_and_assertions(self):
        table = run_thm1(ExperimentConfig(**SMALL))
        assert table.header[:4] == ["i", "L_i", "eps_i", "claimed_bound"]
        assert len(table.rows) == SMALL["steps"]
        for row in table.rows:
            record = dict(zip(table.header, row))
            assert float(record["d_hausdorff"]) >= float(record["drift_floor"]) - 1e-9
            assert float(record["claimed_bound"]) == pytest.approx(
                4.0 / float(record["L_i"]), abs=1e-12)
        assert any("loglog slope" in c for c in table.footer_comments)

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3), (5, 5), (6, 5)])
    def test_hausdorff_column_is_tip_distance(self, d, j):
        # the needle tips sit at distance L_i - 1/2 from the unit cube
        table = run_thm1(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=20,
                                          n_points=20, steps=8))
        for row in table.rows:
            record = dict(zip(table.header, row))
            dh, tip = float(record["d_hausdorff"]), float(record["L_i"]) - 0.5
            assert abs(dh - tip) <= 1e-12 * tip
            assert dh >= float(record["drift_floor"]) - 1e-9

    @pytest.mark.parametrize("d,j", [(4, 4), (5, 5)])
    def test_long_first_needle_above_dimension_three(self, d, j):
        # at l0 = 10 the last tip lies about 20480 from the cube, and its Hausdorff
        # distance is a Wolfe solve: a corral Gram of |p|^2-sized entries
        # once swamped the cube's extent, and the solve never converged
        table = run_thm1(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=20, n_points=20,
                                          steps=12, l0=10.0))
        assert len(table.rows) == 12
        for length, dh in zip(table.column("L_i"), table.column("d_hausdorff")):
            tip = float(length) - 0.5
            assert abs(float(dh) - tip) <= 1e-12 * tip

    def test_slope_footer_names_non_positive_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log(0) RuntimeWarning
            line = _slope_footer(["0", "1", "2", "3"], [2.0, 4.0, 8.0, 16.0],
                                 [1.0, 0.0, 4.0, -1.0])
            assert line.endswith("slope undefined: rows 1,3 non-positive")
            assert "slope=" in _slope_footer(["0", "1"], [2.0, 4.0], [1.0, 2.0])

    def test_low_precision_footer(self):
        # box MC with 100 points per plane: the footer names every row whose
        # relative se exceeds 5%, after the slope line
        table = run_thm1(ExperimentConfig(d=3, j=2, seed=1, n_subspaces=10, n_points=100,
                                          steps=3, mode="monte_carlo"))
        noisy = [i for i, v, se in zip(table.column("i"), table.column("delta_hat"),
                                       table.column("delta_se")) if float(se) > 0.05 * float(v)]
        assert noisy == ["0", "1", "2"]
        assert table.footer_comments[0].startswith("loglog slope delta_hat vs L_i: ")
        assert table.footer_comments[1:] == ["low-precision rows (relative se > 5%): 0,1,2"]

    def test_deterministic_rerun(self):
        a = run_thm1(ExperimentConfig(**SMALL))
        b = run_thm1(ExperimentConfig(**SMALL))
        assert a.to_bytes() == b.to_bytes()

    def test_worker_count_invariance(self):
        serial = run_thm1(ExperimentConfig(**{**SMALL, "workers": 1}))
        parallel = run_thm1(ExperimentConfig(**{**SMALL, "workers": 4}))
        assert serial.to_bytes() == parallel.to_bytes()

    def test_flat_needles_at_j3(self):
        # every K_i lies in the cube's 3-plane, so delta_3(K_i, cube) is
        # vol_3(K_i) - 1, with no subspace drawn; box MC used to report rows
        # 8 and 9 as 51.0 +- 22.2 and 28.3 +- 13.6 against 170.5 and 341.2
        cfg = ExperimentConfig(d=4, j=3, seed=1, n_subspaces=200, n_points=2000, steps=12)
        table = run_thm1(cfg)
        base, plane, x0, u = unit_cube_body(4, 3)
        seq = thm1_sequence(base, plane, x0, u, cfg.l0, cfg.steps)
        for row, (_, body) in zip(table.rows, seq):
            record = dict(zip(table.header, row))
            in_plane = ConvexHull(body.vertices[:, :3]).volume - 1.0
            assert float(record["delta_se"]) == 0.0
            assert float(record["delta_hat"]) == pytest.approx(in_plane, rel=1e-12)

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3), (5, 4), (6, 5), (5, 5), (6, 6),
                                     (7, 6), (8, 6)])
    def test_closed_form_rows(self, d, j):
        table = run_thm1(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=50, n_points=500,
                                          steps=12))
        for row in table.rows:
            record = dict(zip(table.header, row))
            exact = thm1_closed_form(float(record["L_i"]), float(record["eps_i"]), j)
            assert float(record["delta_se"]) == 0.0
            assert float(record["delta_hat"]) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("j,ds", [(2, (2, 3, 5)), (3, (3, 4, 6))])
    def test_flat_columns_do_not_depend_on_d(self, j, ds):
        # every body lies in span{e_1..e_j} and is charted by those columns
        tables = [run_thm1(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=50, n_points=500,
                                            steps=12)) for d in ds]
        for name in ("delta_hat", "d_hausdorff"):
            assert all(t.column(name) == tables[0].column(name) for t in tables[1:])

    def test_monte_carlo_mode_worker_invariance(self, tmp_path):
        # mode="monte_carlo" keeps the per-sample box MC and the process pool
        base = dict(d=4, j=3, seed=3, n_subspaces=20, n_points=300, steps=3)
        paths = []
        for workers in (1, 2):
            path = tmp_path / f"thm1_w{workers}.csv"
            write_csv(run_thm1(ExperimentConfig(**base, workers=workers,
                                                mode="monte_carlo")), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert run_thm1(ExperimentConfig(**base)).to_bytes() != paths[0].read_bytes()

    def test_drift_floor_frozen_values(self):
        # floor = L_i - ||centroid|| - R_K with the unit square's 0.70711 / 1.41421
        table = run_thm1(ExperimentConfig(**SMALL))
        x0n = np.sqrt(0.5)
        r_base = np.sqrt(2.0)
        for row in table.rows:
            record = dict(zip(table.header, row))
            expected = float(record["L_i"]) - x0n - r_base
            assert float(record["drift_floor"]) == pytest.approx(expected, abs=1e-12)


class TestThm2Runner:
    def test_columns_and_bounds(self):
        table = run_thm2(ExperimentConfig(**SMALL))
        assert len(table.rows) == SMALL["steps"]
        for row in table.rows:
            record = dict(zip(table.header, row))
            m = int(record["m"])
            assert float(record["claimed_step"]) == pytest.approx(2.0 ** -(m + 1), abs=1e-12)
            assert float(record["paper_block"]) / float(record["corrected_block"]) \
                == pytest.approx(2.0, abs=1e-9)
            assert float(record["measured_block"]) \
                >= float(record["corrected_block"]) - 1e-9
            assert float(record["good_H_fraction"]) == 1.0

    def test_rejects_top_dimension(self):
        with pytest.raises(ConfigError):
            run_thm2(ExperimentConfig(d=3, j=3, seed=0, n_subspaces=10, steps=2))

    def test_monte_carlo_lane(self):
        # j = 3: the flat nested steps and the needle's projected volume are
        # exact qhull volumes; only the outside-mass column runs on MC
        cfg = ExperimentConfig(d=4, j=3, seed=11, n_subspaces=40, n_points=4000, steps=3)
        table = run_thm2(cfg)
        assert len(table.rows) == 3
        for row in table.rows:
            record = dict(zip(table.header, row))
            assert float(record["step_delta_hat"]) > 0.0
            assert float(record["measured_block"]) > 0.0


    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_monte_carlo_mode_completes(self, tmp_path, d, j):
        # a needle block with zero box-MC hits used to report 0 +- 0 and
        # abort on "measured block 0 below corrected bound"
        assert main(["thm2", "-d", str(d), "-j", str(j), "--steps", "4", "--subspaces", "20",
                     "--points", "500", "--seed", "1", "--mode", "mc",
                     "--out", str(tmp_path / "t2.csv")]) == 0

    def test_needle_block_at_j3(self):
        # the projected needle volume is exact at j = 3; box MC used to give
        # 0 +- 0 and abort at m = 2 with "measured block 0 below corrected bound"
        cfg = ExperimentConfig(d=4, j=3, seed=1, n_subspaces=50, n_points=2000, steps=12)
        table = run_thm2(cfg)
        assert len(table.rows) == 12
        for row in table.rows:
            record = dict(zip(table.header, row))
            assert float(record["measured_block"]) == pytest.approx(
                float(record["corrected_block"]), rel=1e-9)
            assert float(record["step_delta_hat"]) > 0.0


def thm2_row_loop(cfg: ExperimentConfig):
    """run_thm2 written row by row from the one-row library calls: the scan's
    goodness per frame, and per row delta_j, projected_volume, the outside
    mass (exact_outside_area_stack on the row alone under auto at j = 2, else
    mc_volume) and the needle-clear distance_to_hull.  Returns the table and,
    per row, whether the needle-clear distance can decide the outside-mass
    assertion: the mass fell short and every projected needle vertex lies
    outside R_m."""
    base, plane, x0, u = unit_cube_body(cfg.d, cfg.j)
    plan = SamplingPlan(n_subspaces=cfg.n_subspaces, n_points=cfg.n_points,
                        seed=cfg.seed, mode=cfg.mode)
    c2 = needle_bound_constant(cfg.d, cfg.j, "two_sided")
    seq = thm2_sequence(base, plane, x0, u, cfg.steps)
    passing = []
    for basis in haar_frames(cfg.d, cfg.j, cfg.seed,
                             AUX_STREAM_BASE // 2 + np.arange(cfg.n_subspaces)):
        c = goodness(Subspace(basis), plane, u)
        if c.sigma_min > GOOD_SIGMA and c.c > 0:
            passing.append(basis)
    h = Subspace(passing[0])
    cert = goodness(h, plane, u)
    fraction = len(passing) / cfg.n_subspaces
    table = CsvTable(header=["m", "L_m", "eps_m", "T_m", "R_m", "claimed_step",
                             "step_delta_hat", "step_se", "good_H_fraction",
                             "paper_block", "corrected_block", "measured_block",
                             "outside_mass_hat"])
    decisive, out_ses = [], []
    prev = base
    for idx, (row, body) in enumerate(seq):
        assert abs(c2 * row.eps ** (cfg.j - 1) * row.length - 2.0 ** -(row.m + 1)) <= 1e-12
        est = metrics.delta_j(body, prev, cfg.j, plan)
        needle = VPolytope(body.vertices[prev.n_vertices:])
        bounds = block_bounds(cert, NeedleSpec(x0=row.x_m, u=u, plane=plane, length=row.length,
                                               eps=row.eps, kind="spindle"))
        measured = metrics.projected_volume(
            needle, h, plan, sample_index=AUX_STREAM_BASE + 2 * cfg.n_subspaces + idx)
        slack = 1e-9 * (1.0 + bounds.cone_bound)
        assert measured.value >= bounds.cone_bound - 4.0 * measured.std_error - slack
        if cfg.mode == "auto" and cfg.j == 2:
            out_mass, out_se = exact_outside_area_stack(
                [project_body(h, body).vertices], [row.exclusion_radius])[0], 0.0
        else:
            out_mass, out_se = mc_volume(
                project_body(h, body).vertices, cfg.j, plan.n_points,
                RngStream(cfg.seed, AUX_STREAM_BASE + 4 * cfg.n_subspaces + idx),
                exclusion_radius=row.exclusion_radius)
        out_ses.append(out_se)
        tips = project_body(h, needle)
        clear = distance_to_hull(np.zeros(cfg.j), tips) > row.exclusion_radius
        short = out_mass < bounds.cone_bound - 4.0 * out_se - slack
        assert not (clear and short)
        decisive.append(short and bool(np.all(
            np.linalg.norm(tips.vertices, axis=1) > row.exclusion_radius)))
        table.add_row([row.m, row.length, row.eps, row.offset, row.exclusion_radius,
                       row.claimed_step_bound, est.value, est.std_error, fraction,
                       bounds.rect_bound, bounds.cone_bound, measured.value, out_mass])
        prev = body
    table.footer_comments.append(
        f"claimed_step partial sum: {sum(r.claimed_step_bound for r, _ in seq):.17g}")
    table.footer_comments.append(
        "outside_mass_hat: exact area outside the disc of radius R_m (hull ring and disc), se 0"
        if cfg.mode == "auto" and cfg.j == 2 else
        f"outside_mass_hat: box Monte Carlo, {cfg.n_points} points per row, "
        f"largest se {max(out_ses):.6g}")
    return table, decisive


def spy(monkeypatch, module, name) -> list:
    """The arguments of every call to module.name from here on."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or original(*args, **kw))
    return calls


class TestThm2OnePass:
    """run_thm2 evaluates its good-subspace block once per table: a sigma-only
    scan, one stacked outside-mass draw, and a needle-clear distance only
    where it can decide the assertion.  Every byte equals the row loop."""

    @pytest.mark.parametrize("mode", ["auto", "monte_carlo"])
    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3), (5, 3), (6, 4)])
    def test_equals_the_row_loop(self, monkeypatch, d, j, mode):
        cfg = ExperimentConfig(d=d, j=j, seed=1, n_subspaces=40, n_points=2000, steps=12,
                               mode=mode)
        ref, decisive = thm2_row_loop(cfg)
        distances = spy(monkeypatch, runners, "distance_to_hull")
        table = run_thm2(cfg)
        assert table.to_bytes() == ref.to_bytes()
        assert len(distances) == sum(decisive)
        if (d, j) in ((4, 3), (6, 4)):  # rows with hits pin the outside-mass stream keys
            assert any(float(v) > 0.0 for v in ref.column("outside_mass_hat"))

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_counts(self, monkeypatch, d, j):
        distances = spy(monkeypatch, runners, "distance_to_hull")
        certificates = spy(monkeypatch, grassmann, "goodness_stack")
        run_thm2(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=400, n_points=2000, steps=12))
        assert distances == []
        assert len(certificates) == 1 and certificates[0][0].shape[0] == 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("d,j", [(d, j) for d in range(3, 9) for j in range(2, d)])
    def test_sigma_mask_is_the_full_test(self, d, j, seed):
        _, plane, _, u = unit_cube_body(d, j)
        frames = haar_frames(d, j, seed, AUX_STREAM_BASE // 2 + np.arange(500))
        certs = grassmann.goodness_stack(frames, plane, u)
        mask = grassmann.restricted_sigma_min(frames, plane) > GOOD_SIGMA
        assert np.array_equal(mask, (certs.sigma_min > GOOD_SIGMA) & (certs.c > 0))
        assert np.array_equal(grassmann.restricted_sigma_min(frames, plane), certs.sigma_min)


class TestThm2ClearNeedle:
    """A needle whose projected vertices all lie outside R_m, in a row whose
    outside mass falls short: the distance from the origin to the projected
    needle decides the assertion.  The thm tables never reach this (each
    needle's projection meets its exclusion disc), so the last row's R_m is
    moved between that distance and the nearest projected vertex, or below
    the distance, and the outside mass reads 0."""

    CFG = ExperimentConfig(d=3, j=2, seed=1, n_subspaces=40, n_points=200, steps=4)

    def patch(self, monkeypatch, radius) -> list:
        base, plane, x0, u = unit_cube_body(3, 2)
        seq = thm2_sequence(base, plane, x0, u, self.CFG.steps)
        _, (h, _) = _good_subspace_scan(self.CFG, plane, u)
        tips = seq[-1][1].vertices[seq[-2][1].n_vertices:] @ h.basis
        dist = distance_to_hull(np.zeros(2), VPolytope(tips))
        nearest = float(np.min(np.linalg.norm(tips, axis=1)))
        assert dist < nearest
        last = dataclasses.replace(seq[-1][0], exclusion_radius=radius(dist, nearest))
        monkeypatch.setattr(runners, "thm2_sequence",
                            lambda *args: [*seq[:-1], (last, seq[-1][1])])
        monkeypatch.setattr(runners, "exact_outside_area_stack",
                            lambda projected, radii: [0.0] * len(radii))
        return spy(monkeypatch, runners, "distance_to_hull")

    def test_a_needle_within_r_passes(self, monkeypatch):
        distances = self.patch(monkeypatch, lambda dist, nearest: 0.5 * (dist + nearest))
        table = run_thm2(self.CFG)
        assert len(distances) == 1 and len(table.rows) == self.CFG.steps
        assert float(table.column("outside_mass_hat")[-1]) == 0.0

    def test_a_clear_needle_fails(self, monkeypatch):
        distances = self.patch(monkeypatch, lambda dist, nearest: 0.5 * dist)
        with pytest.raises(runners.AssertionFailure, match="despite a clear needle"):
            run_thm2(self.CFG)
        assert len(distances) == 1


class TestThm2OutsideMass:
    """thm2's outside_mass_hat: the exact area outside the disc under auto
    at j = 2, box MC elsewhere, and a footer line that says which."""

    def test_auto_at_j2_draws_no_box(self, monkeypatch):
        stacks = spy(monkeypatch, runners, "mc_volume_stack")
        draws = spy(monkeypatch, oracles, "_uniform_rows")
        table = run_thm2(ExperimentConfig(d=3, j=2, seed=1, n_subspaces=400, n_points=2000,
                                          steps=6))
        assert stacks == [] and draws == []
        assert table.footer_comments[-1] == ("outside_mass_hat: exact area outside the disc "
                                             "of radius R_m (hull ring and disc), se 0")
        # the exact-d3j2 benchmark's table, where box MC read 0 in rows 4 and
        # 5; the references are a 50-digit evaluation on the same rings
        mass = [float(v) for v in table.column("outside_mass_hat")]
        assert mass[:4] == [0.0] * 4
        assert mass[4] == pytest.approx(0.0012576125186675147, rel=1e-11)
        assert mass[5] == pytest.approx(0.06030664636341993, rel=1e-11)

    @pytest.mark.parametrize("d,j,mode", [(3, 2, "monte_carlo"), (4, 3, "auto")])
    def test_box_mc_elsewhere(self, monkeypatch, d, j, mode):
        stacks = spy(monkeypatch, runners, "mc_volume_stack")
        table = run_thm2(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=40, n_points=500,
                                          steps=6, mode=mode))
        assert len(stacks) == 1
        footer = table.footer_comments[-1]
        assert footer.startswith("outside_mass_hat: box Monte Carlo, 500 points per row, "
                                 "largest se ")
        assert float(footer.rsplit(" ", 1)[1]) > 0.0

    @pytest.mark.parametrize("d,seed", [(3, 7), (4, 2), (5, 17)])
    def test_thin_spindles_keep_their_area(self, d, seed):
        # the last spindles are so thin against their length that hull_2d,
        # with a collinearity tolerance scaled by the extent, once flattened
        # them and these cells stopped on "measured block 0 below corrected
        # bound"; at (4, 2) the spindle's own vertices carry a width error
        # of 2^-30 in row 11 (the rounding of 0.5 +- eps)
        table = run_thm2(ExperimentConfig(d=d, j=2, seed=seed, n_subspaces=400, n_points=500,
                                          steps=12))
        assert len(table.rows) == 12
        for measured, corrected in zip(table.column("measured_block"),
                                       table.column("corrected_block")):
            assert float(measured) == pytest.approx(float(corrected), rel=1e-9)


class TestThm3Runner:
    def test_floor_column_and_consistency(self):
        table = run_thm3(ExperimentConfig(**SMALL))
        floors = {row[table.header.index("claimed_floor")] for row in table.rows}
        assert len(floors) == 1
        a0_comment = next(c for c in table.footer_comments if c.startswith("a0="))
        a0 = float(a0_comment.split()[0].split("=")[1])
        assert float(floors.pop()) == pytest.approx(0.75 * a0, rel=1e-12)

    def test_explicit_a0(self):
        # the one a0 is the footer's delta_j(K, empty), exactly 1 for the flat
        # unit square, and the claimed steps are (a0/4) 2^-(m+1)
        table = run_thm3(ExperimentConfig(**SMALL))
        a0_comment = next(c for c in table.footer_comments if c.startswith("a0="))
        fields = dict(kv.split("=") for kv in a0_comment.split())
        a0 = float(fields["a0"])
        assert a0 == 1.0 and float(fields["used"]) == a0
        for row in table.rows:
            record = dict(zip(table.header, row))
            m = int(record["m"])
            assert float(record["claimed_step"]) == pytest.approx(
                (a0 / 4.0) * 2.0 ** -(m + 1), abs=1e-12)

    @pytest.mark.parametrize("j,ds", [(2, (3, 4, 6)), (3, (4, 6))])
    def test_flat_column_does_not_depend_on_d(self, j, ds):
        columns = [run_thm3(ExperimentConfig(d=d, j=j, seed=1, n_subspaces=50, n_points=500,
                                             steps=12)).column("delta_to_empty_hat")
                   for d in ds]
        assert all(c == columns[0] for c in columns[1:])

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_flat_runs_draw_no_frames(self, monkeypatch, d, j):
        def no_frames(*args):
            raise AssertionError("a flat operand drew Haar frames")

        monkeypatch.setattr(metrics, "haar_frames", no_frames)
        cfg = ExperimentConfig(d=d, j=j, seed=1, n_subspaces=200, n_points=500, steps=6)
        thm1, thm3 = run_thm1(cfg), run_thm3(cfg)
        assert {float(v) for v in thm1.column("delta_se")} == {0.0}
        assert {float(v) for v in thm3.column("se")} == {0.0}
        a0_comment = next(c for c in thm3.footer_comments if c.startswith("a0="))
        assert abs(float(a0_comment.split()[0].split("=")[1]) - 1.0) <= 1e-12

    def test_low_precision_footer(self):
        # box MC with 100 points per plane: the footer names every row whose
        # relative se exceeds 5%, and an exact table carries no such line
        table = run_thm3(ExperimentConfig(d=3, j=2, seed=1, n_subspaces=10, n_points=100,
                                          steps=3, mode="monte_carlo"))
        noisy = [m for m, v, se in zip(table.column("m"), table.column("delta_to_empty_hat"),
                                       table.column("se")) if float(se) > 0.05 * float(v)]
        assert noisy == ["0", "1", "2"]
        assert table.footer_comments[-1] == ("low-precision rows (relative se > 5%): "
                                             + ",".join(noisy))
        exact = run_thm3(ExperimentConfig(d=3, j=2, seed=1, n_subspaces=10, n_points=100,
                                          steps=3))
        assert not any(c.startswith("low-precision") for c in exact.footer_comments)

    def test_worker_count_invariance(self):
        serial = run_thm3(ExperimentConfig(**{**SMALL, "workers": 1}))
        parallel = run_thm3(ExperimentConfig(**{**SMALL, "workers": 3}))
        assert serial.to_bytes() == parallel.to_bytes()


class TestLemmaRunner:
    def test_statistics(self):
        table = run_lemma(ExperimentConfig(d=4, j=2, seed=1, n_subspaces=2000, n_points=1))
        record = dict(zip(table.header, table.rows[0]))
        assert record["near_singular_count"] == "0"
        assert 0.45 < float(record["mean_proj_e1_sq"]) < 0.55
        assert float(record["target_j_over_d"]) == 0.5

    def test_deterministic(self):
        cfg = ExperimentConfig(d=4, j=2, seed=1, n_subspaces=500, n_points=1)
        assert run_lemma(cfg).to_bytes() == run_lemma(cfg).to_bytes()

    @pytest.mark.parametrize("d,j", [(4, 2), (5, 3)])
    def test_equals_per_frame_loop(self, d, j):
        cfg = ExperimentConfig(d=d, j=j, seed=7, n_subspaces=1500, n_points=1)
        _, plane, _, u = unit_cube_body(d, j)
        e1 = np.zeros(d)
        e1[0] = 1.0
        sigma, ell, jac, proj2 = [], [], [], []
        for basis in haar_frames(d, j, cfg.seed, np.arange(cfg.n_subspaces)):
            h = Subspace(basis)
            cert = goodness(h, plane, u)
            sigma.append(cert.sigma_min)
            ell.append(cert.ell)
            jac.append(cert.jacobian)
            proj2.append(float(np.sum((h.basis.T @ e1) ** 2)))
        sigma, ell, jac, proj2 = map(np.asarray, (sigma, ell, jac, proj2))
        ref = CsvTable(header=run_lemma(cfg).header)
        ref.add_row([cfg.n_subspaces, float(sigma.min()), float(sigma.mean()),
                     float(ell.min()), float(ell.mean()), float(jac.min()),
                     float(jac.mean()), int(np.sum(sigma < GOOD_SIGMA)),
                     float(proj2.mean()), j / d])
        assert run_lemma(cfg).to_bytes() == ref.to_bytes()


class TestGoodSubspaceScan:
    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_equals_per_frame_loop(self, d, j):
        cfg = ExperimentConfig(d=d, j=j, seed=3, n_subspaces=300, n_points=1)
        _, plane, _, u = unit_cube_body(d, j)
        passing = []
        for basis in haar_frames(d, j, cfg.seed,
                                 AUX_STREAM_BASE // 2 + np.arange(cfg.n_subspaces)):
            cert = goodness(Subspace(basis), plane, u)
            if cert.sigma_min > GOOD_SIGMA and cert.c > 0:
                passing.append(basis)
        first = passing[0]
        fraction, (h, cert) = _good_subspace_scan(cfg, plane, u)
        assert fraction == len(passing) / cfg.n_subspaces
        assert np.array_equal(h.basis, first)
        ref = goodness(Subspace(first), plane, u)
        for name in ("sigma_min", "ell", "jacobian", "c"):
            assert np.array_equal(getattr(cert, name), getattr(ref, name))

    def test_skips_frames_that_fail(self, monkeypatch):
        from projmetrics.experiments import runners

        def first_degenerate(d, j, seed, indices):
            frames = haar_frames(d, j, seed, indices)
            frames[:2] = np.eye(d)[:, [1, 2]]  # e1 projects to zero: c = 0
            return frames

        monkeypatch.setattr(runners, "haar_frames", first_degenerate)
        cfg = ExperimentConfig(d=3, j=2, seed=3, n_subspaces=50, n_points=1)
        _, plane, _, u = unit_cube_body(3, 2)
        fraction, (h, cert) = _good_subspace_scan(cfg, plane, u)
        assert fraction == 48 / 50
        assert np.array_equal(h.basis, haar_frames(3, 2, 3, [AUX_STREAM_BASE // 2 + 2])[0])
        assert cert.c > 0


class TestValidationRunner:
    def test_all_checks_pass(self):
        table = run_validation(seed=0)
        failures = [row for row in table.rows if row[-1] == "false"]
        assert failures == []

    def test_deterministic(self):
        assert run_validation(seed=3).to_bytes() == run_validation(seed=3).to_bytes()


class TestFibersRunner:
    def make_bodies(self):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        spec = NeedleSpec(x0=np.array([0.5, 0.5]), u=np.array([1.0, 0.0]),
                          plane=full_space(2), length=8.0, eps=0.01, kind="prism")
        return augment(square, prism_needle(spec)), square

    def test_equal_bodies_zero_profile(self):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        table = run_fibers(square, square, "e1e2", 20)
        assert all(float(row[1]) == 0.0 for row in table.rows)

    def test_needle_instance_reports_mass(self):
        grown, square = self.make_bodies()
        table = run_fibers(grown, square, "e1e2", 50)
        diff = next(c for c in table.footer_comments if c.startswith("diff_measure:"))
        assert float(diff.split()[-1]) > 0.0

    def test_grid_refinement_stability(self):
        grown, square = self.make_bodies()
        coarse = run_fibers(grown, square, "e1e2", 100)
        fine = run_fibers(grown, square, "e1e2", 1000)

        def summary(table):
            line = next(c for c in table.footer_comments if c.startswith("diff_measure:"))
            return float(line.split()[-1])

        a, b = summary(coarse), summary(fine)
        assert abs(a - b) / b < 0.05

    def test_random_plane(self):
        rng = np.random.default_rng(2)
        small = VPolytope(rng.uniform(-1, 1, size=(6, 3)))
        big = VPolytope(np.vstack([small.vertices, rng.uniform(-2, 2, size=(4, 3))]))
        table = run_fibers(big, small, "random:7", 30)
        assert len(table.rows) == 30
        assert run_fibers(big, small, "random:7", 30).to_bytes() == table.to_bytes()

    def test_bad_plane_spec(self):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            run_fibers(square, square, "e3e4", 10)

    def test_containment_violation(self):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        outside = VPolytope([[5.0, 5.0], [6.0, 5.0], [6.0, 6.0]])
        with pytest.raises(ValueError):
            run_fibers(square, outside, "e1e2", 10)


class TestCli:
    @pytest.fixture
    def bodies(self, tmp_path):
        small = tmp_path / "small.body"
        big = tmp_path / "big.body"
        save_body(VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), small)
        save_body(VPolytope([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), big)
        return str(small), str(big)

    def test_hausdorff(self, bodies, capsys):
        assert main(["hausdorff", "--body-a", bodies[0], "--body-b", bodies[1]]) == 0
        assert "d_H = 1.4142135623730951" in capsys.readouterr().out

    def test_hausdorff_mixed_dimensions(self, bodies, tmp_path, capsys):
        cube = tmp_path / "cube.body"
        save_body(VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]]), cube)
        assert main(["hausdorff", "--body-a", bodies[0], "--body-b", str(cube)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.out == ""

    def test_metric_exact(self, bodies, capsys):
        code = main(["metric", "--body-a", bodies[0], "--body-b", bodies[1],
                     "-d", "2", "-j", "2", "--subspaces", "10", "--points", "10",
                     "--seed", "1"])
        assert code == 0
        assert "delta_2 = 3 " in capsys.readouterr().out

    def test_metric_empty(self, bodies, capsys):
        code = main(["metric", "--body-a", bodies[0], "--empty", "-d", "2", "-j", "1",
                     "--subspaces", "200", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("delta_1 = ")

    def test_intrinsic(self, bodies, capsys):
        code = main(["intrinsic", "--body", bodies[0], "-j", "2", "--seed", "1"])
        assert code == 0
        assert "V_2 = 1 " in capsys.readouterr().out

    def test_thm1_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "t1.csv"
        svg = tmp_path / "t1.svg"
        code = main(["thm1", "-d", "3", "-j", "2", "--steps", "3", "--l0", "2",
                     "--seed", "42", "--out", str(out), "--svg", str(svg),
                     "--subspaces", "100"])
        assert code == 0
        assert read_csv(out).header[0] == "i"
        ET.parse(svg)

    def test_thm1_one_step_footer_has_no_nan(self, tmp_path):
        # one row has no log-log slope: the footer says so instead of nan
        out = tmp_path / "t1.csv"
        assert main(["thm1", "-d", "3", "-j", "2", "--steps", "1", "--seed", "1",
                     "--subspaces", "20", "--out", str(out)]) == 0
        table = read_csv(out)
        assert len(table.rows) == 1
        assert table.footer_comments[0] == "loglog slope delta_hat vs L_i: slope undefined: one row"
        assert "nan" not in out.read_text()

    def test_thm1_two_step_footer_has_no_zero_se(self, tmp_path):
        # a two-point fit has no residual degrees of freedom: its se is
        # undefined, not 0
        out = tmp_path / "t1.csv"
        assert main(["thm1", "-d", "3", "-j", "2", "--steps", "2", "--seed", "1",
                     "--subspaces", "20", "--out", str(out)]) == 0
        footer = read_csv(out).footer_comments[0]
        assert footer.startswith("loglog slope delta_hat vs L_i: slope=")
        assert footer.endswith(" se undefined: two rows")
        assert "se=" not in footer

    def test_thm2_thm3_cli(self, tmp_path):
        out2 = tmp_path / "t2.csv"
        assert main(["thm2", "-d", "3", "-j", "2", "--steps", "3", "--l0", "1",
                     "--seed", "42", "--out", str(out2), "--subspaces", "60"]) == 0
        assert read_csv(out2).header[0] == "m"
        out3 = tmp_path / "t3.csv"
        svg3 = tmp_path / "t3.svg"
        assert main(["thm3", "-d", "3", "-j", "2", "--steps", "3", "--l0", "1",
                     "--seed", "42", "--out", str(out3), "--svg", str(svg3),
                     "--subspaces", "60"]) == 0
        ET.parse(svg3)
        assert main(["thm2", "-d", "3", "-j", "3", "--steps", "2", "--l0", "1",
                     "--seed", "1", "--out", str(tmp_path / "bad.csv")]) == 3

    def test_a0_is_not_an_option(self, tmp_path, capsys):
        # thm3 takes its a0 from delta_j(K, empty) alone
        out = tmp_path / "t3.csv"
        assert main(["thm3", "-d", "3", "-j", "2", "--steps", "2", "--out", str(out),
                     "--a0", "1"]) == 3
        assert capsys.readouterr().err == (
            "configuration error: unrecognized arguments: --a0 1\n")
        assert not out.exists()

    def test_readme_commands_parse(self):
        # every command of README's CLI block, continuations joined, is one
        # the parser accepts: a removed flag left in the README fails here
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
        block = next(b for b in blocks if "projmetrics metric" in b)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("projmetrics ")]
        assert [argv[0] for argv in commands] == [
            "metric", "metric", "intrinsic", "hausdorff", "thm1", "thm2", "thm3", "lemma",
            "validate", "fibers", "reproduce"]
        for argv in commands:
            _build_parser().parse_args(argv)

    def test_lemma_and_validate(self, tmp_path):
        out = tmp_path / "lem.csv"
        assert main(["lemma", "-d", "4", "-j", "2", "--samples", "300",
                     "--seed", "1", "--out", str(out)]) == 0
        out2 = tmp_path / "val.csv"
        assert main(["validate", "--seed", "0", "--out", str(out2)]) == 0

    def test_fibers_cli(self, tmp_path, bodies):
        grown, square = TestFibersRunner().make_bodies()
        a = tmp_path / "a.body"
        b = tmp_path / "b.body"
        save_body(grown, a)
        save_body(square, b)
        out = tmp_path / "fib.csv"
        assert main(["fibers", "--body-a", str(a), "--body-b", str(b),
                     "--plane", "e1e2", "--grid", "40", "--out", str(out)]) == 0
        table = read_csv(out)
        assert table.header == ["y", "fiber_diff_length", "in_tube"]

    def test_fibers_cli_tube(self, tmp_path):
        grown, square = TestFibersRunner().make_bodies()
        tube = VPolytope([[0.5, 0.49], [0.5, 0.51]])
        paths = {name: tmp_path / f"{name}.body" for name in ("a", "b", "tube", "flat")}
        save_body(grown, paths["a"])
        save_body(square, paths["b"])
        save_body(tube, paths["tube"])
        save_body(VPolytope([[0.49], [0.51]]), paths["flat"])
        out = tmp_path / "fib.csv"
        args = ["fibers", "--body-a", str(paths["a"]), "--body-b", str(paths["b"]),
                "--grid", "200", "--out", str(out)]
        assert main(args + ["--tube", str(paths["tube"])]) == 0
        ref = tmp_path / "ref.csv"
        write_csv(run_fibers(grown, square, "e1e2", 200, tube=tube), ref)
        assert out.read_bytes() == ref.read_bytes()
        assert "true" in read_csv(out).column("in_tube")
        assert main(args + ["--tube", str(paths["flat"])]) == 3

    def test_l0_is_ignored_by_thm2(self, tmp_path):
        outs = []
        for l0 in ("1", "7"):
            out = tmp_path / f"l0_{l0}.csv"
            assert main(["thm2", "-d", "3", "-j", "2", "--steps", "3", "--l0", l0,
                         "--seed", "4", "--subspaces", "40", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_exact_mode_is_gone(self, bodies):
        with pytest.raises(ValueError):
            SamplingPlan(mode="exact")
        assert main(["metric", "--body-a", bodies[0], "--body-b", bodies[1],
                     "-d", "2", "-j", "2", "--mode", "exact"]) == 3

    def test_reproduce_matches_the_subcommands(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "--out-dir", str(out), "--seed", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fibers_needle.csv", "lemma_d4_j2.csv", "thm1_d3_j2.csv", "thm1_d3_j2.svg",
            "thm2_d3_j2.csv", "thm3_d3_j2.csv", "validation.csv"]
        thm1, validation = tmp_path / "thm1.csv", tmp_path / "validation.csv"
        assert main(["thm1", "-d", "3", "-j", "2", "--seed", "3", "--out", str(thm1)]) == 0
        assert main(["validate", "--seed", "3", "--out", str(validation)]) == 0
        assert (out / "thm1_d3_j2.csv").read_bytes() == thm1.read_bytes()
        assert (out / "validation.csv").read_bytes() == validation.read_bytes()
        ET.parse(out / "thm1_d3_j2.svg")

    def test_config_error_exit_code(self, tmp_path):
        assert main(["thm1", "-d", "9", "-j", "2", "--steps", "2", "--l0", "2",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 3
        assert main(["metric", "--body-a", "missing.body", "--empty",
                     "-d", "2", "-j", "1"]) == 3
        assert main(["nonsense"]) == 3
        # reproduce runs only exact tables, so it takes no worker count
        assert main(["reproduce", "--out-dir", str(tmp_path / "r"), "--workers", "1"]) == 3
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_fibers_grid_below_one_is_a_config_error(self, tmp_path, bodies, capsys, grid):
        small, big = bodies
        out = tmp_path / "f.csv"
        assert main(["fibers", "--body-a", big, "--body-b", small, "--grid", grid,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"configuration error: fiber grid size must be >= 1, got {grid}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,flag", [("thm1", "l0")])
    def test_non_finite_length_or_floor_is_named(self, tmp_path, capsys, command, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code = main([command, f"--{flag}", value, "-d", "3", "-j", "2", "--steps", "2",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"configuration error: {flag} must be positive and finite, got {value}\n")

    def test_consecutive_calls_share_no_state(self, tmp_path):
        args = ["thm1", "-d", "3", "-j", "2", "--steps", "2", "--seed", "1",
                "--subspaces", "20", "--out", str(tmp_path / "a.csv")]
        svg = tmp_path / "a.svg"
        assert main(args + ["--svg", str(svg)]) == 0
        svg.unlink()
        assert main(args) == 0
        assert not svg.exists()
        assert main(["thm1", "-d", "3", "--out", str(tmp_path / "b.csv")]) == 3
        assert main(args) == 0
        assert not svg.exists()

    def test_qhull_failure_exits_cleanly(self, tmp_path, monkeypatch, capsys):
        import scipy.spatial
        from scipy.spatial import QhullError

        def fail(*args, **kwargs):
            raise QhullError("QH6271 qhull topology error: wide merge\nmore detail")

        body = tmp_path / "cube.body"
        save_body(VPolytope(np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0)
                                      for c in (0.0, 1.0)])), body)
        monkeypatch.setattr(scipy.spatial, "ConvexHull", fail)
        assert main(["intrinsic", "--body", str(body), "-j", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: qhull failed on a 8 x 3 vertex array")
        assert "wide merge" in err and "more detail" not in err

    def test_io_error_exit_code(self):
        assert main(["thm1", "-d", "3", "-j", "2", "--steps", "2", "--l0", "2",
                     "--seed", "1", "--subspaces", "20",
                     "--out", "/nonexistent/dir/x.csv"]) == 4

    def test_cross_process_determinism(self, tmp_path):
        # identical bytes from two separate interpreter processes, each
        # importing the library under test
        src = str(pathlib.Path(metrics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs = []
        for k in range(2):
            out = tmp_path / f"proc{k}.csv"
            args = [sys.executable, "-m", "projmetrics", "thm1", "-d", "3", "-j", "2",
                    "--steps", "2", "--l0", "2", "--seed", "9", "--subspaces", "80",
                    "--out", str(out)]
            proc = subprocess.run(args, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
