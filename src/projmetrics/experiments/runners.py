"""Experiment runners: drift, dyadic-Cauchy, empty-set floor, good-subspace
statistics, cross-validation, and the fiber diagnostic.

Reporting policy: quantities forced by convexity or plain arithmetic (drift
floors, schedule identities, corrected block lower bounds, containment) are
hard assertions that abort the run; claimed per-step discrepancy bounds are
recorded next to the measured values as ratio columns, never asserted.  The
tables show those bounds failing: each row of thm1-3 is conv(base u needle),
which adds the cone bridging the base and the needle tip, whose j-volume
grows like the needle's length at any width, so no hull-augmented sequence
here is delta_j-convergent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..bodies import VPolytope, bounding_radius, distance_to_hull
from ..constructions import (
    NeedleSpec,
    block_bounds,
    thm1_sequence,
    thm2_sequence,
    thm3_sequence,
)
from ..grassmann import (
    Subspace,
    axis_subspace,
    goodness,
    goodness_stack,
    haar_frames,
    haar_sample,
    restricted_sigma_min,
)
from ..metrics import (
    AUX_STREAM_BASE,
    SamplingPlan,
    delta_j_stack,
    fiber_profile,
    hausdorff_stack,
    intrinsic_volume,
    projected_volume,
)
from ..numerics import RngStream, flag_coefficient, needle_bound_constant, uniform_block
from ..oracles import exact_outside_area_stack, exact_symdiff, mc_symdiff, mc_volume_stack
from .config import ConfigError, ExperimentConfig
from .tables import CsvTable

__all__ = [
    "AssertionFailure",
    "unit_cube_body",
    "run_thm1",
    "run_thm2",
    "run_thm3",
    "run_lemma",
    "run_validation",
    "run_fibers",
]

SCHEDULE_TOL = 1e-12
GOOD_SIGMA = 1e-8
LOW_PRECISION_REL_SE = 0.05


class AssertionFailure(RuntimeError):
    """A hard runner assertion failed; the message identifies the row."""


def unit_cube_body(d: int, j: int) -> tuple[VPolytope, Subspace, np.ndarray, np.ndarray]:
    """Unit j-cube in span{e_1..e_j} of R^d, its plane, centroid, and axis e_1."""
    verts = [list(bits) + [0.0] * (d - j) for bits in itertools.product((0.0, 1.0), repeat=j)]
    body = VPolytope(np.array(verts))
    plane = axis_subspace(d, list(range(j)))
    x0 = body.vertices.mean(axis=0)
    u = np.zeros(d)
    u[0] = 1.0
    return body, plane, x0, u


def _plan(cfg: ExperimentConfig) -> SamplingPlan:
    return SamplingPlan(n_subspaces=cfg.n_subspaces, n_points=cfg.n_points,
                        seed=cfg.seed, mode=cfg.mode)


def _ols_loglog(xs, ys) -> tuple[float, float | None]:
    """Least-squares slope of log y on log x, with its standard error; needs
    at least two rows.  Two rows leave no residual degrees of freedom, so
    their error is None: undefined, not zero."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    resid = ly - (ly.mean() + slope * (lx - mx))
    se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx) if n > 2 else None
    return slope, se


def _slope_footer(labels, xs, ys) -> str:
    """thm1's slope footer line; the log-log slope is undefined, and the
    line names the rows, when some y is not positive, and it is undefined
    for a table of one row; a two-row slope has no standard error."""
    bad = [str(m) for m, y in zip(labels, ys) if not y > 0.0]
    if bad:
        return f"loglog slope delta_hat vs L_i: slope undefined: rows {','.join(bad)} non-positive"
    if len(ys) < 2:
        return "loglog slope delta_hat vs L_i: slope undefined: one row"
    slope, se = _ols_loglog(xs, ys)
    err = "se undefined: two rows" if se is None else f"se={se:.6g}"
    return f"loglog slope delta_hat vs L_i: slope={slope:.6g} {err}"


def _low_precision_footer(labels, ests) -> list[str]:
    """The footer line naming the rows whose relative se exceeds 5% (a zero
    estimate counts as precise), or no line when there is none."""
    noisy = [str(m) for m, est in zip(labels, ests)
             if (est.std_error / est.value if est.value > 0 else 0.0) > LOW_PRECISION_REL_SE]
    return ["low-precision rows (relative se > 5%): " + ",".join(noisy)] if noisy else []


def _check_schedule(command: str, cfg: ExperimentConfig, row, target: float,
                    scale: float) -> None:
    """Hard assertion: the row's needle meets its step target, c2 eps^(j-1)
    L = target, to SCHEDULE_TOL times scale."""
    ident = needle_bound_constant(cfg.d, cfg.j, "two_sided") * row.eps ** (cfg.j - 1) * row.length
    if abs(ident - target) > SCHEDULE_TOL * scale:
        raise AssertionFailure(f"{command} row m={row.m}: schedule identity off by "
                               f"{abs(ident - target):.3e}")


def run_thm1(cfg: ExperimentConfig) -> CsvTable:
    """Drift experiment: doubling prism needles attached to the unit j-cube.

    Hard assertion per row: the Hausdorff distance to the base body is at
    least L_i - ||x0|| - R_K (forced by the reverse triangle inequality).
    The claimed discrepancy bound is recorded as a ratio, not asserted, and
    it fails: the sequence is not delta_j-convergent.  At seed 1, (d, j) =
    (3, 2) and 6 steps, delta_hat goes 1.125 -> 31.77 (about L_i / 2) and
    bound_ratio reaches 508; at (4, 3) and 12 steps bound_ratio reaches
    1.27e13, with a log-log slope of 0.991.
    """
    base, plane, x0, u = unit_cube_body(cfg.d, cfg.j)
    plan = _plan(cfg)
    r_base = bounding_radius(base)
    x0n = float(np.linalg.norm(x0))
    seq = thm1_sequence(base, plane, x0, u, cfg.l0, cfg.steps)
    bodies = [body for _, body in seq]
    ests = delta_j_stack([(body, base) for body in bodies], cfg.j, plan, workers=cfg.workers)
    dhs = hausdorff_stack(bodies, base)

    table = CsvTable(header=["i", "L_i", "eps_i", "claimed_bound", "delta_hat", "delta_se",
                             "d_hausdorff", "drift_floor", "bound_ratio"])
    for (row, _), est, dh in zip(seq, ests, dhs):
        floor = row.length - x0n - r_base
        if dh < floor - 1e-9:
            raise AssertionFailure(
                f"thm1 row i={row.m}: d_hausdorff {dh:.6g} < drift floor {floor:.6g}")
        table.add_row([row.m, row.length, row.eps, row.claimed_step_bound,
                       est.value, est.std_error, dh, floor,
                       est.value / row.claimed_step_bound])

    labels = [row.m for row, _ in seq]
    table.footer_comments.append(_slope_footer(
        labels, [row.length for row, _ in seq], [est.value for est in ests]))
    table.footer_comments += _low_precision_footer(labels, ests)
    return table


def _good_subspace_scan(cfg: ExperimentConfig, plane: Subspace, u: np.ndarray):
    """Fraction of random subspaces passing the goodness threshold, plus the
    first passing subspace and its certificate.

    A subspace H passes when sigma_min > GOOD_SIGMA, where sigma_min is the
    smallest singular value of the projection P onto H restricted to the
    plane; only sigma_min is computed for the scan's frames.  That test
    already gives c > 0: ell = |P u| >= sigma_min, and for x in the plane
    with x perpendicular to u, the transverse map sends x to the part of P x
    orthogonal to P u, of length min over lambda of |P(x - lambda u)| >=
    sigma_min |x - lambda u| >= sigma_min |x|, so every singular value of
    the transverse map, their product the Jacobian, and c = 2 ell b are
    positive.  The full certificate is built for the chosen frame alone."""
    # stream keys AUX_STREAM_BASE + 2i
    frames = haar_frames(cfg.d, cfg.j, cfg.seed,
                         AUX_STREAM_BASE // 2 + np.arange(cfg.n_subspaces))
    good = restricted_sigma_min(frames, plane) > GOOD_SIGMA
    if not good.any():
        raise AssertionFailure("no good subspace found in the scan (measure-zero event)")
    h = Subspace(frames[np.argmax(good)])
    return int(np.count_nonzero(good)) / cfg.n_subspaces, (h, goodness(h, plane, u))


def run_thm2(cfg: ExperimentConfig) -> CsvTable:
    """Dyadic-Cauchy experiment: spindle needles with step targets 2^-(m+1).

    Each row m holds the step delta_j(K_m, K_{m-1}) (all rows in one
    delta_j_stack pass) and, in one good subspace H from the scan, the
    block bounds of the row's spindle, its projected volume (the measured
    block) and the mass of the projected body outside the exclusion ball of
    radius R_m.  Under auto at j = 2 that mass is the exact area outside
    the disc, every row's in one oracles.exact_outside_area_stack pass, with
    se 0; otherwise (j >= 3, or monte_carlo mode) it is box MC, every row's
    in one mc_volume_stack draw.  A footer line names the method, and for
    box MC its points per row and largest se.

    The claimed steps are recorded, not asserted, and they fail: at seed 1
    and (d, j) = (3, 2), step_delta_hat goes 0.5 -> 16 while claimed_step
    halves each row, so the sequence is not delta_j-Cauchy.

    Hard assertions: the schedule identity to 1e-12, and the measured
    projected needle volume at least the cone-corrected block bound.  The
    outside mass must reach that bound too when the needle's projection
    clears the exclusion ball.  The distance from the origin to the
    projected needle is computed only when it can decide that assertion: the
    outside mass fell short and no projected needle vertex lies within R_m
    (such a vertex already puts the needle within R_m)."""
    if cfg.j >= cfg.d:
        raise ConfigError(f"thm2 requires j <= d-1, got (d={cfg.d}, j={cfg.j})")
    base, plane, x0, u = unit_cube_body(cfg.d, cfg.j)
    plan = _plan(cfg)
    seq = thm2_sequence(base, plane, x0, u, cfg.steps)
    good_fraction, (h_good, cert) = _good_subspace_scan(cfg, plane, u)
    bodies = [body for _, body in seq]
    ests = delta_j_stack(zip(bodies, [base, *bodies[:-1]]), cfg.j, plan, workers=cfg.workers)
    projected = [body.vertices @ h_good.basis for body in bodies]
    radii = [row.exclusion_radius for row, _ in seq]
    if plan.mode == "auto" and cfg.j == 2:
        outside = [(mass, 0.0) for mass in exact_outside_area_stack(projected, radii)]
        method = "exact area outside the disc of radius R_m (hull ring and disc), se 0"
    else:
        outside = mc_volume_stack(
            projected, cfg.j, plan.n_points,
            [RngStream(cfg.seed, AUX_STREAM_BASE + 4 * cfg.n_subspaces + idx)
             for idx in range(len(seq))], radii)
        method = (f"box Monte Carlo, {plan.n_points} points per row, "
                  f"largest se {max(se for _, se in outside):.6g}")

    table = CsvTable(header=["m", "L_m", "eps_m", "T_m", "R_m", "claimed_step",
                             "step_delta_hat", "step_se", "good_H_fraction",
                             "paper_block", "corrected_block", "measured_block",
                             "outside_mass_hat"])
    prev = base
    for idx, ((row, body), est, (out_mass, out_se)) in enumerate(zip(seq, ests, outside)):
        _check_schedule("thm2", cfg, row, 2.0 ** -(row.m + 1), 1.0)
        spec = NeedleSpec(x0=row.x_m, u=u, plane=plane, length=row.length,
                          eps=row.eps, kind="spindle")
        needle = VPolytope(body.vertices[prev.n_vertices:])  # this row's spindle
        bounds = block_bounds(cert, spec)
        measured = projected_volume(needle, h_good, plan,
                                    sample_index=AUX_STREAM_BASE + 2 * cfg.n_subspaces + idx)
        slack = 1e-9 * (1.0 + bounds.cone_bound)
        if measured.value < bounds.cone_bound - 4.0 * measured.std_error - slack:
            raise AssertionFailure(
                f"thm2 row m={row.m}: measured block {measured.value:.6g} below "
                f"corrected bound {bounds.cone_bound:.6g}")
        r = row.exclusion_radius
        if out_mass < bounds.cone_bound - 4.0 * out_se - slack:
            tips = needle.vertices @ h_good.basis
            if (np.min(np.einsum("ij,ij->i", tips, tips)) > r * r
                    and distance_to_hull(np.zeros(cfg.j), VPolytope(tips)) > r):
                raise AssertionFailure(
                    f"thm2 row m={row.m}: outside mass {out_mass:.6g} below corrected "
                    f"bound {bounds.cone_bound:.6g} despite a clear needle")
        table.add_row([row.m, row.length, row.eps, row.offset, r,
                       row.claimed_step_bound, est.value, est.std_error, good_fraction,
                       bounds.rect_bound, bounds.cone_bound, measured.value, out_mass])
        prev = body
    table.footer_comments.append(
        f"claimed_step partial sum: {sum(r.claimed_step_bound for r, _ in seq):.17g}")
    table.footer_comments.append(f"outside_mass_hat: {method}")
    return table


def run_thm3(cfg: ExperimentConfig) -> CsvTable:
    """Empty-set floor experiment: dyadic spindles with a0-scaled targets.

    a0 is always the measured distance of the base body to the empty set,
    delta_j(K, empty) = V_j(K), the value the footer prints: the schedule,
    the claimed floor 3/4 a0 and the footer's `used` all take this one
    number.  The claimed floor and steps are recorded, not asserted.  The
    distance to the empty set grows with the needle, 1.5 -> 32.5 at seed 1
    and (d, j) = (3, 2): the sequence is unbounded in delta_j, so it is not
    the delta_j-Cauchy sequence its claimed steps describe."""
    if cfg.j >= cfg.d:
        raise ConfigError(f"thm3 requires j <= d-1, got (d={cfg.d}, j={cfg.j})")
    base, plane, x0, u = unit_cube_body(cfg.d, cfg.j)
    plan = _plan(cfg)
    a0_est = intrinsic_volume(base, cfg.j, plan, workers=cfg.workers)
    a0 = a0_est.value
    seq = thm3_sequence(base, plane, x0, u, cfg.steps, a0)

    table = CsvTable(header=["m", "eps_m", "claimed_step", "delta_to_empty_hat",
                             "se", "claimed_floor"])
    floor = 0.75 * a0
    ests = delta_j_stack([(body, None) for _, body in seq], cfg.j, plan, workers=cfg.workers)
    for (row, _), est in zip(seq, ests):
        _check_schedule("thm3", cfg, row, (a0 / 4.0) * 2.0 ** -(row.m + 1), max(1.0, a0))
        table.add_row([row.m, row.eps, row.claimed_step_bound, est.value,
                       est.std_error, floor])
    claimed_sum = sum(r.claimed_step_bound for r, _ in seq)
    if claimed_sum > a0 / 4.0 + 1e-12:
        raise AssertionFailure(f"thm3: claimed step sum {claimed_sum:.6g} exceeds a0/4")
    table.footer_comments.append(
        f"a0={a0:.17g} se={a0_est.std_error:.17g} used={a0:.17g}")
    table.footer_comments.append(f"claimed_step sum: {claimed_sum:.17g}")
    table.footer_comments += _low_precision_footer([row.m for row, _ in seq], ests)
    return table


def run_lemma(cfg: ExperimentConfig) -> CsvTable:
    """Goodness statistics over random subspaces against the canonical plane."""
    _, plane, _, u = unit_cube_body(cfg.d, cfg.j)
    frames = haar_frames(cfg.d, cfg.j, cfg.seed, np.arange(cfg.n_subspaces))
    certs = goodness_stack(frames, plane, u)
    sigma, ell, jac = certs.sigma_min, certs.ell, certs.jacobian
    proj2 = np.sum(frames[:, 0, :] ** 2, axis=1)  # |P_H e1|^2: row 0 of each frame
    table = CsvTable(header=["n_samples", "sigma_min_min", "sigma_min_mean",
                             "ell_min", "ell_mean", "jacobian_min", "jacobian_mean",
                             "near_singular_count", "mean_proj_e1_sq", "target_j_over_d"])
    table.add_row([cfg.n_subspaces, float(sigma.min()), float(sigma.mean()),
                   float(ell.min()), float(ell.mean()), float(jac.min()),
                   float(jac.mean()), int(np.sum(sigma < GOOD_SIGMA)),
                   float(proj2.mean()), cfg.j / cfg.d])
    return table


def _random_polygon(stream: RngStream, n_points: int = 8, scale: float = 2.0) -> VPolytope:
    pts = uniform_block(stream, 2 * n_points).reshape(n_points, 2) * scale
    return VPolytope(pts)


def run_validation(seed: int = 0) -> CsvTable:
    """Cross-checks at acceptance tolerances: flag coefficients, exact-vs-MC
    symmetric differences, the projection-average identities for the cube
    and a segment.  Failures are recorded in the `passed` column, they do
    not abort the run."""
    table = CsvTable(header=["check", "case", "expected", "measured", "std_error",
                             "tol", "passed"])

    for d in range(1, 9):
        v = flag_coefficient(d, d)
        table.add_row(["flag", f"({d},{d})", 1.0, v, 0.0, 0.0, v == 1.0])
    for (d, j, expected) in [(2, 1, math.pi / 2.0), (3, 2, 2.0)]:
        v = flag_coefficient(d, j)
        table.add_row(["flag", f"({d},{j})", expected, v, 0.0, 1e-12,
                       abs(v - expected) <= 1e-12])

    n_ok = 0
    for k in range(20):
        a = _random_polygon(RngStream(seed, AUX_STREAM_BASE + 3 * k))
        b = _random_polygon(RngStream(seed, AUX_STREAM_BASE + 3 * k + 1))
        exact = exact_symdiff(a.vertices, b.vertices, 2)
        mc, se = mc_symdiff(a.vertices, b.vertices, 2, 100_000,
                             RngStream(seed, AUX_STREAM_BASE + 3 * k + 2))
        ok = abs(mc - exact) <= 4.0 * se
        n_ok += ok
        table.add_row(["symdiff_mc_vs_exact", f"pair_{k}", exact, mc, se,
                       4.0 * se, ok])
    table.add_row(["symdiff_summary", "pairs_within_4se", 19, n_ok, 0.0, 0.0, n_ok >= 19])

    plan = SamplingPlan(n_subspaces=4000, n_points=2000, seed=seed)
    cube = VPolytope(np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0)
                               for c in (0.0, 1.0)]))
    v2 = intrinsic_volume(cube, 2, plan)
    table.add_row(["kubota_cube", "V2_unit_cube_R3", 3.0, v2.value, v2.std_error, 0.05,
                   abs(v2.value - 3.0) < 0.05 and abs(v2.value - 3.0) <= 3.0 * v2.std_error])
    segment = VPolytope(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
    v1 = intrinsic_volume(segment, 1, plan)  # a flat body: exact, no subspace drawn
    tol = 1e-12 * 5.0
    table.add_row(["segment_v1", "length_5_R3", 5.0, v1.value, v1.std_error, tol,
                   v1.exact and abs(v1.value - 5.0) <= tol])
    return table


def run_fibers(body_a: VPolytope, body_b: VPolytope, plane: str, grid_n: int,
               tube: VPolytope | None = None) -> CsvTable:
    """Fiber-difference profile of body_b inside body_a over a 2-plane.

    `plane` is either 'e1e2' or 'random:<seed>'.  The axis direction is e1
    for both: its projection is 1 into e1e2 and vanishes with probability 0
    in a Haar plane, where a degenerate one raises DegenerateDirectionError;
    y is the other coordinate of the plane."""
    if body_a.ambient_dim != body_b.ambient_dim:
        raise ValueError("bodies live in different dimensions")
    d = body_a.ambient_dim
    if plane == "e1e2":
        if d < 2:
            raise ValueError("plane e1e2 needs ambient dimension >= 2")
        h = axis_subspace(d, [0, 1])
    elif plane.startswith("random:"):
        h = haar_sample(d, 2, RngStream(int(plane.split(":", 1)[1]), AUX_STREAM_BASE))
    else:
        raise ValueError(f"plane must be 'e1e2' or 'random:<seed>', got {plane!r}")
    profile = fiber_profile(body_a, body_b, h, np.eye(d)[0], grid_n, tube=tube)
    table = CsvTable(header=["y", "fiber_diff_length", "in_tube"],
                     columns=[profile.y[:, 0], profile.diff_length, profile.in_tube])
    table.footer_comments.append(f"diff_measure: {profile.diff_measure:.17g}")
    table.footer_comments.append(
        f"diff_measure_outside_tube: {profile.diff_measure_outside_tube:.17g}")
    table.footer_comments.append(f"tube_measure: {profile.tube_measure:.17g}")
    table.footer_comments.append(f"cell_measure: {profile.cell_measure:.17g}")
    return table
