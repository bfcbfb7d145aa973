"""Estimators for projection-averaged metrics on convex bodies.

delta_j averages, over random j-dimensional subspaces, the j-volume of the
symmetric difference of the two bodies' projections, scaled by the flag
coefficient.  With one operand absent the same code path yields the
intrinsic volume V_j; with j = d no subspace averaging happens and the
metric is exactly the symmetric difference metric.

Flat operands draw nothing.  For operands that span an affine j-flat with
orthonormal frame Q, projection onto H acts on the flat as H^T Q, and
flag(d, j) E_H |det(H^T Q)| = 1 (Kubota/Cauchy; Schneider, Convex Bodies,
2nd ed., sec. 5.3).  So unless Monte Carlo is asked for, a single flat
operand or a nested flat pair gives the in-flat vol_j(K symdiff L) exactly,
at every j.  The frame belongs to each body: a VPolytope keeps one chart
(the frame of its affine hull and, built once on demand, its in-flat facets
and volume), so a table whose rows share a base body builds the base's hull
once.  A body in a coordinate flat, as every thm body is, and every body at
j = d, keeps its own coordinates: its chart is its varying columns.
An operand that spans no j-flat is the empty set, each of its projections
having j-measure zero.  A single operand gives its chart volume; a pair of
which one operand's vertex rows lead the other's, or pass bodies.contains
on it, is nested and gives |vol K - vol L|; a pair in one flat that is not
nested is clipped at j <= 2 in the chart of its union.

A table evaluates all of its rows in one pass through the stacked forms,
of which delta_j and hausdorff are the one-row case, bit for bit:
delta_j_stack compares the vertex lists of all its pairs at once, builds
the charts of all its operands at once (bodies._charts runs one rank SVD
for all of them when padding their vertex sets to one stack at most
doubles them, and one per operand otherwise), then every hull the pairs
read, back to back, then answers each pair from the cached volumes;
hausdorff_stack puts the vertices of many bodies to one shared body's
facet certificate in one call and reads every body's largest distance in
one pass over the owner of each certified row.

The rest samples subspaces: non-flat bodies, flat pairs at j >= 3 that are
not nested (at j = d one box Monte Carlo estimate in the bodies' own
coordinates), and monte_carlo mode.  Per-sample inner volumes are exact for
j <= 2 and, for a single operand, at j >= 3 too (the qhull volume of the
projection's chart); a pair at j >= 3 is box Monte Carlo per sample.
Every draw is addressed by (seed, sample index), so estimates are
bit-identical for any worker count: sample i consumes streams 2i
(subspace) and 2i+1 (points), reduced in index order.
A batch's frames come as one (n, d, j) array (grassmann.haar_frames) and
the operands are projected with one batched product; only the inner oracles
run once per sample.  One sample gives no spread to estimate an error from,
so its standard error is inf.  projected_volume under auto takes the qhull
volume at j >= 3.

The inner oracles themselves, exact and box Monte Carlo, live in
projmetrics.oracles; this module holds the estimators built on them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bodies import (
    DEFAULT_TOL,
    VPolytope,
    _affine_rank,
    _charts,
    _fill_charts,
    _row_blocks,
    contains,
    distance_to_hull,
    line_fibers,
)
from .grassmann import Subspace, axis_split, haar_frames, project_body
from .numerics import RngStream, flag_coefficient
from .oracles import exact_symdiff, exact_volume, mc_symdiff, mc_volume

__all__ = [
    "MetricEstimate",
    "SamplingPlan",
    "projected_volume",
    "delta_j",
    "delta_j_stack",
    "intrinsic_volume",
    "hausdorff",
    "hausdorff_stack",
    "FiberProfile",
    "fiber_profile",
]

# auxiliary draws (good-subspace scans, standalone estimates) live far away
# from the per-sample stream ids 2i / 2i+1
AUX_STREAM_BASE = 1 << 32


@dataclass(frozen=True)
class SamplingPlan:
    n_subspaces: int = 2000
    n_points: int = 2000
    seed: int = 0
    # auto: the exact in-flat value for a single or nested flat operand at
    # every j (no subspace drawn), else exact per sample for j <= 2 and for a
    # single operand, and Monte Carlo for a pair at j >= 3; monte_carlo:
    # always per-sample MC
    mode: str = "auto"

    def __post_init__(self):
        if self.n_subspaces < 1 or self.n_points < 1:
            raise ValueError("n_subspaces and n_points must be >= 1")
        if self.mode not in ("auto", "monte_carlo"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")


@dataclass(frozen=True)
class MetricEstimate:
    """A metric value with its standard error and sample provenance.

    n_subspaces == 0 means no subspace was drawn (flat operands below j = d,
    identical or empty operands): the value is exact and per_subspace empty.
    At j = d the one subspace is the whole space, per_subspace ((0, value),)."""

    value: float
    std_error: float
    n_subspaces: int
    n_points_per_subspace: int
    exact: bool
    per_subspace: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact estimates carry zero standard error")


# ---------------------------------------------------------------------------
# Per-sample evaluation: pure in (seed, index), hence worker-independent.
# ---------------------------------------------------------------------------


def _pair_value(pa: np.ndarray | None, pb: np.ndarray | None, j: int, n_points: int,
                exact_inner: bool, pstream: RngStream) -> tuple[float, float]:
    """Raw symmetric-difference volume of two projected vertex sets (None =
    empty operand = empty projection), with its inner MC error; pstream
    feeds the MC oracles only."""
    ops = [v for v in (pa, pb) if v is not None]
    if exact_inner:
        return (exact_volume if len(ops) == 1 else exact_symdiff)(*ops, j), 0.0
    return (mc_volume if len(ops) == 1 else mc_symdiff)(*ops, j, n_points, pstream)


def _batch_values(task) -> np.ndarray:
    """Sample values lo..hi-1: pure in (seed, index), hence worker-independent."""
    seed, lo, hi, d, j, va, vb, n_points, exact_inner = task
    frames = haar_frames(d, j, seed, np.arange(lo, hi))
    # one batched product; each slice has the bits of va @ frame
    pa = va @ frames if va is not None else [None] * (hi - lo)
    pb = vb @ frames if vb is not None else [None] * (hi - lo)
    return np.array([
        _pair_value(a, b, j, n_points, exact_inner, RngStream(seed, 2 * index + 1))[0]
        for index, a, b in zip(range(lo, hi), pa, pb)])


def _flat_values(j: int, pairs, led) -> list[float | None]:
    """vol_j(K symdiff L) inside the affine j-flat that holds both operands
    of each pair, from each body's own cached chart; None where no exact
    in-flat answer applies and the caller samples.  led[k] says whether one
    operand's vertex rows are the first rows of the other's (_heads_agree).

    First every volume the pairs read is taken, so that a table's qhull
    calls run back to back.  A pair with an operand that spans more than a
    j-flat gives None and builds no hull.  No operand (delta_j_stack has
    made None each that spans no j-flat) gives exactly 0.0, one operand its
    chart volume, and a pair whose rows lead, whose shorter list therefore
    lies in the other's hull, gives |vol K - vol L| with no facet tested.
    Only the other pairs go to _flat_value.

    A body in a coordinate flat, as every thm body is, keeps its own
    coordinates and vertex order at every j: its chart's coordinates are
    the body's varying columns, so no value depends on the ambient d, and
    qhull sees the given order, whose last bits it can follow (at j = d = 6
    it fails on the sorted order of thm1's last 6-cube row but not on the
    given one).  Only a body in an oblique flat is charted from its sorted
    distinct vertex rows, and there no bit depends on vertex order."""
    charts = [[x._chart for x in pair if x is not None] for pair in pairs]
    volumes = [None if any(c.dim > j for c in cs) else [c.volume for c in cs] for cs in charts]
    out = []
    for (a, b), vols, lead in zip(pairs, volumes, led):
        if vols is None or len(vols) < 2:
            out.append(None if vols is None else sum(vols, 0.0))
        elif lead:
            out.append(abs(vols[0] - vols[1]))
        else:
            out.append(_flat_value(j, a, b))
    return out


def _flat_value(j: int, a: VPolytope, b: VPolytope) -> float | None:
    """The in-flat value of a pair of _flat_values whose vertex rows do not
    lead, each operand spanning a j-flat.  The pair is nested when one
    operand's vertices pass bodies.contains on the other (in its flat and
    inside the facets its volume built, at 1e-12 times its chart's scale),
    and then the value is |vol K - vol L|.  A pair that is not nested is
    clipped at j <= 2 in the chart of its union, which has dimension j
    exactly when the pair lies in one j-flat; it gets None at j >= 3, as
    does a pair in no common j-flat."""
    for outer, inner in ((a, b), (b, a)):
        if contains(outer, inner.vertices, 1e-12 * outer._chart.scale).all():
            return abs(a._chart.volume - b._chart.volume)
    if j >= 3:
        return None
    c = _charts([np.vstack([a.vertices, b.vertices])])[0]
    if c.dim != j:
        return None  # no common j-flat
    return exact_symdiff(c.to_flat(a.vertices), c.to_flat(b.vertices), j)


def _heads_agree(pairs) -> list[bool]:
    """For each pair (x, y) of vertex arrays of one width, whether their
    first min(len x, len y) rows are equal, from one elementwise comparison
    over all pairs.  When they are, the shorter list's rows are the first
    rows of the longer's, so they lie in its hull (equal lengths: the same
    list)."""
    if not pairs:
        return []
    xs = [x[:len(y)].ravel() for x, y in pairs]
    ys = [y[:len(x)].ravel() for x, y in pairs]
    starts = np.cumsum([0] + [x.size for x in xs[:-1]])
    return np.logical_and.reduceat(np.concatenate(xs) == np.concatenate(ys), starts).tolist()


def _collect_values(seed, n, d, j, va, vb, n_points, exact_inner, workers) -> np.ndarray:
    if workers <= 1 or n < 2 * workers:
        return _batch_values((seed, 0, n, d, j, va, vb, n_points, exact_inner))
    bounds = np.linspace(0, n, workers + 1, dtype=int)
    tasks = [(seed, int(a), int(b), d, j, va, vb, n_points, exact_inner)
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(_batch_values, tasks))
    return np.concatenate(chunks)  # chunk order == index order


# ---------------------------------------------------------------------------
# Public estimators.
# ---------------------------------------------------------------------------


def projected_volume(body: VPolytope, h: Subspace, plan: SamplingPlan,
                     sample_index: int = AUX_STREAM_BASE) -> MetricEstimate:
    """j-volume of the projection of the body into h.  The body's offsets
    from its vertex mean are projected, which leaves the volume as it is:
    a thin body far from the origin then keeps its width's bits, which a
    projection of its raw coordinates would round at the scale of its
    distance from the origin."""
    if body.ambient_dim != h.ambient_dim:
        raise ValueError("body and subspace ambient dimensions differ")
    j = h.dim
    verts = (body.vertices - body.vertices.mean(axis=0)) @ h.basis
    if plan.mode == "auto":  # qhull volume at j >= 3
        val = exact_volume(verts, j)
        return MetricEstimate(val, 0.0, 1, 0, exact=True, per_subspace=((0, val),))
    stream = RngStream(plan.seed, 2 * sample_index + 1)
    val, se = mc_volume(verts, j, plan.n_points, stream)
    # degenerate bodies short-circuit to an exact zero inside mc_volume
    exact = _affine_rank(verts) < j
    return MetricEstimate(val, se, 1, plan.n_points, exact=exact, per_subspace=((0, val),))


def delta_j(a: VPolytope | None, b: VPolytope | None, j: int, plan: SamplingPlan,
            workers: int = 1) -> MetricEstimate:
    """Flag-scaled average projection discrepancy between two bodies.

    Either operand may be None (the empty set); the projection of the empty
    set is empty, so its per-subspace contribution is the other body's
    projected volume.  delta_j(empty, empty) = 0 exactly, and identical
    operands short-circuit to 0 with no samples drawn.  A single or nested
    flat operand returns its exact in-flat value, also with none drawn, and
    an operand that spans no j-flat counts as the empty set (outside
    monte_carlo mode).  The one-pair case of delta_j_stack.
    """
    return delta_j_stack([(a, b)], j, plan, workers=workers)[0]


def delta_j_stack(pairs, j: int, plan: SamplingPlan,
                  workers: int = 1) -> list[MetricEstimate]:
    """delta_j of each (a, b) pair, in order, with the bits delta_j gives
    the pair on its own, the exact work of all pairs done in passes: one
    comparison finds the pairs whose vertex lists agree on their common
    head (identical lists, or one leading the other), every operand's chart
    is built in one bodies._charts pass, then every hull that the pairs
    read in one pass, so that a table's qhull calls run back to back, and
    only then is each pair answered (_flat_values), from the cached volumes
    or by the sampler.  There an operand whose chart spans no j-flat is
    None: delta_j(S, T) = V_j(T), as intrinsic_volume(T) gives it."""
    pairs = list(pairs)
    for a, b in pairs:
        _check_operands(a, b, j)
    agree = iter(_heads_agree([(a.vertices, b.vertices) for a, b in pairs
                               if a is not None and b is not None]))
    led = [a is not None and b is not None and next(agree) for a, b in pairs]
    # both operands empty, or identical vertex lists: 0 with nothing drawn
    trivial = [(a is None and b is None) or (t and a.n_vertices == b.n_vertices)
               for (a, b), t in zip(pairs, led)]
    flat, ops = [None] * len(pairs), list(pairs)
    if plan.mode != "monte_carlo":
        live = [k for k, t in enumerate(trivial) if not t]
        _fill_charts([x for k in live for x in pairs[k] if x is not None])
        for k in live:
            ops[k] = tuple(None if x is None or x._chart.dim < j else x for x in pairs[k])
        for k, f in zip(live, _flat_values(j, [ops[k] for k in live], [led[k] for k in live])):
            flat[k] = f
    zero = MetricEstimate(0.0, 0.0, 0, 0, exact=True, per_subspace=())
    out = []
    for (a, b), (x, y), t, f in zip(pairs, ops, trivial, flat):
        if t:
            out.append(zero)
        elif f is None:
            out.append(_sampled_pair(x, y, j, plan, workers))
        elif j == (a if a is not None else b).ambient_dim:
            out.append(MetricEstimate(f, 0.0, 1, 0, exact=True, per_subspace=((0, f),)))
        else:
            out.append(MetricEstimate(f, 0.0, 0, 0, exact=True, per_subspace=()))
    return out


def _check_operands(a: VPolytope | None, b: VPolytope | None, j: int) -> None:
    if a is None and b is None:
        return
    d = a.ambient_dim if a is not None else b.ambient_dim
    if a is not None and b is not None and a.ambient_dim != b.ambient_dim:
        raise ValueError("operands live in different dimensions")
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got (j={j}, d={d})")


def _sampled_pair(a: VPolytope | None, b: VPolytope | None, j: int, plan: SamplingPlan,
                  workers: int) -> MetricEstimate:
    """delta_j of a pair with no exact in-flat value, one operand maybe None."""
    d = a.ambient_dim if a is not None else b.ambient_dim
    va = a.vertices if a is not None else None
    vb = b.vertices if b is not None else None
    # a single operand's projection has its chart's qhull volume at j >= 3
    exact_inner = plan.mode == "auto" and (j <= 2 or a is None or b is None)

    if j == d:  # box MC: monte_carlo mode, or a pair at j >= 3 that is not nested
        f, inner_se = _pair_value(va, vb, j, plan.n_points, False, RngStream(plan.seed, 1))
        return MetricEstimate(f, inner_se, 1, plan.n_points, exact=False,
                              per_subspace=((0, f),))

    n = plan.n_subspaces
    fvals = _collect_values(plan.seed, n, d, j, va, vb, plan.n_points, exact_inner, workers)
    flag = flag_coefficient(d, j)
    value = flag * float(np.mean(fvals))
    # one sample gives no spread to estimate an error from
    se = flag * float(np.std(fvals, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return MetricEstimate(value, se, n, 0 if exact_inner else plan.n_points, exact=False,
                          per_subspace=tuple((i, float(f)) for i, f in enumerate(fvals)))


def intrinsic_volume(body: VPolytope, j: int, plan: SamplingPlan,
                     workers: int = 1) -> MetricEstimate:
    """j-th intrinsic volume: the distance to the empty set, by construction
    the identical code path (and bits) as delta_j(body, None)."""
    return delta_j(body, None, j, plan, workers=workers)


def hausdorff(a: VPolytope, b: VPolytope) -> float:
    """max of the two directed vertex-to-hull distances; valid for convex
    bodies because the farthest point of a polytope from a convex set is
    attained at a vertex.  The one-body case of hausdorff_stack.

    Every vertex is first put to the facet certificate of the other body's
    chart (bodies._Chart.certified), in one batched call per direction
    (bodies sizes its row blocks), whose rows have the bits of one-point
    distance_to_hull calls; it builds no hull, and every thm table body
    holds its own by then (_Chart.facets).  A vertex shared by both bodies
    certifies to exactly 0.0, and a vertex list that leads the other
    body's (as each thm row's previous body does) needs none.  Only the
    vertices left uncertified get a bound, their distance to the nearest
    vertex of the other body, which bounds their distance to its hull from
    above (0 for a shared vertex).  They go to a branch-and-bound Wolfe
    scan: they are visited in descending bound order (stable), and the scan
    stops at the first bound that does not exceed the running maximum, since
    every vertex left has distance <= bound <= maximum.  So the value is the
    exhaustive scan's, bit for bit.  In floating point a solve can return a
    few ulps more than its bound (the norms are summed in another order), so
    the bound is widened by _BOUND_SLACK first; without it a vertex tied
    with the maximum could be skipped and the value come out an ulp low.
    """
    return hausdorff_stack([a], b)[0]


def hausdorff_stack(bodies, shared: VPolytope) -> list[float]:
    """hausdorff(a, shared) for each body a, in order and bit for bit.  One
    comparison finds the bodies whose vertex list agrees with the shared
    one's on their common head: the shorter list's vertices are then
    vertices of the other body, at distance 0, and need no certificate.
    The vertices of every body past that head go to the certificate of the
    shared body's chart in one call (each row's bits do not depend on the
    other rows), and the shared vertices go to each body's own certificate
    where they must.  One pass over the owner of each certified row reads
    every body's largest distance and whether its certificates settle it;
    a body so settled has that distance as its value, and only a body that
    has rows left gets the Wolfe scan of _farthest."""
    bodies = list(bodies)
    if any(a.ambient_dim != shared.ambient_dim for a in bodies):
        raise ValueError("operands live in different dimensions")
    m = shared.n_vertices
    agree = _heads_agree([(a.vertices, shared.vertices) for a in bodies])
    tails = [a.vertices[m if t else 0:] for a, t in zip(bodies, agree)]
    sizes = [len(x) for x in tails]
    owners, certs = [], []
    if sum(sizes):
        owners.append(np.repeat(np.arange(len(bodies)), sizes))
        certs.append(shared._chart.certified(np.concatenate(tails)))
    back = {k: a._chart.certified(shared.vertices)
            for k, (a, t) in enumerate(zip(bodies, agree)) if not t or a.n_vertices < m}
    owners += [np.full(m, k) for k in back]
    certs += back.values()
    best, settled = np.zeros(len(bodies)), np.ones(len(bodies), dtype=bool)
    if certs:  # the tails' rows come first
        owner = np.concatenate(owners)
        dist, ok = (np.concatenate(column) for column in zip(*certs))
        np.maximum.at(best, owner, dist)
        np.logical_and.at(settled, owner, ok)
    out = best.tolist()
    ends = np.cumsum(sizes).tolist()
    for k in np.flatnonzero(~settled).tolist():
        parts = [(tails[k], shared, ok[ends[k] - sizes[k]:ends[k]])]
        if k in back:
            parts.append((shared.vertices, bodies[k], back[k][1]))
        out[k] = _farthest(parts, out[k])
    return out


def _farthest(parts, best: float) -> float:
    """The largest distance from a row of the parts (rows, body, ok) to its
    body's hull, given best, the largest of their certified distances: only
    the rows that ok leaves get a bound, their distance to the body's
    nearest vertex, and the rows are visited in descending bound order
    (stable) until a bound no longer exceeds the running maximum."""
    points, hulls, bounds = [], [], []
    for rows, body, ok in parts:
        left = rows[~ok]
        points.append(left)
        hulls += [body] * len(left)
        bounds.append(_nearest_vertex_distances(left, body.vertices))
    points, bounds = np.concatenate(points), np.concatenate(bounds)
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] * (1.0 + _BOUND_SLACK) <= best:
            break
        best = max(best, distance_to_hull(points[i], hulls[i]))
    return best


_BOUND_SLACK = 1e-12  # relative; rounding excess seen is under 2 eps


def _nearest_vertex_distances(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each row of points to its nearest row of vertices, over
    the row blocks of bodies, n * d difference elements wide."""
    out = np.empty(len(points))
    for r in _row_blocks(len(points), vertices.size):
        diff = points[r, None, :] - vertices
        out[r] = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
    return np.sqrt(out)


# ---------------------------------------------------------------------------
# Fiber-profile diagnostic: where, transversally, does a hull extension
# actually add fiber length, and is that support confined to the needle's
# projected tube?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberProfile:
    y: np.ndarray                # (n, j-1) transverse grid points
    diff_length: np.ndarray      # (n,) fiber-length differences
    in_tube: np.ndarray          # (n,) grid points inside the tube image
    cell_measure: float
    diff_measure: float          # transverse measure where fibers lengthened
    diff_measure_outside_tube: float
    tube_measure: float


def fiber_profile(outer: VPolytope, inner: VPolytope, h: Subspace, u: np.ndarray,
                  grid_n: int, tube: VPolytope | None = None) -> FiberProfile:
    """Transverse profile of the fiber-length difference between two nested
    bodies, measured inside h along the projected axis of u.

    Each projected body's chords along the axis come from one `line_fibers`
    call over the whole transverse grid: exact facet algebra on its hull,
    with a lower-dimensional projection reduced to the frame of its affine
    hull.  `tube`, when given, is the transverse cross-section polytope (in
    ambient coordinates, at the needle base); each grid point reports
    whether it lies in the image of that cross-section inside the
    transverse coordinates, tested against the image's facet equations,
    and tube_measure is the image's exact (j-1)-volume from the same chart
    (0 when the image spans less).  The grid has round(grid_n ** (1/(j-1)))
    cells per transverse axis, and grid_n must be at least 1.  Chords and
    the containment and tube tests use the fixed DEFAULT_TOL (1e-9), and
    differences below 100 * DEFAULT_TOL read 0.  Containment needs no test
    when inner's vertex rows lead outer's; otherwise inner's farthest vertex
    from outer's hull, found as hausdorff finds it, with no hull built,
    must lie within it.  The three projected bodies get their charts in
    one pass.
    """
    if grid_n < 1:
        raise ValueError(f"fiber grid size must be >= 1, got {grid_n}")
    if outer.ambient_dim != inner.ambient_dim or outer.ambient_dim != h.ambient_dim:
        raise ValueError("bodies and subspace dimensions differ")
    if h.dim < 2:
        raise ValueError("fiber profiling needs a subspace of dimension >= 2")
    if not (inner.n_vertices <= outer.n_vertices
            and _heads_agree([(inner.vertices, outer.vertices)])[0]):
        dist, ok = outer._chart.certified(inner.vertices)
        if _farthest([(inner.vertices, outer, ok)], float(dist.max())) > DEFAULT_TOL:
            raise ValueError("inner body is not contained in the outer body")
    u_h, e_basis = axis_split(h, u)
    j = h.dim
    tdim = j - 1

    proj_outer = project_body(h, outer)
    proj_inner = project_body(h, inner)
    tube_e = None if tube is None else VPolytope((tube.vertices @ h.basis) @ e_basis)
    _fill_charts([x for x in (proj_outer, proj_inner, tube_e) if x is not None])
    ys_outer = proj_outer.vertices @ e_basis
    lo = ys_outer.min(axis=0)
    hi = ys_outer.max(axis=0)

    n_axis = int(round(grid_n ** (1.0 / tdim)))
    extent = np.maximum(hi - lo, 1e-30)
    cell = float(np.prod(extent / n_axis))
    axes = [lo[k] + (np.arange(n_axis) + 0.5) * (extent[k] / n_axis) for k in range(tdim)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)

    bases = mesh @ e_basis.T
    lo_o, hi_o, _ = line_fibers(proj_outer, bases, u_h)
    lo_i, hi_i, _ = line_fibers(proj_inner, bases, u_h)
    diff = (hi_o - lo_o) - (hi_i - lo_i)  # empty chords have lo = hi = 0
    diff[diff < 100.0 * DEFAULT_TOL] = 0.0

    in_tube = np.zeros(mesh.shape[0], dtype=bool) if tube_e is None else contains(tube_e, mesh)
    tube_measure = 0.0
    if tube_e is not None and tube_e._chart.dim == tdim:
        tube_measure = tube_e._chart.volume

    positive = diff > 0.0
    return FiberProfile(
        y=mesh,
        diff_length=diff,
        in_tube=in_tube,
        cell_measure=cell,
        diff_measure=cell * int(np.count_nonzero(positive)),
        diff_measure_outside_tube=cell * int(np.count_nonzero(positive & ~in_tube)),
        tube_measure=tube_measure,
    )
