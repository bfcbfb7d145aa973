"""Inner oracles in a fixed dimension j: containment, volume and symmetric
difference of vertex sets given in R^j coordinates.

Exact oracles: interval arithmetic at j = 1 and hull_2d / shoelace /
polygon_clip at j = 2 for all three; at j >= 3 containment and volume read
the facets and volume of the set's chart (bodies._Chart, one qhull call;
containment through bodies._in_facets, the kernel of bodies.contains), and
the symmetric difference has no exact oracle.  At j = 2 the area of a
hull outside a centred disc is exact too (exact_outside_area_stack, one
ring-and-disc pass over many rows).  Membership at j <= 2 is tested at a
tolerance scaled by the operand's own extent, so a body keeps its samples
at every scale.  Box Monte Carlo oracles sample the bounding box of the
operands from one RngStream, so their bits depend only on the stream;
mc_volume_stack draws many rows' boxes in one call over their stream keys,
with the bits each row has alone.  A box estimate with zero
hits reports the rule of three, se = box_vol * 3/n (the 95% upper bound on
the hit rate is about 3/n), never 0 +- 0.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import (
    _Chart,
    _charts,
    _in_facets,
    hull_2d,
    polygon_area,
    polygon_clip,
    ring_contains,
)
from .numerics import _MASK64, RngStream, _uniform_rows, uniform_block

__all__ = [
    "inside",
    "exact_volume",
    "exact_symdiff",
    "exact_outside_area_stack",
    "mc_volume",
    "mc_volume_stack",
    "mc_symdiff",
]


_INSIDE_TOL = 1e-12  # membership tolerance, relative to the operand's scale


def inside(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Points of pts in the convex hull of verts (both in R^j), at 1e-12
    times the set's own scale: its length at j = 1 and the square of its
    extent (the longest side of its bounding box) at j = 2, where the test
    reads edge cross products; at j >= 3 the facet test of the chart's
    hull, at 1e-12 times the chart's scale."""
    j = verts.shape[1]
    if j == 1:
        lo, hi = float(verts.min()), float(verts.max())
        tol = _INSIDE_TOL * (hi - lo)
        return (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
    if j == 2:
        ring = hull_2d(verts)
        return ring_contains(ring, pts, _INSIDE_TOL * float(np.max(np.ptp(ring, axis=0))) ** 2)
    return _in_chart(_charts([verts])[0], pts)


def _in_chart(c: _Chart, pts: np.ndarray) -> np.ndarray:
    """The facet test of a full-rank chart's hull (whose in-flat coordinates
    are the points' own) at 1e-12 times its scale."""
    if c.dim < pts.shape[1]:  # no j-flat spanned: a hull of volume 0 holds no sample
        return np.zeros(pts.shape[0], dtype=bool)
    return _in_facets(pts, *c.hull[:2], _INSIDE_TOL * c.scale)


def exact_volume(verts: np.ndarray, j: int) -> float:
    if j == 1:
        return float(verts.max()) - float(verts.min())
    if j == 2:
        return polygon_area(hull_2d(verts))
    c = _charts([verts])[0]
    return c.volume if c.dim == j else 0.0


def _ring_key(ring: np.ndarray):
    return ring.shape[0], tuple(ring.ravel())


def exact_symdiff(va: np.ndarray, vb: np.ndarray, j: int) -> float:
    """vol_j(conv va symdiff conv vb) for j <= 2; no exact oracle covers
    j >= 3, where a ValueError names j."""
    if j == 1:
        lo_a, hi_a = float(va.min()), float(va.max())
        lo_b, hi_b = float(vb.min()), float(vb.max())
        overlap = max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
        return max(0.0, (hi_a - lo_a) + (hi_b - lo_b) - 2.0 * overlap)
    if j == 2:
        ra, rb = hull_2d(va), hull_2d(vb)
        if _ring_key(rb) < _ring_key(ra):  # canonical order: operand-symmetric bits
            ra, rb = rb, ra
        inter = polygon_area(polygon_clip(ra, rb))
        return max(0.0, polygon_area(ra) + polygon_area(rb) - 2.0 * inter)
    raise ValueError(f"no exact symmetric difference oracle at j={j}; it covers j <= 2")


def exact_outside_area_stack(vertex_sets, radii) -> list[float]:
    """For each vertex set in R^2 and radius r, the area of its convex hull
    outside the centred disc of radius r: the value that mc_volume_stack
    estimates at j = 2 with exclusion radius r.

    The hull_2d ring of a row splits into the signed triangles (0, a, b) of
    its edges, and the part of each triangle outside the disc lies over the
    pieces of its edge outside the disc (_outside_parts).  Every row's edges
    go through one numpy pass, and each row's sum has the bits the row has
    alone.  A row that spans no 2-flat (a ring of fewer than three points)
    or lies in its disc (every vertex norm <= r) gives exactly 0.0.  There
    must be one radius per set."""
    sets, radii = list(vertex_sets), list(radii)
    _one_per_set(sets, radii, "radii")
    out = [0.0] * len(sets)
    if not sets:
        return out
    pts = np.concatenate(sets)
    reach2 = np.maximum.reduceat(pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1],
                                 np.cumsum([0] + [len(v) for v in sets[:-1]]))
    rings = {k: hull_2d(sets[k]) for k in np.flatnonzero(reach2 > np.square(radii)).tolist()}
    live = [k for k, ring in rings.items() if len(ring) >= 3]
    if not live:
        return out
    sizes = [len(rings[k]) for k in live]
    starts = np.cumsum([0] + sizes[:-1])
    a = np.concatenate([rings[k] for k in live])
    succ = np.arange(1, len(a) + 1)  # each ring vertex's successor
    succ[starts + sizes - 1] = starts
    r2 = np.repeat([radii[k] * radii[k] for k in live], sizes)
    sums = np.add.reduceat(_outside_parts(a, a[succ], r2), starts)
    for k, s in zip(live, sums.tolist()):
        out[k] = max(0.0, s)
    return out


def _one_per_set(sets: list, column: list, name: str) -> None:
    """A ValueError naming both lengths unless column has one entry per set:
    a shorter column would leave rows unanswered, a longer one answer rows
    that do not exist."""
    if len(column) != len(sets):
        raise ValueError(f"{len(sets)} vertex sets but {len(column)} {name}")


def _outside_parts(a: np.ndarray, b: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The signed area of each triangle (0, a_i, b_i) outside the centred
    disc of squared radius r2_i.  The edge a -> b meets the circle where
    |a + t (b - a)|^2 = r2; its chord inside the disc runs from p to q
    (p = q = b when the edge misses the disc's interior, a tangent edge
    included), and the triangle (0, p, q) lies in the disc.  Over each of
    the pieces a -> p and q -> b, which lie outside the disc, the part
    outside is the triangle less its sector (_beyond_arc)."""
    e = b - a
    qa = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
    qb = a[:, 0] * e[:, 0] + a[:, 1] * e[:, 1]
    qc = a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] - r2
    disc = qb * qb - qa * qc
    cuts = (qa > 0.0) & (disc > 0.0)  # a zero-length edge cuts nothing
    root = np.sqrt(np.where(cuts, disc, 0.0))
    span = np.where(cuts, qa, 1.0)
    t0 = np.where(cuts, np.clip((-qb - root) / span, 0.0, 1.0), 1.0)
    t1 = np.where(cuts, np.clip((-qb + root) / span, 0.0, 1.0), 1.0)
    p = np.where((t0 < 1.0)[:, None], a + t0[:, None] * e, b)
    q = np.where((t1 > 0.0)[:, None], b - (1.0 - t1)[:, None] * e, a)
    return 0.5 * (_beyond_arc(a, p, r2) + _beyond_arc(q, b, r2))


def _beyond_arc(x: np.ndarray, y: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle (0, x_i, y_i) outside the disc,
    for a segment x -> y outside it: cross(x, y) less r2 times the signed
    angle from x to y, atan2(cross, dot), twice the sector's area."""
    cross = x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]
    dot = x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1]
    return cross - r2 * np.arctan2(cross, dot)


def _sample_box(verts: np.ndarray, u: np.ndarray):
    """The uniforms u as points of the bounding box of verts, padded by 1e-9,
    and the box's volume."""
    lo = verts.min(axis=0) - 1e-9
    hi = verts.max(axis=0) + 1e-9
    return lo + u.reshape(-1, verts.shape[1]) * (hi - lo), float(np.prod(hi - lo))


def _box_estimate(hit: np.ndarray, box_vol: float) -> tuple[float, float]:
    n = hit.shape[0]
    hits = int(np.count_nonzero(hit))
    if hits == 0:  # rule of three
        return 0.0, box_vol * 3.0 / n
    phat = float(hits) / n
    return box_vol * phat, box_vol * math.sqrt(phat * (1.0 - phat) / n)


def mc_volume(verts: np.ndarray, j: int, n: int, stream: RngStream,
              exclusion_radius: float | None = None) -> tuple[float, float]:
    """Box-MC volume of conv(verts) with its standard error; with an
    exclusion radius r, only the part outside the centered ball of radius r
    counts.  A body that spans no j-flat, or that lies in that ball (every
    vertex norm <= r), has 0.0 +- 0.0 exactly.  The one-row case of
    mc_volume_stack."""
    return mc_volume_stack([verts], j, n, [stream], [exclusion_radius])[0]


def mc_volume_stack(vertex_sets, j: int, n: int, streams,
                    exclusion_radii=None) -> list[tuple[float, float]]:
    """mc_volume of each vertex set with its own stream and exclusion radius
    (None: no exclusion), with the bits and stream advance each row has on
    its own.  The streams share one seed and counter, and the rows that
    sample draw their boxes' uniforms in one call over their stream keys;
    each set's chart gives its rank, and at j >= 3 its hull, read once.
    A row that spans no j-flat or lies in its exclusion ball draws
    nothing.  There must be one stream, and one radius when radii are
    given, per set."""
    sets, streams = list(vertex_sets), list(streams)
    radii = [None] * len(sets) if exclusion_radii is None else list(exclusion_radii)
    _one_per_set(sets, streams, "streams")
    _one_per_set(sets, radii, "exclusion radii")
    if not sets:
        return []
    seed, counter = streams[0].seed, streams[0].counter
    if any(s.seed != seed or s.counter != counter for s in streams):
        raise ValueError("the streams of a stack must share one seed and counter")
    charts = _charts(sets)
    draw = [k for k, (verts, c, r) in enumerate(zip(sets, charts, radii))
            if c.dim >= j and (r is None or np.max(np.einsum("ij,ij->i", verts, verts)) > r * r)]
    out = [(0.0, 0.0)] * len(sets)
    if not draw:
        return out
    keys = np.array([streams[k].stream & _MASK64 for k in draw], dtype=np.uint64)
    u = _uniform_rows(seed, keys, counter, n * j)
    for k, uk in zip(draw, u):
        streams[k].counter += n * j
        verts, r = sets[k], radii[k]
        pts, box_vol = _sample_box(verts, uk)
        hit = inside(verts, pts) if j <= 2 else _in_chart(charts[k], pts)
        if r is not None:
            hit &= np.einsum("ij,ij->i", pts, pts) > r * r
        out[k] = _box_estimate(hit, box_vol)
    return out


def mc_symdiff(va: np.ndarray, vb: np.ndarray, j: int, n: int,
               stream: RngStream) -> tuple[float, float]:
    """Box-MC vol_j(conv va symdiff conv vb) with its standard error."""
    pts, box_vol = _sample_box(np.vstack([va, vb]), uniform_block(stream, n * va.shape[1]))
    return _box_estimate(inside(va, pts) ^ inside(vb, pts), box_vol)
