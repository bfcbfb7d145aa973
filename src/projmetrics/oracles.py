"""Inner oracles in a fixed dimension j: containment, volume and symmetric
difference of vertex sets given in R^j coordinates.

Exact oracles: interval arithmetic at j = 1 and hull_2d / shoelace /
polygon_clip at j = 2 for all three; at j >= 3 containment and volume read
the facets and volume of the set's chart (bodies._Chart, one qhull call),
and the symmetric difference has no exact oracle.  Box Monte Carlo oracles
sample the bounding box of the operands from one RngStream, so their bits
depend only on the stream.  A box estimate with zero hits reports the rule
of three, se = box_vol * 3/n (the 95% upper bound on the hit rate is about
3/n), never 0 +- 0.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import (
    _affine_rank,
    _charts,
    hull_2d,
    polygon_area,
    polygon_clip,
    ring_contains,
)
from .numerics import RngStream, uniform_block

__all__ = [
    "inside",
    "exact_volume",
    "exact_symdiff",
    "mc_volume",
    "mc_symdiff",
]


def inside(verts: np.ndarray, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Points of pts in the convex hull of verts (both in R^j); at j >= 3
    the facet test of the chart's hull, at tol times the chart's scale."""
    j = verts.shape[1]
    if j == 1:
        lo, hi = float(verts.min()), float(verts.max())
        return (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
    if j == 2:
        return ring_contains(hull_2d(verts), pts, tol)
    c = _charts([verts])[0]
    if c.dim < j:  # no j-flat spanned: a hull of volume 0 holds no sample
        return np.zeros(pts.shape[0], dtype=bool)
    a, b, _ = c.hull
    return np.all(pts @ a.T + b <= tol * c.scale, axis=1)


def exact_volume(verts: np.ndarray, j: int) -> float:
    if j == 1:
        return float(verts.max()) - float(verts.min())
    if j == 2:
        return polygon_area(hull_2d(verts))
    c = _charts([verts])[0]
    return c.hull[2] if c.dim == j else 0.0


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


def _sample_box(verts: np.ndarray, n: int, stream: RngStream):
    lo = verts.min(axis=0) - 1e-9
    hi = verts.max(axis=0) + 1e-9
    u = uniform_block(stream, n * verts.shape[1]).reshape(n, verts.shape[1])
    vol = float(np.prod(hi - lo))
    return lo + u * (hi - lo), vol


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
    vertex norm <= r), has 0.0 +- 0.0 exactly."""
    if _affine_rank(verts) < j:
        return 0.0, 0.0
    if exclusion_radius is not None:
        r2 = exclusion_radius * exclusion_radius
        if np.max(np.einsum("ij,ij->i", verts, verts)) <= r2:
            return 0.0, 0.0
    pts, box_vol = _sample_box(verts, n, stream)
    hit = inside(verts, pts)
    if exclusion_radius is not None:
        hit &= np.einsum("ij,ij->i", pts, pts) > r2
    return _box_estimate(hit, box_vol)


def mc_symdiff(va: np.ndarray, vb: np.ndarray, j: int, n: int,
               stream: RngStream) -> tuple[float, float]:
    """Box-MC vol_j(conv va symdiff conv vb) with its standard error."""
    pts, box_vol = _sample_box(np.vstack([va, vb]), n, stream)
    return _box_estimate(inside(va, pts) ^ inside(vb, pts), box_vol)
