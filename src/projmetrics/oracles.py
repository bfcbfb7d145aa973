"""Inner oracles in a fixed dimension j: containment, volume and symmetric
difference of vertex sets given in R^j coordinates.

Exact oracles: interval arithmetic at j = 1, hull_2d / shoelace /
polygon_clip at j = 2, and qhull at j >= 3, where the symmetric difference
is known only for a nested pair (|vol A - vol B|).  Box Monte Carlo oracles
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
    _qhull,
    hull_2d,
    polygon_area,
    polygon_clip,
    ring_contains,
)
from .numerics import RngStream, uniform_block

__all__ = [
    "UnsupportedModeError",
    "facet_inside",
    "inside",
    "exact_volume",
    "exact_symdiff",
    "mc_volume",
    "mc_symdiff",
]


class UnsupportedModeError(ValueError):
    """No exact inner-volume oracle covers the request: a symmetric
    difference at j >= 3 of a pair that is not nested."""


def _solid_hull(verts: np.ndarray):
    """_qhull(verts), or None when verts span no j-flat (a hull of volume 0)."""
    return None if _affine_rank(verts) < verts.shape[1] else _qhull(verts)


def facet_inside(hull, verts: np.ndarray, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Points of pts that pass the facet test of hull = (a, b, ...), the
    facets of conv(verts) (from _solid_hull(verts) or a body's chart)."""
    a, b, _ = hull
    scale = max(1.0, float(np.max(np.abs(verts))))
    return np.all(pts @ a.T + b <= tol * scale, axis=1)


def inside(verts: np.ndarray, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Points of pts in the convex hull of verts (both in R^j)."""
    j = verts.shape[1]
    if j == 1:
        lo, hi = float(verts.min()), float(verts.max())
        return (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
    if j == 2:
        return ring_contains(hull_2d(verts), pts, tol)
    hull = _solid_hull(verts)
    if hull is None:
        return np.zeros(pts.shape[0], dtype=bool)
    return facet_inside(hull, verts, pts, tol)


def exact_volume(verts: np.ndarray, j: int) -> float:
    if j == 1:
        return float(verts.max()) - float(verts.min())
    if j == 2:
        return polygon_area(hull_2d(verts))
    hull = _solid_hull(verts)
    return 0.0 if hull is None else hull[2]


def _ring_key(ring: np.ndarray):
    return ring.shape[0], tuple(ring.ravel())


def exact_symdiff(va: np.ndarray, vb: np.ndarray, j: int) -> float:
    """vol_j(conv va symdiff conv vb); at j >= 3 only for a nested pair, else
    UnsupportedModeError."""
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
    # j >= 3: a nested pair only, |vol A - vol B| with one qhull call per operand
    ha, hb = _solid_hull(va), _solid_hull(vb)
    vol_a, vol_b = (0.0 if h is None else h[2] for h in (ha, hb))
    for hull, outer, inner in ((ha, va, vb), (hb, vb, va)):
        if hull is not None and np.all(facet_inside(hull, outer, inner)):
            return abs(vol_a - vol_b)
    raise UnsupportedModeError(f"no exact symmetric difference oracle in dimension {j} "
                               "for a pair that is not nested")


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
