"""Convex bodies as vertex lists (V-polytopes).

Each body keeps one flat chart, built on first use: the frame of its affine
hull and, only when asked for, the facet equations A y + b <= 0 (interval
ends, hull_2d edges, qhull) and volume of the body inside that flat.  A
body in a coordinate flat (as many varying coordinates as its rank, as at
full rank) is charted by those axes, as offsets from its box centre, with
no frame SVD; only a body in an oblique flat gets one.  The facets give exact
line chords, bulk membership (_in_facets, shared with box Monte Carlo)
and exact point-to-hull distances: a point's largest facet violation is
its distance whenever the foot of the perpendicular on that facet passes
the facet test.  Above dimension 2 only a hull built for a volume or a
chord certifies; the other points get Wolfe's min-norm point.  Every
tolerance is a multiple of the body's own extent, the chart's scale.  The
volumes give metrics its exact in-flat values.  Many bodies' charts can be
built in one pass (_fill_charts), with one rank SVD for all of them when
padding them to one stack at most doubles their elements, and one per body
otherwise.  Exact 2-D geometry (a monotone-chain hull whose turns are
tested at the rounding error of each turn, shoelace area, and convex
clipping at a tolerance scaled by the point set's own extent) provides the
oracle against which Monte Carlo estimators are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "VPolytope",
    "BodyParseError",
    "NonConvergenceError",
    "load_body",
    "save_body",
    "bounding_radius",
    "distance_to_hull",
    "line_fiber",
    "line_fibers",
    "contains",
    "hull_2d",
    "polygon_area",
    "polygon_clip",
    "ring_contains",
]


class BodyParseError(ValueError):
    """Malformed body file; message carries the offending line number."""


class NonConvergenceError(RuntimeError):
    """A numerical routine failed on ill-conditioned input: the min-norm-point
    iteration did not converge, or qhull could not build a hull."""


@dataclass(frozen=True)
class VPolytope:
    """conv(vertices) in R^d; vertices is an (n, d) float array, n >= 1.

    Duplicate and interior vertices are allowed; no oracle assumes a minimal
    vertex list.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("vertices must form a nonempty (n, d) array")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def translate(self, t: np.ndarray) -> "VPolytope":
        return VPolytope(self.vertices + np.asarray(t, dtype=float))

    @cached_property
    def _chart(self) -> "_Chart":
        # the vertices are read-only, so the chart never goes stale
        return _charts([self.vertices])[0]


def _fill_charts(bodies) -> None:
    """Build the charts of the bodies that have none yet in one _charts
    pass, and cache each in its body's _chart slot."""
    todo = list({id(b): b for b in bodies if "_chart" not in vars(b)}.values())
    if not todo:
        return
    for body, chart in zip(todo, _charts([b.vertices for b in todo])):
        vars(body)["_chart"] = chart  # the slot that cached_property fills


@dataclass(frozen=True)
class Interval:
    lo: float = 0.0
    hi: float = 0.0
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo > self.hi:
            raise ValueError(f"interval with lo {self.lo} > hi {self.hi}")

    @property
    def length(self) -> float:
        return 0.0 if self.empty else self.hi - self.lo


EMPTY_INTERVAL = Interval(0.0, 0.0, empty=True)


# ---------------------------------------------------------------------------
# Body file format: "d <int>", "n <int>", then n coordinate rows.
# '#' starts a comment anywhere; blank lines are ignored.
# ---------------------------------------------------------------------------


def load_body(path) -> VPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    tokens: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tokens.append((lineno, stripped.split()))
    if len(tokens) < 2:
        raise BodyParseError(f"{path}: missing 'd'/'n' header lines")
    (ln_d, head_d), (ln_n, head_n) = tokens[0], tokens[1]
    if head_d[0] != "d" or len(head_d) != 2:
        raise BodyParseError(f"{path}:{ln_d}: expected 'd <int>'")
    if head_n[0] != "n" or len(head_n) != 2:
        raise BodyParseError(f"{path}:{ln_n}: expected 'n <int>'")
    try:
        d, n = int(head_d[1]), int(head_n[1])
    except ValueError as exc:
        raise BodyParseError(f"{path}: non-integer header value") from exc
    if d < 1 or n < 1:
        raise BodyParseError(f"{path}: need d >= 1 and n >= 1, got d={d}, n={n}")
    rows = tokens[2:]
    if len(rows) != n:
        raise BodyParseError(f"{path}: expected {n} vertex rows, found {len(rows)}")
    verts = np.empty((n, d))
    for i, (lineno, fields) in enumerate(rows):
        if len(fields) != d:
            raise BodyParseError(f"{path}:{lineno}: expected {d} coordinates, found {len(fields)}")
        try:
            verts[i] = [float(f) for f in fields]
        except ValueError as exc:
            raise BodyParseError(f"{path}:{lineno}: bad coordinate") from exc
    return VPolytope(verts)


def save_body(body: VPolytope, path) -> None:
    lines = [f"d {body.ambient_dim}", f"n {body.n_vertices}"]
    for v in body.vertices:
        lines.append(" ".join(format(x, ".17g") for x in v))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Radius and distance oracles.
# ---------------------------------------------------------------------------


def bounding_radius(body: VPolytope) -> float:
    """max ||v|| over vertices; equals sup over the hull by norm convexity."""
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", body.vertices, body.vertices))))


def _min_norm_point(pts: np.ndarray, start: int, max_iter: int) -> np.ndarray | None:
    """Wolfe's min-norm-point iteration over conv(rows of pts).

    Returns the minimizer, or None when the iteration budget is exhausted.
    The corral is kept as an index list; its affine minimizer has weights
    (1 - sum beta, beta), beta the least-squares solution of
    (C[1:] - C[0])^T beta = -C[0], which tolerates duplicate points and,
    like the duality-gap stop at 1e-13 max|p|^2, scales with the points.
    """
    idx = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    eps_gap = 1e-13 * float(np.max(np.einsum("ij,ij->i", pts, pts)))
    eps_lam = 1e-14
    it = 0
    while it < max_iter:
        it += 1
        dots = pts @ x
        j = int(np.argmin(dots))
        if float(x @ x) - float(dots[j]) <= eps_gap:
            return x
        if j in idx:  # no progress possible: numerically optimal
            return x
        idx.append(j)
        lam = np.append(lam, 0.0)
        while it < max_iter:
            it += 1
            corral = pts[idx]
            beta = np.linalg.lstsq((corral[1:] - corral[0]).T, -corral[0], rcond=None)[0]
            alpha = np.concatenate(([1.0 - beta.sum()], beta))
            if np.all(alpha > eps_lam):
                lam = alpha
                x = corral.T @ lam
                break
            # move toward the affine minimizer until a weight hits zero
            neg = alpha <= eps_lam
            denom = lam[neg] - alpha[neg]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, lam[neg] / denom, np.inf)
            theta = min(1.0, float(np.min(ratios)))
            lam = theta * alpha + (1.0 - theta) * lam
            lam[lam < eps_lam] = 0.0
            keep = lam > 0.0
            if keep.all():
                keep[int(np.argmin(alpha))] = False
            if not keep.any():
                keep[int(np.argmax(lam))] = True
            idx = [i for i, kk in zip(idx, keep) if kk]
            lam = lam[keep]
            lsum = float(lam.sum())
            lam = lam / lsum if lsum > 0 else np.full(len(idx), 1.0 / len(idx))
            x = pts[idx].T @ lam
    return None


def distance_to_hull(p: np.ndarray, body: VPolytope) -> float:
    """Euclidean distance from p to conv(vertices).

    The facets of the body's chart, where it has them (_Chart.facets),
    settle it exactly for a point inside the hull (0.0) or one whose
    nearest point lies inside a facet.  Otherwise it is the min-norm point
    of the shifted vertex set, whose accuracy is limited by the duality-gap
    stop, relative to the shifted vertices (1e-16 to 1e-14 of the body's
    extent, not 0.0, inside a fresh body of dimension >= 3)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (body.ambient_dim,):
        raise ValueError(f"point has dimension {p.shape}, body has {body.ambient_dim}")
    dist, ok = body._chart.certified(p[None])
    if ok[0]:
        return float(dist[0])
    shifted = body.vertices - p
    norms2 = np.einsum("ij,ij->i", shifted, shifted)
    max_iter = 10 * body.n_vertices + 20
    x = _min_norm_point(shifted, int(np.argmin(norms2)), max_iter)
    if x is None:  # one restart from the opposite extreme before giving up
        x = _min_norm_point(shifted, int(np.argmax(norms2)), max_iter)
    if x is None:
        raise NonConvergenceError(f"min-norm point did not converge in {2 * max_iter} iterations")
    return float(np.linalg.norm(x))


def line_fiber(body: VPolytope, base: np.ndarray, direction: np.ndarray) -> Interval:
    """The set {t : base + t*direction in conv(body)} (an interval by convexity).

    The one-row case of `line_fibers`: the chord comes from the facet
    equations of the hull, so its endpoints are exact up to rounding."""
    base = np.asarray(base, dtype=float)
    lo, hi, empty = line_fibers(body, base.reshape(1, -1), direction)
    return EMPTY_INTERVAL if empty[0] else Interval(float(lo[0]), float(hi[0]))


def line_fibers(body: VPolytope, bases: np.ndarray,
                direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chords of conv(body) along the lines bases[i] + t*direction.

    Returns (lo, hi, empty) arrays over the rows of the (n, d) array
    `bases`; an empty row has lo = hi = 0.  With facets a.x + b <= 0, the
    chord is [max over a.u < 0 of -(a.x + b)/(a.u), min over a.u > 0 of the
    same] (Schneider, Convex Bodies, 2nd ed., sec. 1.1).  A facet parallel
    to the line (|a.u| at rounding scale) only asks that the base lie within
    tol of its half-space, and a line that misses the hull by at most tol
    gets a chord of length 0, where tol is the chart's (_Chart.tol).

    A full-dimensional hull, as every generic projection is, goes straight
    to that facet algebra.  A lower-dimensional hull is taken in the frame
    of its affine hull: a line leaving that flat meets it in one point at
    most (a chord of length 0), and a line inside it (to within tol) gets
    the same facet algebra in flat coordinates.  Either way the bases reach
    the facets through the chart's to_flat, a coordinate-by-coordinate sum,
    so each row's bits, signs of zero included, do not depend on the other
    rows.
    """
    d = body.ambient_dim
    x = np.asarray(bases, dtype=float)
    u = np.asarray(direction, dtype=float)
    if x.ndim != 2 or x.shape[1] != d or u.shape != (d,):
        raise ValueError(f"need (n, {d}) bases and a ({d},) direction, "
                         f"got {x.shape} and {u.shape}")
    un = float(np.linalg.norm(u))
    if un <= 0.0:
        raise ValueError("direction must be nonzero")
    c = body._chart
    a, b, _ = c.hull
    tol = c.tol
    xf, uf = c.to_flat(x), _rowdot(u[None], c.frame)[0]
    if not len(c.normal):  # a full-dimensional hull: no flat for the line to leave
        return _chords(xf, uf, a, b, tol)
    xo, uo = c.off_flat(x), _rowdot(u[None], c.normal)[0]
    if float(np.linalg.norm(uo)) > _PARALLEL * un:
        # the line crosses the flat once, at the t nearest to it
        t = -_rowdot(xo, uo[None])[:, 0] / float(uo @ uo)
        hit = _within(xo + t[:, None] * uo, tol) & _in_facets(xf + t[:, None] * uf, a, b, tol)
        t[~hit] = 0.0
        return t, t.copy(), ~hit
    lo, hi, empty = _chords(xf, uf, a, b, tol)
    off = ~_within(xo, tol)
    lo[off] = hi[off] = 0.0
    return lo, hi, empty | off


def contains(body: VPolytope, pts: np.ndarray) -> np.ndarray:
    """Membership of the rows of pts in conv(body) by its facet equations: a
    point within the chart's tol of the body's affine hull, and within tol
    of every facet's half-space, is inside.  Only the rows near that hull
    go to the facets, so no hull is built when none is."""
    p = np.asarray(pts, dtype=float)
    if p.ndim != 2 or p.shape[1] != body.ambient_dim:
        raise ValueError(f"need an (n, {body.ambient_dim}) point array, got {p.shape}")
    c = body._chart
    tol = c.tol
    inside = _within(c.off_flat(p), tol)
    if inside.any():
        inside[inside] = _in_facets(c.to_flat(p[inside]), *c.hull[:2], tol)
    return inside


# a cache-sized block of a (rows x facets) product: the hull of a thm1 row at
# d = 8 has about 1.5e5 facets, and one (256 points, all facets) block of
# _rowdot passes takes 3x as long
_FACET_BLOCK = 1 << 15

# |a.u| <= _PARALLEL * |u| counts a facet (or a flat) as parallel to the line:
# rounding in unit normals stays far below it, real crossings far above it.
_PARALLEL = 1e-12


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices of range(n) of at most _FACET_BLOCK (rows x width) elements
    each, and at least one row each: every row-independent product over
    rows and facets is taken over these blocks."""
    step = max(1, _FACET_BLOCK // max(1, width))
    return [slice(s, s + step) for s in range(0, n, step)]


def _rowdot(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.T summed coordinate by coordinate: unlike a BLAS product, each
    row's bits do not depend on how many rows are stacked."""
    out = np.zeros((x.shape[0], m.shape[0]))
    for k in range(x.shape[1]):
        out += x[:, k, None] * m[None, :, k]
    return out


def _rowsumsq(x: np.ndarray) -> np.ndarray:
    """Squared row norms of x, summed coordinate by coordinate like _rowdot."""
    out = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        out += x[:, k] * x[:, k]
    return out


def _within(offsets: np.ndarray, tol: float) -> np.ndarray:
    return np.sqrt(np.sum(offsets * offsets, axis=1)) <= tol


def _in_facets(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Rows of x within tol of every facet's half-space, one BLAS product
    per row block: the one membership kernel, booleans only."""
    ok = np.empty(x.shape[0], dtype=bool)
    for r in _row_blocks(x.shape[0], a.shape[0]):
        ok[r] = np.all(x[r] @ a.T + b <= tol, axis=1)
    return ok


def _chords(x, u, a, b, tol):
    """Facet algebra of line_fibers for a full-dimensional hull {a.x + b <= 0},
    over row blocks."""
    a = np.asfortranarray(a)  # _rowdot reads whole facet columns: make them contiguous
    au = _rowdot(u[None], a)[0]
    un = float(np.linalg.norm(u))
    cross = np.abs(au) > _PARALLEL * un
    across = au[cross]  # no zero divisor: t is formed on crossing facets only
    down, up = across < 0, across > 0
    n = x.shape[0]
    lo, hi, empty = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for r in _row_blocks(n, a.shape[0]):
        s = _rowdot(x[r], a) + b
        t = -s[:, cross] / across
        lo[r] = np.max(t[:, down], axis=1, initial=-np.inf)
        hi[r] = np.min(t[:, up], axis=1, initial=np.inf)
        empty[r] = np.any(s[:, ~cross] > tol, axis=1)
    empty |= lo > hi + tol / un
    hi = np.maximum(hi, lo)
    lo[empty] = hi[empty] = 0.0
    return lo, hi, empty


def _pad_groups(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """The indices of the vertex sets of these shapes in groups, each to be
    padded into one stack: all in one when that stack stays within twice
    the sets' own elements, as for the bodies of one thm table; otherwise
    one group per set.  Either way padding at most doubles the memory of the
    input."""
    if len(shapes) * max(n for n, _ in shapes) * max(d for _, d in shapes) \
            <= 2 * sum(n * d for n, d in shapes):
        return [list(range(len(shapes)))]
    return [[k] for k in range(len(shapes))]


def _padded_stack(vertex_sets: list[np.ndarray]) -> np.ndarray:
    """The sets as one (m, n, d) stack, each padded to the longest set with
    copies of its first row and to the widest with zero columns.  Less each
    set's first row, the padding is zero rows and columns, which add only
    zero singular values, so one SVD of the centered stack gives every
    set's rank, and its columns vary exactly where the set's do."""
    if len(vertex_sets) == 1:
        return vertex_sets[0][None]
    n = max(v.shape[0] for v in vertex_sets)
    d = max(v.shape[1] for v in vertex_sets)
    stack = np.zeros((len(vertex_sets), n, d))
    for x, v in zip(stack, vertex_sets):
        x[:, :v.shape[1]] = v[0]
        x[:len(v), :v.shape[1]] = v
    return stack


def _numerical_ranks(stack: np.ndarray, floors: np.ndarray) -> list[int]:
    """The number of singular values of each set of an (m, n, d) stack less
    its first row above 1e-12 times the largest of them and above its
    floor: neither bound has a unit, so no rank changes with scale."""
    sv = np.linalg.svd(stack - stack[:, :1], compute_uv=False)
    return (sv > np.maximum(1e-12 * sv[:, :1], floors[:, None])).sum(axis=1).tolist()


def _box_centre(v: np.ndarray) -> np.ndarray:
    """(min + max) / 2 per axis over the rows of v: the origin of every
    coordinate chart and every projection, independent of row order, and
    on an axis where every row has one value that value, exactly."""
    return 0.5 * (v.min(axis=0) + v.max(axis=0))


def _distinct_rows(v: np.ndarray) -> np.ndarray:
    """The distinct rows of v in lexicographic order, as np.unique(v, axis=0)
    gives them, at a fraction of its cost on small arrays."""
    v = v[np.lexsort(v.T[::-1])]
    keep = np.empty(len(v), dtype=bool)
    keep[0] = True
    keep[1:] = (v[1:] != v[:-1]).any(axis=1)
    return v[keep]


class _Chart:
    """The affine hull of a vertex set, and inside it, built on first use,
    the facets and volume of the set's convex hull; the facets also give
    certified point-to-hull distances (see facets).  A volume needs no
    facets at dimension 2: it comes from the hull_2d ring alone.

    x lies in the affine hull iff normal @ (x - origin) = 0, and then
    frame @ (x - origin) are its in-flat coordinates: the orthonormal rows
    of frame span the hull's directions, those of normal their complement,
    and dim is the hull's dimension.  floor, n eps max|v| for n vertices v,
    is their offsets' rounding: the flat is known to within it.  A set whose
    varying coordinates (the columns where not every vertex has the same
    value) are as many as its rank lies in a coordinate flat, and is
    charted by those columns: frame and normal are the unit rows of the
    varying and the constant axes, origin is the centre of the vertex box,
    and coords the vertices' offsets from it on the varying columns, in the
    caller's order, which qhull's bits follow.  A full-rank set is the case
    with every column varying.  Any other set lies in an oblique flat: the
    origin is its first sorted distinct row, the frame comes from an SVD of
    those rows, and coords holds them in frame coordinates, so no bit
    depends on vertex order.
    Every product of many points against the facets runs over the row
    blocks of _row_blocks, so no caller sizes a block.  Charts come from
    _charts, which builds many at once.
    """

    def __init__(self, dim: int, origin: np.ndarray, coords: np.ndarray,
                 frame: np.ndarray, normal: np.ndarray, floor: float):
        self.dim, self.origin, self.coords = dim, origin, coords
        self.frame, self.normal, self.floor = frame, normal, floor

    @cached_property
    def scale(self) -> float:
        """The largest in-flat vertex coordinate (0 for a point): the body's
        extent, the unit of every tolerance of the chart's readers."""
        return float(np.max(np.abs(self.coords), initial=0.0))

    @property
    def tol(self) -> float:
        """max(1e-12 scale, floor), the tolerance of contains and line_fibers."""
        return max(1e-12 * self.scale, self.floor)

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(a, b, volume): in-flat points y of the hull have a @ y + b <= 0
        with unit rows of a (the two ends at dim 1, the hull_2d edges at
        dim 2, one qhull call at dim >= 3), and volume is its dim-volume."""
        y, r = self.coords, self.dim
        if r == 0:  # a single point: no facets inside its flat, 0-volume 1
            return np.zeros((0, 0)), np.zeros(0), 1.0
        if r == 1:
            lo, hi = float(y.min()), float(y.max())
            return np.array([[-1.0], [1.0]]), np.array([lo, -hi]), hi - lo
        if r == 2:
            ring = self._ring
            edge = np.concatenate((ring[1:], ring[:1])) - ring
            a = edge[:, ::-1] * (1.0, -1.0)  # (e1, -e0): outward for a CCW ring
            a /= np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1])[:, None]
            return a, -np.sum(a * ring, axis=1), self.volume
        # the coordinates span the chart: no rank check needed
        return _qhull(y)

    @cached_property
    def volume(self) -> float:
        """The hull's dim-volume.  At dim 2 it is the shoelace area of the
        ring, and no facet normal is built: only the facet readers
        (contains, line_fibers, certified) need them."""
        return polygon_area(self._ring) if self.dim == 2 else self.hull[2]

    @cached_property
    def _ring(self) -> np.ndarray:
        """The CCW hull_2d ring of a dimension-2 chart's coordinates."""
        ring = hull_2d(self.coords)
        if ring.shape[0] < 3:
            raise NonConvergenceError("the hull of a rank-2 vertex set is flat in its own frame")
        return ring

    @property
    def facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(a @ frame, b, a) of the hull, for certified distances: its facets
        acting on offsets from the origin, and their in-flat unit normals, of
        whose Gram matrix certified forms only the rows it reads.  None when
        the hull cannot be built, and above dimension 2, where the hull is a
        qhull call, until it is built for a volume or a chord: a distance
        never pays for one, and that None is never cached."""
        if self.dim > 2 and "hull" not in vars(self):
            return None
        return self._facets

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        try:
            a, b, _ = self.hull
        except NonConvergenceError:
            return None
        return a @ self.frame, b, a

    def certified(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dist, ok) over the rows of pts: ok marks the rows whose distance
        to the hull the facets settle (none while facets is None), and dist
        holds those distances (0.0 elsewhere), taken over row blocks.  Each
        row's bits do not depend on the other rows.

        With in-flat coordinates y and facet values s_k = a_k.y + b_k, let
        s = max_k s_k, at facet i.  Every hull point z has a_i.z + b_i <= 0,
        so |y - z| >= s; if s <= tol, y is inside and its in-flat distance
        is 0.0, and if the foot y - s a_i passes the facet test, that is
        s_k - s (a_k.a_i) <= tol for all k, the foot is a hull point at
        distance s, so the distance is s.  The part normal to the flat adds
        in quadrature, and below tol counts as 0, so the body's own vertices
        read exactly 0.0.  tol is 1e-12 times the larger of the chart's
        scale and the row's largest coordinate offset from the origin, and
        at least the chart's floor: a point chart's scale is 0."""
        n = pts.shape[0]
        dist, ok = np.zeros(n), np.zeros(n, dtype=bool)
        if self.facets is None:
            return dist, ok
        a, b, normals = self.facets
        for r in _row_blocks(n, max(pts.shape[1], len(b))):
            rel = pts[r] - self.origin
            tol = np.maximum(1e-12 * np.maximum(self.scale, np.max(np.abs(rel), axis=1)),
                             self.floor)
            off2 = np.zeros(len(rel))
            if len(self.normal):
                off2 = _rowsumsq(_rowdot(rel, self.normal))
                off2[np.sqrt(off2) <= tol] = 0.0
            if b.size == 0:  # a single point: only the normal part
                dist[r], ok[r] = np.sqrt(off2), True
                continue
            s = _rowdot(rel, a) + b
            i = np.argmax(s, axis=1)
            top = s[np.arange(len(s)), i]
            inside = top <= tol
            gram = _rowdot(normals[i], normals)  # the Gram row of each point's top facet
            good = inside | np.all(s - top[:, None] * gram <= tol[:, None], axis=1)
            top[inside] = 0.0
            ok[r] = good
            dist[r][good] = np.sqrt(top[good] * top[good] + off2[good])
        return dist, ok

    def to_flat(self, pts: np.ndarray) -> np.ndarray:
        """In-flat coordinates of the rows of pts, each row's bits on its own."""
        return _rowdot(pts - self.origin, self.frame)

    def off_flat(self, pts: np.ndarray) -> np.ndarray:
        """Components of the rows of pts normal to the flat."""
        return _rowdot(pts - self.origin, self.normal)


def _charts(vertex_sets: list[np.ndarray]) -> list[_Chart]:
    """The chart of each vertex set, in order.  One SVD of each padded stack
    of _pad_groups gives its sets' ranks, and the same stack their vertex
    boxes, so their varying columns, floors and box centres (_box_centre);
    a set with as many varying columns as its rank gets its coordinate
    chart with no more SVD.  An oblique set gets its frame from the SVD of
    its own distinct rows."""
    charts = []
    for group in _pad_groups([v.shape for v in vertex_sets]):
        stack = _padded_stack([vertex_sets[k] for k in group])
        lo, hi = stack.min(axis=1), stack.max(axis=1)  # the sets' vertex boxes
        floors = np.multiply([len(vertex_sets[k]) for k in group], np.finfo(float).eps)
        floors *= np.maximum(hi, -lo).max(axis=1)
        ranks = _numerical_ranks(stack, floors)
        for k, r, vary, origin, floor in zip(group, ranks, (lo != hi).tolist(),
                                             0.5 * (lo + hi), floors.tolist()):
            v = vertex_sets[k]
            d = v.shape[1]
            axes, frame, normal = _unit_rows(tuple(vary[:d]))
            if len(frame) == r:
                charts.append(_Chart(r, origin[:d], (v - origin[:d])[:, axes], frame, normal,
                                     floor))
                continue
            p = _distinct_rows(v)
            c = p - p[0]
            vt = _frames(c)
            charts.append(_Chart(r, p[0], c @ vt[:r].T, vt[:r], vt[r:], floor))
    return charts


@lru_cache(maxsize=256)
def _unit_rows(varying: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(axes, frame, normal) for the varying columns of a vertex set in R^d,
    d = len(varying): the boolean mask of those columns, and the unit rows
    of R^d on them and off them, the frame and normal of a coordinate
    chart.  Read-only, and shared by every chart of that flat."""
    axes = np.array(varying)
    eye = np.eye(len(varying))
    rows = axes, eye[axes], eye[~axes]
    for x in rows:
        x.setflags(write=False)
    return rows


def _frames(x: np.ndarray) -> np.ndarray:
    """The right singular vectors (d, d) of an (n, d) matrix; vt must be
    d x d to hold the complement, and with n >= d the thin SVD gives that
    without an n x n U."""
    return np.linalg.svd(x, full_matrices=x.shape[0] < x.shape[1])[2]


def _qhull(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(A, b, volume) of conv(verts) from one qhull call (Barber, Dobkin &
    Huhdanpaa, ACM TOMS 22(4), 1996), for full-rank verts in dimension
    >= 3: the facet inequalities A x + b <= 0 with unit rows of A, and the
    hull's volume.  Callers check the rank; a qhull failure raises
    NonConvergenceError."""
    from scipy.spatial import ConvexHull, QhullError  # deferred: importing bodies stays cheap

    try:
        hull = ConvexHull(verts)
    except QhullError as exc:
        reason = str(exc).strip().partition("\n")[0]
        raise NonConvergenceError(f"qhull failed on a {verts.shape[0]} x {verts.shape[1]} "
                                  f"vertex array: {reason}") from exc
    eq = hull.equations
    return eq[:, :-1], eq[:, -1], float(hull.volume)


# ---------------------------------------------------------------------------
# Exact 2-D geometry: the oracle layer for j <= 2 volumes.
# ---------------------------------------------------------------------------


def _extent(points: list[tuple[float, float]]) -> float:
    """The longest side of the bounding box of the points."""
    xs, ys = zip(*points)
    return max(max(xs) - min(xs), max(ys) - min(ys))


# Shewchuk's orient2d error bound ("Adaptive precision floating-point
# arithmetic and fast robust geometric predicates", 1997): a cross product
# lhs - rhs larger than this times |lhs| + |rhs| has the sign of the exact one.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _chain(points) -> list[tuple[float, float]]:
    """One monotone chain over the sorted points: each point is kept only
    where it makes a left turn beyond the rounding error of that turn's own
    cross product, lhs - rhs > _ORIENT_ERR (|lhs| + |rhs|).  That test reads
    lhs - rhs > _ORIENT_ERR |lhs + rhs| here, with the same outcome: the two
    bounds are equal when lhs and rhs share a sign, and otherwise
    |lhs| + |rhs| = |lhs - rhs|, so both tests hold exactly when
    lhs - rhs > 0."""
    err = _ORIENT_ERR
    chain: list[tuple[float, float]] = []
    for p in points:
        px, py = p
        while len(chain) > 1:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            lhs = (ax - ox) * (py - oy)
            rhs = (ay - oy) * (px - ox)
            if lhs - rhs > err * abs(lhs + rhs):
                break
            chain.pop()
        chain.append(p)
    return chain


def hull_2d(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull (monotone chain, _chain).  Collinear
    points are dropped, a thin sliver keeps its vertices however thin it is
    against its extent, and the turn test has no scale of its own, so a set
    keeps its hull at every scale."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) point array")
    uniq = sorted(set(zip(*pts.T.tolist())))
    if len(uniq) == 1:
        return np.array(uniq)
    # collinear points leave a ring of their two extremes
    return np.array(_chain(uniq)[:-1] + _chain(reversed(uniq))[:-1])


def polygon_area(ring: np.ndarray) -> float:
    """Shoelace area of a CCW convex ring (0 for degenerate rings)."""
    r = np.asarray(ring, dtype=float)
    if r.ndim != 2 or r.shape[0] < 3:
        return 0.0
    x, y = r[:, 0], r[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return float(abs(np.dot(x, y_next) - np.dot(y, x_next))) / 2.0


def polygon_clip(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection of two CCW convex rings by successive half-plane
    clipping, at cross-product tolerance 1e-12 times the square of the
    extent of both rings together."""
    sub = list(map(tuple, np.asarray(subject, dtype=float).tolist()))
    clp = list(map(tuple, np.asarray(clip, dtype=float).tolist()))
    if len(sub) < 3 or len(clp) < 3:
        return np.zeros((0, 2))
    eps = 1e-12 * _extent(sub + clp) ** 2
    output = sub
    a = clp[-1]
    for b in clp:
        if not output:
            break
        input_ring, output = output, []
        s = input_ring[-1]
        edge = (b[0] - a[0], b[1] - a[1])

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -eps

        for e in input_ring:
            if inside(e):
                if not inside(s):
                    output.append(_segment_line_intersection(s, e, a, b))
                output.append(e)
            elif inside(s):
                output.append(_segment_line_intersection(s, e, a, b))
            s = e
        a = b
    return np.array(output) if output else np.zeros((0, 2))


def _segment_line_intersection(s, e, a, b):
    dc = (a[0] - b[0], a[1] - b[1])
    dp = (s[0] - e[0], s[1] - e[1])
    n1 = a[0] * b[1] - a[1] * b[0]
    n2 = s[0] * e[1] - s[1] * e[0]
    denom = dc[0] * dp[1] - dc[1] * dp[0]
    if denom == 0.0:  # parallel within rounding: fall back to the endpoint
        return e
    inv = 1.0 / denom
    return ((n1 * dp[0] - n2 * dc[0]) * inv, (n1 * dp[1] - n2 * dc[1]) * inv)


def ring_contains(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership of pts in a CCW convex ring (degenerate rings
    contain nothing, matching the measure-zero volume convention): every
    edge's cross product at once, over row blocks of points, at 1e-12 times
    the square of the ring's extent (the longest side of its bounding box)."""
    r = np.asarray(ring, dtype=float)
    p = np.asarray(pts, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, -1)
    if r.shape[0] < 3:
        return np.zeros(p.shape[0], dtype=bool)
    tol = 1e-12 * float(np.max(np.ptp(r, axis=0))) ** 2
    ax, ay = r[:, :1], r[:, 1:]  # (edges, 1) columns against rows of points
    edge = np.roll(r, -1, axis=0) - r
    ex, ey = edge[:, :1], edge[:, 1:]
    inside = np.empty(p.shape[0], dtype=bool)
    for rows in _row_blocks(p.shape[0], r.shape[0]):
        px, py = p[rows, 0], p[rows, 1]
        inside[rows] = np.all(ex * (py - ay) - ey * (px - ax) >= -tol, axis=0)
    return inside
