"""Convex bodies as vertex lists (V-polytopes).

The single workhorse is the min-norm-point solver: it gives point-to-hull
distance, membership, and (through vertex scans) the Hausdorff metric.
Exact 2-D geometry (monotone-chain hull, shoelace area, convex clipping)
provides the oracle against which Monte Carlo estimators are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VPolytope",
    "Interval",
    "BodyParseError",
    "NonConvergenceError",
    "load_body",
    "save_body",
    "bounding_radius",
    "support",
    "distance_to_hull",
    "membership",
    "line_fiber",
    "hull_2d",
    "polygon_area",
    "polygon_clip",
    "ring_contains",
]

DEFAULT_TOL = 1e-9


class BodyParseError(ValueError):
    """Malformed body file; message carries the offending line number."""


class NonConvergenceError(RuntimeError):
    """Min-norm-point iteration failed to converge (ill-conditioned input)."""


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
        if not np.all(np.isfinite(v)):
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
# Support and distance oracles.
# ---------------------------------------------------------------------------


def bounding_radius(body: VPolytope) -> float:
    """max ||v|| over vertices; equals sup over the hull by norm convexity."""
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", body.vertices, body.vertices))))


def support(body: VPolytope, u: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    if u.shape != (body.ambient_dim,):
        raise ValueError(f"direction has dimension {u.shape}, body has {body.ambient_dim}")
    return float(np.max(body.vertices @ u))


def _min_norm_point(pts: np.ndarray, start: int, max_iter: int) -> np.ndarray | None:
    """Wolfe's min-norm-point iteration over conv(rows of pts).

    Returns the minimizer, or None when the iteration budget is exhausted.
    The corral is kept as an index list; the affine minimizer is obtained
    from the KKT system via least squares, which tolerates duplicate points.
    """
    n = pts.shape[0]
    idx = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    scale2 = max(1.0, float(np.max(np.einsum("ij,ij->i", pts, pts))))
    eps_gap = 1e-13 * scale2
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
            k = len(idx)
            kkt = np.zeros((k + 1, k + 1))
            kkt[0, 1:] = 1.0
            kkt[1:, 0] = 1.0
            kkt[1:, 1:] = corral @ corral.T
            rhs = np.zeros(k + 1)
            rhs[0] = 1.0
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            alpha = sol[1:]
            asum = float(alpha.sum())
            if abs(asum) > 1e-9:
                alpha = alpha / asum
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


def distance_to_hull(p: np.ndarray, body: VPolytope, tol: float = DEFAULT_TOL) -> float:
    """Euclidean distance from p to conv(vertices), via the min-norm point
    of the shifted vertex set.  Accuracy is limited by the duality-gap stop,
    well below tol for desk-scale inputs."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = np.asarray(p, dtype=float)
    if p.shape != (body.ambient_dim,):
        raise ValueError(f"point has dimension {p.shape}, body has {body.ambient_dim}")
    shifted = body.vertices - p
    norms2 = np.einsum("ij,ij->i", shifted, shifted)
    max_iter = 10 * body.n_vertices + 20
    x = _min_norm_point(shifted, int(np.argmin(norms2)), max_iter)
    if x is None:  # one restart from the opposite extreme before giving up
        x = _min_norm_point(shifted, int(np.argmax(norms2)), max_iter)
    if x is None:
        raise NonConvergenceError(f"min-norm point did not converge in {2 * max_iter} iterations")
    return float(np.linalg.norm(x))


def membership(p: np.ndarray, body: VPolytope, tol: float = DEFAULT_TOL) -> bool:
    return distance_to_hull(p, body, tol) <= tol


def line_fiber(body: VPolytope, base: np.ndarray, direction: np.ndarray,
               tol: float = DEFAULT_TOL) -> Interval:
    """The set {t : base + t*direction in conv(body)} (an interval by convexity).

    The bracketing range comes from the vertex projections onto the line
    parameter; an interior parameter is located by ternary search on the
    convex map t -> dist(base + t*direction, body), then each endpoint by
    40 bisection steps of the membership oracle.
    """
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    dn2 = float(direction @ direction)
    if dn2 <= 0.0:
        raise ValueError("direction must be nonzero")
    tau = tol * (1.0 + float(np.sqrt(dn2)))

    tproj = (body.vertices - base) @ direction / dn2
    t_lo, t_hi = float(np.min(tproj)), float(np.max(tproj))

    def dist(t: float) -> float:
        return distance_to_hull(base + t * direction, body, tol)

    # locate a member parameter
    a, b = t_lo, t_hi
    best_t, best_d = a, dist(a)
    for t, dv in ((b, dist(b)), ((a + b) / 2, dist((a + b) / 2))):
        if dv < best_d:
            best_t, best_d = t, dv
    it = 0
    while best_d > tol and (b - a) > min(tau, 1e-13 * (1 + abs(a) + abs(b))) and it < 200:
        it += 1
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        d1, d2 = dist(m1), dist(m2)
        if d1 < best_d:
            best_t, best_d = m1, d1
        if d2 < best_d:
            best_t, best_d = m2, d2
        if d1 <= d2:
            b = m2
        else:
            a = m1
    if best_d > tol:
        return EMPTY_INTERVAL

    def bisect(inside_t: float, outside_t: float) -> float:
        for _ in range(40):
            mid = 0.5 * (inside_t + outside_t)
            if dist(mid) <= tol:
                inside_t = mid
            else:
                outside_t = mid
            if abs(outside_t - inside_t) <= tau / 4:
                break
        return inside_t

    hi = t_hi if dist(t_hi) <= tol else bisect(best_t, t_hi)
    lo = t_lo if dist(t_lo) <= tol else bisect(best_t, t_lo)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Exact 2-D geometry: the oracle layer for j <= 2 volumes.
# ---------------------------------------------------------------------------


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull (monotone chain); collinear interior
    points dropped at cross-product tolerance 1e-12 on unit-scale data."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) point array")
    scale = max(1.0, float(np.max(np.abs(pts))))
    eps = 1e-12 * scale * scale
    uniq = sorted({(float(x), float(y)) for x, y in pts})
    if len(uniq) == 1:
        return np.array(uniq)
    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= eps:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= eps:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 2:  # all points collinear: keep the two extremes
        ring = [uniq[0], uniq[-1]]
    return np.array(ring)


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
    """Intersection of two CCW convex rings by successive half-plane clipping."""
    sub = [tuple(p) for p in np.asarray(subject, dtype=float)]
    clp = [tuple(p) for p in np.asarray(clip, dtype=float)]
    if len(sub) < 3 or len(clp) < 3:
        return np.zeros((0, 2))
    scale = max(1.0, max(abs(c) for p in sub + clp for c in p))
    eps = 1e-12 * scale * scale
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


def ring_contains(ring: np.ndarray, pts: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized membership of pts in a CCW convex ring (degenerate rings
    contain nothing, matching the measure-zero volume convention)."""
    r = np.asarray(ring, dtype=float)
    p = np.asarray(pts, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, -1)
    if r.shape[0] < 3:
        return np.zeros(p.shape[0], dtype=bool)
    inside = np.ones(p.shape[0], dtype=bool)
    nxt = np.roll(r, -1, axis=0)
    for (ax, ay), (bx, by) in zip(r, nxt):
        cross = (bx - ax) * (p[:, 1] - ay) - (by - ay) * (p[:, 0] - ax)
        inside &= cross >= -tol
        if not inside.any():
            break
    return inside
