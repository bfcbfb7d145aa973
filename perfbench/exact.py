"""Exact reference values for the benchmark's output rows.

Every thm body is flat: the unit j-cube and its needles lie in span{e_1..e_j}.
For a j-dimensional body K in a j-plane, V_j(K) = vol_j(K), so

    thm1 row i:  delta_j(K_i, cube)    = vol_j(K_i) - 1      (nested pair)
    thm2 row m:  delta_j(K_m, K_{m-1}) = vol_j(K_m) - vol_j(K_{m-1})
    thm3 row m:  delta_j(K_m, empty)   = vol_j(K_m),  and a0 = V_j(cube) = 1

with vol_j taken by qhull on the first j coordinates.  The bodies are rebuilt
here from the schedules' definitions, not from the library, so a change to
the library's constructions shows up as a mismatch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def flag_coefficient(d: int, j: int) -> float:
    return math.comb(d, j) * ball_volume(d) / (ball_volume(j) * ball_volume(d - j))


def cube(d: int, j: int) -> np.ndarray:
    """Vertices of the unit j-cube in span{e_1..e_j} of R^d."""
    return np.array([list(bits) + [0.0] * (d - j)
                     for bits in itertools.product((0.0, 1.0), repeat=j)])


def flat_volume(vertices: np.ndarray, j: int) -> float:
    """vol_j of the hull of vertices that lie in span{e_1..e_j}."""
    if np.any(vertices[:, j:] != 0.0):
        raise ValueError("body is not flat in span{e_1..e_j}")
    return float(ConvexHull(vertices[:, :j]).volume)


def _cross_section(d: int, j: int, eps: float) -> np.ndarray:
    """+-eps e_k for k = 2..j: the transverse cross-polytope of a needle along e_1."""
    eye = np.eye(d)[1:j]
    return np.vstack([eps * eye, -eps * eye])


def thm1_rows(d: int, j: int, l0: float, steps: int) -> list[tuple[float, float, float]]:
    """(L_i, eps_i, exact delta_j) for the doubling prism needles on the cube."""
    base = cube(d, j)
    x0 = base.mean(axis=0)
    e1 = np.eye(d)[0]
    rows = []
    for i in range(steps):
        length = l0 * 2.0**i
        eps = length**-2
        q = _cross_section(d, j, eps)
        body = np.vstack([base, x0 + q, x0 + length * e1 + q])
        rows.append((length, eps, flat_volume(body, j) - 1.0))
    return rows


def dyadic_volumes(d: int, j: int, steps: int, targets) -> list[tuple[float, float]]:
    """(eps_m, vol_j(K_m)) for the cumulative spindle sequence K_m whose step
    m has claimed discrepancy targets[m] (thm2: 2^-(m+1); thm3: a0/4 times that)."""
    base = cube(d, j)
    x0 = base.mean(axis=0)
    e1 = np.eye(d)[0]
    c2 = 2.0 * flag_coefficient(d, j) * ball_volume(j - 1)
    offset_unit = max(1.0, math.sqrt(j))  # diameter of the unit j-cube
    body = base
    out = []
    for m in range(steps):
        length = 2.0**m
        eps = (targets[m] / (c2 * length)) ** (1.0 / (j - 1))
        x_m = x0 + m * offset_unit * e1
        spindle = np.vstack([x_m - length * e1, x_m + length * e1,
                             x_m + _cross_section(d, j, eps)])
        body = np.vstack([body, spindle])
        out.append((eps, flat_volume(body, j)))
    return out


def thm2_rows(d: int, j: int, steps: int) -> list[tuple[float, float]]:
    """(eps_m, exact step delta_j) for the dyadic-Cauchy sequence."""
    vols = dyadic_volumes(d, j, steps, [2.0 ** -(m + 1) for m in range(steps)])
    prev = 1.0  # vol_j of the cube
    rows = []
    for eps, vol in vols:
        rows.append((eps, vol - prev))
        prev = vol
    return rows


def thm3_rows(d: int, j: int, steps: int, a0: float) -> list[tuple[float, float]]:
    """(eps_m, exact delta_j to the empty set) for the floor sequence built
    with the a0 the runner used."""
    return dyadic_volumes(d, j, steps, [(a0 / 4.0) * 2.0 ** -(m + 1) for m in range(steps)])


def _chord(ring: np.ndarray, y: float) -> float:
    """Length of the horizontal chord at height y through a convex polygon."""
    xs = []
    for (px, py), (qx, qy) in zip(ring, np.roll(ring, -1, axis=0)):
        if min(py, qy) <= y <= max(py, qy) and py != qy:
            xs.append(px + (y - py) * (qx - px) / (qy - py))
    return max(xs) - min(xs) if xs else 0.0


def fiber_rows(length: float, eps: float, grid: int):
    """Exact profile of the unit square plus a prism needle along e_1 from
    (0.5, 0.5), over the grid of transverse cell centres the runner uses.

    Returns (ys, diff lengths, in-tube flags, diff measure, diff measure
    outside the tube)."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    x0 = np.array([0.5, 0.5])
    tube = np.array([[0.0, eps], [0.0, -eps]])
    grown = np.vstack([square, x0 + tube, x0 + [length, 0.0] + tube])
    ring = grown[ConvexHull(grown).vertices]
    ys = (np.arange(grid) + 0.5) / grid
    diffs = np.array([_chord(ring, y) - _chord(square, y) for y in ys])
    in_tube = (ys >= 0.5 - eps) & (ys <= 0.5 + eps)
    cell = 1.0 / grid
    positive = diffs > 0.0
    return ys, diffs, in_tube, cell * positive.sum(), cell * (positive & ~in_tube).sum()
