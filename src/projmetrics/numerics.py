"""Scalar and small-matrix kernels shared by every estimator.

Ball volumes and flag coefficients come from the exact two-step recursion
vol_0 = 1, vol_1 = 2, vol_m = (2*pi/m) * vol_{m-2}, so no gamma-function
approximation enters any constant.  The random stream is counter-based:
every draw is a pure function of (seed, stream, counter), which is what
makes sampling independent of how work is split across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "ball_volume",
    "flag_coefficient",
    "needle_bound_constant",
    "gram_schmidt",
    "gram_schmidt_stack",
    "RngStream",
    "uniform_block",
    "gaussian_rows",
]

_MASK64 = (1 << 64) - 1


class RankDeficiencyError(ValueError):
    """Input matrix has numerically dependent columns."""


def ball_volume(m: int) -> float:
    """Volume of the Euclidean unit ball in R^m (vol_0 = 1 by convention)."""
    if m < 0:
        raise ValueError(f"ball dimension must be >= 0, got {m}")
    even, odd = 1.0, 2.0  # vol_0, vol_1
    if m == 0:
        return even
    if m == 1:
        return odd
    for k in range(2, m + 1):
        if k % 2 == 0:
            even *= 2.0 * math.pi / k
        else:
            odd *= 2.0 * math.pi / k
    return even if m % 2 == 0 else odd


def flag_coefficient(d: int, j: int) -> float:
    """binom(d,j) * vol_d(B_d) / (vol_j(B_j) * vol_{d-j}(B_{d-j}))."""
    if not 1 <= j <= d:
        raise ValueError(f"flag coefficient needs 1 <= j <= d, got (d={d}, j={j})")
    return math.comb(d, j) * ball_volume(d) / (ball_volume(j) * ball_volume(d - j))


def needle_bound_constant(d: int, j: int, sided: str = "one_sided") -> float:
    """Constant bounding the average projection discrepancy added by a unit
    thin needle: flag_coefficient(d,j) * vol_{j-1}(B_{j-1}), doubled for the
    two-sided (centered-segment) variant."""
    if not 2 <= j <= d:
        raise ValueError(f"needle bound constant needs 2 <= j <= d, got (d={d}, j={j})")
    c = flag_coefficient(d, j) * ball_volume(j - 1)
    if sided == "one_sided":
        return c
    if sided == "two_sided":
        return 2.0 * c
    raise ValueError(f"sided must be 'one_sided' or 'two_sided', got {sided!r}")


def gram_schmidt(mat: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a d x k matrix, preserving column span.

    Two modified-Gram-Schmidt passes per column keep ||Q^T Q - I||_max below
    1e-10 on well-conditioned input.  Raises RankDeficiencyError when a
    residual norm falls below 1e-12.
    """
    m = np.array(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    q, residual = gram_schmidt_stack(m[None])
    low = np.flatnonzero(residual[0] < 1e-12)
    if low.size:
        i = int(low[0])
        raise RankDeficiencyError(
            f"column {i} is numerically dependent (residual {residual[0, i]:.3e})")
    return q[0]


def gram_schmidt_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass modified Gram-Schmidt on the columns of each d x k matrix of
    an (n, d, k) stack, in one pass of array operations over the stack.

    Returns the orthonormalized stack and the (n, k) residual norms; a
    matrix with a residual below 1e-12 is rank deficient and its columns
    from there on are meaningless.  Each matrix gets the arithmetic of the
    one-matrix case, so its bits do not depend on the rest of the stack.
    """
    m = np.asarray(mats, dtype=float)
    if m.ndim != 3:
        raise ValueError("expected an (n, d, k) stack of matrices")
    _, d, k = m.shape
    if k > d:
        raise ValueError(f"cannot orthonormalize {k} columns in dimension {d}")
    q = np.empty_like(m)
    residual = np.empty((m.shape[0], k))
    for i in range(k):
        v = m[:, :, i].copy()
        for _ in range(2):  # re-orthogonalization pass
            for l in range(i):
                ql = q[:, :, l]
                v -= np.vecdot(ql, v)[:, None] * ql
        nrm = np.sqrt(np.vecdot(v, v))
        residual[:, i] = nrm
        q[:, :, i] = v / np.where(nrm < 1e-12, 1.0, nrm)[:, None]
    return q, residual


# ---------------------------------------------------------------------------
# Counter-based random stream.
#
# Every draw is bits(seed, stream, counter) through a chain of SplitMix-style
# 64-bit finalizers, so any cell is addressable directly: workers computing
# disjoint counter/stream ranges reproduce exactly what a serial run would.
# ---------------------------------------------------------------------------


@dataclass
class RngStream:
    """Addressable random stream: output depends only on (seed, stream, counter)."""

    seed: int
    stream: int = 0
    counter: int = 0


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer, elementwise on uint64 (wrapping arithmetic).
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _cell_bits(seed: int, streams, counter0: int, n: int) -> np.ndarray:
    # One int stream key gives an (n,) block; an array of keys, one row each.
    counters = np.arange(counter0, counter0 + n, dtype=np.uint64)
    if isinstance(streams, np.ndarray):
        keys = streams.astype(np.uint64)[:, None]  # wraps negatives, as & _MASK64
    else:
        keys = np.uint64(streams & _MASK64)
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed & _MASK64))
        key = _mix64(key ^ keys)
        return _mix64(key ^ counters)


def _uniform_rows(seed: int, streams, counter0: int, n: int) -> np.ndarray:
    """Uniforms in [0,1) from counters counter0 .. counter0 + n - 1 of each
    stream key in `streams` (an (m, n) array; (n,) for one int key).  A row
    equals uniform_block on RngStream(seed, key, counter0)."""
    bits = _cell_bits(seed, streams, counter0, n)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_block(s: RngStream, n: int) -> np.ndarray:
    """n uniforms in [0,1); advances the counter by n."""
    u = _uniform_rows(s.seed, s.stream, s.counter, n)
    s.counter += n
    return u


def _box_muller(u: np.ndarray) -> np.ndarray:
    # pairs along the last axis; log(1-u) > -inf since u < 1
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    return r * np.cos(2.0 * math.pi * u[..., 1::2])


def gaussian_rows(seed: int, streams, counter0: int, n: int) -> np.ndarray:
    """n standard normals per stream key via Box-Muller, from the 2n
    counters counter0 .. counter0 + 2n - 1 (an (m, n) array; (n,) for one
    int key)."""
    return _box_muller(_uniform_rows(seed, streams, counter0, 2 * n))
