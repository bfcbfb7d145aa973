"""Random subspaces, projections, and good-subspace certificates.

A subspace is stored as an orthonormal basis; all downstream geometry is
done in the j coordinates of that basis, never in ambient coordinates, so
j-dimensional volume is well-defined and the exact 2-D oracles apply.

Frames and good-subspace certificates are computed for a whole (n, d, j)
frame stack at once (haar_frames, goodness_stack); the one-subspace calls
haar_sample and goodness are their one-row cases, bit for bit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import VPolytope
from .numerics import (
    RankDeficiencyError,
    RngStream,
    ball_volume,
    gaussian_rows,
    gram_schmidt_stack,
)

__all__ = [
    "Subspace",
    "GoodnessCertificate",
    "DegenerateDirectionError",
    "full_space",
    "axis_subspace",
    "haar_sample",
    "haar_frames",
    "project_point",
    "project_body",
    "axis_split",
    "complete_to_basis",
    "goodness",
    "goodness_stack",
    "restricted_sigma_min",
]

DEGENERACY_TOL = 1e-12


class DegenerateDirectionError(ValueError):
    """The direction projects to (numerically) zero inside the subspace."""


@dataclass(frozen=True)
class Subspace:
    """A j-dimensional linear subspace of R^d, carried by a d x j orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError("basis must be d x j with 1 <= j <= d")
        gram = b.T @ b
        if float(np.max(np.abs(gram - np.eye(b.shape[1])))) >= 1e-10:
            raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def full_space(d: int) -> Subspace:
    return Subspace(np.eye(d))


def axis_subspace(d: int, axes) -> Subspace:
    """span{e_i : i in axes} with the canonical basis order."""
    b = np.zeros((d, len(axes)))
    for col, ax in enumerate(axes):
        b[ax, col] = 1.0
    return Subspace(b)


def haar_sample(d: int, j: int, s: RngStream) -> Subspace:
    """Rotation-invariant random subspace: orthonormalized Gaussian d x j frame.

    The measure-zero rank-deficiency event triggers a redraw from the next
    counter block; five failures raise.  The one-frame case of haar_frames,
    drawn from s and advancing its counter past the blocks used."""
    frames, used = _draw_frames(d, j, s.seed, np.array([s.stream]), s.counter)
    s.counter += int(used[0])
    return Subspace(frames[0])


def haar_frames(d: int, j: int, seed: int, indices) -> np.ndarray:
    """(n, d, j) stack of the Haar frames of samples `indices`: row k is
    haar_sample(d, j, RngStream(seed, 2 * indices[k])).basis, bit for bit."""
    streams = 2 * np.asarray(indices, dtype=np.uint64).reshape(-1)
    return _draw_frames(d, j, seed, streams, 0)[0]


def _draw_frames(d: int, j: int, seed: int, streams: np.ndarray,
                 counter0: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalized Gaussian frames, one per stream key, all starting at
    counter0; rows that come out rank deficient redraw together from the
    next counter block.  Returns the frames and the counters each used."""
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got (d={d}, j={j})")
    block = 2 * d * j
    frames = np.empty((streams.size, d, j))
    blocks = np.zeros(streams.size, dtype=np.int64)
    todo = np.arange(streams.size)
    for attempt in range(5):
        if not todo.size:
            break
        g = gaussian_rows(seed, streams[todo], counter0 + attempt * block, d * j)
        q, residual = gram_schmidt_stack(g.reshape(-1, d, j))
        blocks[todo] += 1
        ok = np.all(residual >= 1e-12, axis=1)
        frames[todo[ok]] = q[ok]
        todo = todo[~ok]
    if todo.size:
        raise RankDeficiencyError("5 consecutive rank-deficient Gaussian frames")
    gram = np.swapaxes(frames, 1, 2) @ frames
    if frames.size and float(np.max(np.abs(gram - np.eye(j)))) >= 1e-10:
        raise ValueError("basis columns are not orthonormal")
    return frames, blocks * block


def project_point(h: Subspace, x: np.ndarray) -> np.ndarray:
    """Coordinates of the orthogonal projection of x in the basis of h."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.ambient_dim,):
        raise ValueError(f"point has shape {x.shape}, ambient dimension is {h.ambient_dim}")
    return h.basis.T @ x


def project_body(h: Subspace, body: VPolytope) -> VPolytope:
    """Vertex-wise projection; the hull of the projections is the projection
    of the hull, so no vertices need pruning."""
    if body.ambient_dim != h.ambient_dim:
        raise ValueError(f"body dimension {body.ambient_dim} != ambient {h.ambient_dim}")
    return VPolytope(body.vertices @ h.basis)


def complete_to_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal completion of a unit vector v in R^j to a j x (j-1) frame
    of v-perp, via the Householder reflection exchanging v and +-e1.  A
    (..., j) stack of vectors gives a (..., j, j-1) stack of frames, each
    row with the bits of its one-vector call.

    Sign convention: each completion column has its first nonzero coordinate
    positive, so results are reproducible across platforms."""
    v = np.asarray(v, dtype=float)
    j = v.shape[-1]
    rows = v.reshape(-1, j)
    alpha = np.where(rows[:, 0] >= 0, -1.0, 1.0)
    w = rows - alpha[:, None] * np.eye(j)[0]
    ww = np.vecdot(w, w)  # = 2 (1 - alpha*v[0]) >= 2, never cancels
    refl = np.eye(j) - 2.0 * (w[:, :, None] * w[:, None, :]) / ww[:, None, None]
    comp = refl[:, :, 1:]
    nonzero = np.abs(comp) > 1e-14
    lead = np.take_along_axis(comp, np.argmax(nonzero, axis=1)[:, None, :], axis=1)[:, 0]
    flip = np.any(nonzero, axis=1) & (lead < 0)
    comp = np.where(flip[:, None, :], -comp, comp)
    return comp.reshape(v.shape[:-1] + (j, j - 1))


def axis_split(h: Subspace, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split h along the projected direction u: returns (u_h, e_basis) in
    h-coordinates, where u_h is the unit projected axis and e_basis is an
    orthonormal (j-1)-frame of its complement inside h."""
    pu = project_point(h, u)
    ell = float(np.linalg.norm(pu))
    if ell <= DEGENERACY_TOL:
        raise DegenerateDirectionError(f"direction projects to norm {ell:.3e} inside the subspace")
    u_h = pu / ell
    return u_h, complete_to_basis(u_h)


class GoodnessCertificate(NamedTuple):
    """Quantities witnessing that a subspace sees the construction plane
    with full rank: one value per field for one subspace (goodness), or
    arrays with one row per frame for an (n, d, j) stack (goodness_stack).

    sigma_min is the smallest singular value of the projection restricted to
    the plane; ell is the length of the projected axis; jacobian is the
    product of the singular values of the transverse map, which sends the
    axis-complement inside the plane to the axis-complement inside the
    subspace, so it scales the transverse cross-section volume; and
    c = 2 * ell * jacobian * ball_volume(j - 1)."""

    sigma_min: np.ndarray
    ell: np.ndarray
    jacobian: np.ndarray
    c: np.ndarray


def restricted_sigma_min(frames: np.ndarray, plane: Subspace) -> np.ndarray:
    """sigma_min of goodness_stack for every frame of an (n, d, j) stack, and
    nothing else: the smallest singular value of each frame's projection
    restricted to `plane`, its j x j map, from one batched SVD.  The caller
    checks the shapes and orthonormality of the stack."""
    return np.linalg.svd(np.swapaxes(frames, 1, 2) @ plane.basis, compute_uv=False)[:, -1]


def goodness_stack(frames: np.ndarray, plane: Subspace, u: np.ndarray) -> GoodnessCertificate:
    """Certificates of every frame of an (n, d, j) orthonormal stack against
    construction plane `plane` and unit axis u (u must lie in the plane):
    one batched SVD for sigma_min, one stacked Householder completion of the
    projected axes and one batched SVD of the transverse maps.

    The unit projected axis, the frame of its complement inside each
    subspace and the transverse maps are formed here and not returned.  A
    degenerate projected axis is reported, never resampled: its row carries
    sigma_min and ell with jacobian = c = 0."""
    f = np.asarray(frames, dtype=float)
    if f.ndim != 3 or f.shape[1] != plane.ambient_dim:
        raise ValueError(f"frames must be (n, {plane.ambient_dim}, j), got {f.shape}")
    j = f.shape[2]
    if plane.dim != j:
        raise ValueError(f"plane dimension {plane.dim} != subspace dimension {j}")
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise ValueError("axis u must be a unit vector")
    if float(np.linalg.norm(plane.basis @ (plane.basis.T @ u) - u)) > 1e-10:
        raise ValueError("axis u must lie in the construction plane")
    ft = np.swapaxes(f, 1, 2)
    if f.size and float(np.max(np.abs(ft @ f - np.eye(j)))) >= 1e-10:
        raise ValueError("basis columns are not orthonormal")

    sigma = restricted_sigma_min(f, plane)
    pu = ft @ u
    ell = np.sqrt(np.vecdot(pu, pu))
    live = ell > DEGENERACY_TOL

    u_h = np.zeros_like(pu)
    u_h[live] = pu[live] / ell[live, None]
    e_h_basis = np.zeros(f.shape[:1] + (j, j - 1))
    e_h_basis[live] = complete_to_basis(u_h[live])
    # orthonormal frame of the axis complement inside the plane, in ambient coords
    plane_comp = plane.basis @ axis_split(plane, u)[1]
    transverse = np.swapaxes(e_h_basis, 1, 2) @ (ft @ plane_comp)  # (n, j-1, j-1)
    # product of singular values; the empty product 1 is the 0-dimensional Jacobian
    jac = np.where(live, np.prod(np.linalg.svd(transverse, compute_uv=False), axis=1), 0.0)
    return GoodnessCertificate(sigma_min=sigma, ell=ell, jacobian=jac,
                               c=2.0 * ell * (jac * ball_volume(j - 1)))


def goodness(h: Subspace, plane: Subspace, u: np.ndarray) -> GoodnessCertificate:
    """Certificate for subspace h against construction plane `plane` and unit
    axis u: row 0 of goodness_stack on h's one-frame stack."""
    return GoodnessCertificate._make(f[0] for f in goodness_stack(h.basis[None], plane, u))
