"""Random subspaces, projections, and good-subspace certificates.

A subspace is stored as an orthonormal basis; all downstream geometry is
done in the j coordinates of that basis, never in ambient coordinates, so
j-dimensional volume is well-defined and the exact 2-D oracles apply."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import VPolytope
from .numerics import (
    RankDeficiencyError,
    RngStream,
    ball_volume,
    gaussian_rows,
    gram_jacobian,
    gram_schmidt_stack,
    singular_min,
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
    of v-perp, via the Householder reflection exchanging v and +-e1.

    Sign convention: each completion column has its first nonzero coordinate
    positive, so results are reproducible across platforms."""
    v = np.asarray(v, dtype=float)
    j = v.shape[0]
    if j == 1:
        return np.zeros((1, 0))
    alpha = -1.0 if v[0] >= 0 else 1.0
    w = v - alpha * np.eye(j)[0]
    ww = float(w @ w)  # = 2 (1 - alpha*v[0]) >= 2, never cancels
    refl = np.eye(j) - 2.0 * np.outer(w, w) / ww
    comp = refl[:, 1:].copy()
    for col in range(comp.shape[1]):
        lead = comp[:, col][np.abs(comp[:, col]) > 1e-14]
        if lead.size and lead[0] < 0:
            comp[:, col] = -comp[:, col]
    return comp


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


@dataclass(frozen=True)
class GoodnessCertificate:
    """Per-subspace quantities witnessing that a subspace sees the
    construction plane with full rank.

    sigma_min is the smallest singular value of the projection restricted to
    the plane; ell is the length of the projected axis; the transverse map
    acts on the axis-complement inside the plane, and its Jacobian scales
    the transverse cross-section volume.  c = 2 * ell * b by construction."""

    sigma_min: float
    ell: float
    u_h: np.ndarray
    e_h_basis: np.ndarray
    transverse_map: np.ndarray
    jacobian: float
    b: float
    c: float


def goodness(h: Subspace, plane: Subspace, u: np.ndarray) -> GoodnessCertificate:
    """Certificate for subspace h against construction plane `plane` and unit
    axis u (u must lie in the plane).

    A degenerate projected axis is reported, never resampled: the certificate
    then carries sigma_min and ell with jacobian = b = c = 0."""
    if plane.dim != h.dim:
        raise ValueError(f"plane dimension {plane.dim} != subspace dimension {h.dim}")
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise ValueError("axis u must be a unit vector")
    if float(np.linalg.norm(plane.basis @ (plane.basis.T @ u) - u)) > 1e-10:
        raise ValueError("axis u must lie in the construction plane")
    j = h.dim

    proj_matrix = h.basis.T @ plane.basis  # map of the restricted projection, j x j
    sigma = singular_min(proj_matrix)
    pu = h.basis.T @ u
    ell = float(np.linalg.norm(pu))

    if ell <= DEGENERACY_TOL:
        return GoodnessCertificate(
            sigma_min=sigma, ell=ell,
            u_h=np.zeros(j), e_h_basis=np.zeros((j, max(j - 1, 0))),
            transverse_map=np.zeros((max(j - 1, 0), max(j - 1, 0))),
            jacobian=0.0, b=0.0, c=0.0,
        )

    u_h = pu / ell
    e_h_basis = complete_to_basis(u_h)
    # orthonormal frame of the axis complement inside the plane, in ambient coords
    u_plane = plane.basis.T @ u
    plane_comp = plane.basis @ complete_to_basis(u_plane / np.linalg.norm(u_plane))
    transverse = e_h_basis.T @ (h.basis.T @ plane_comp)  # (j-1) x (j-1)
    jac = gram_jacobian(transverse)
    b = jac * ball_volume(j - 1)
    return GoodnessCertificate(
        sigma_min=sigma, ell=ell, u_h=u_h, e_h_basis=e_h_basis,
        transverse_map=transverse, jacobian=jac, b=b, c=2.0 * ell * b,
    )
