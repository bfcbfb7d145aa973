"""Needle bodies and the parameter schedules that drive the experiments.

Two thin attached bodies are used: a prism (translated segment times a
transverse cross-section) and a spindle (hull of a centered segment and a
transverse cross-section).  Ball cross-sections are replaced by inscribed
cross-polytopes: their volume is exact in closed form, they stay inside the
ball so upper-bound constants remain valid, and lower bounds use their own
volume, keeping every verification self-consistent.

A schedule builds all of its rows at once: the needle vertices of every
row come from one broadcast array over the row parameters, the needles are
validated once per sequence, and every row's vertex list and schedule
fields have the bits of a row-by-row construction from _needle and
augment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import VPolytope
from .grassmann import GoodnessCertificate, Subspace, axis_split
from .numerics import needle_bound_constant

__all__ = [
    "NeedleSpec",
    "ScheduleRow",
    "BlockBounds",
    "cross_section",
    "prism_needle",
    "spindle_needle",
    "needle_exact_volume",
    "augment",
    "thm1_sequence",
    "thm2_sequence",
    "thm3_sequence",
    "block_bounds",
]


@dataclass(frozen=True)
class NeedleSpec:
    """Parameters of one needle: base point, unit axis inside the plane,
    the construction plane, axial extent, transverse radius, and shape kind
    (prism uses [0, L] along the axis, spindle uses [-L, L])."""

    x0: np.ndarray
    u: np.ndarray
    plane: Subspace
    length: float
    eps: float
    kind: str  # prism | spindle

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "u", u)
        if self.kind not in ("prism", "spindle"):
            raise ValueError(f"kind must be 'prism' or 'spindle', got {self.kind!r}")
        if self.length <= 0 or self.eps <= 0:
            raise ValueError("length and eps must be positive")
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
            raise ValueError("axis u must be a unit vector")
        b = self.plane.basis
        if float(np.linalg.norm(b @ (b.T @ u) - u)) > 1e-10:
            raise ValueError("axis u must lie in the construction plane")


@dataclass(frozen=True)
class ScheduleRow:
    m: int
    length: float
    eps: float
    offset: float          # base-point shift along the axis
    x_m: np.ndarray
    exclusion_radius: float
    claimed_step_bound: float


def cross_section(plane: Subspace, u: np.ndarray, eps: float) -> VPolytope:
    """The transverse cross-polytope: vertices +-eps*b_i for an orthonormal
    basis {b_i} of the axis complement inside the plane (a linear slice
    through the origin, independent of the base point).  Its (j-1)-volume is
    (2 eps)^(j-1) / (j-1)! and it is inscribed in the eps-ball."""
    frame = _transverse_frame(plane, u)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return VPolytope(_sections(frame, [eps])[0])


def _transverse_frame(plane: Subspace, u: np.ndarray) -> np.ndarray:
    """The (j-1) x d rows {b_i} of cross_section, in ambient coordinates;
    a sequence builds it once and scales it by each row's eps."""
    if plane.dim < 2:
        raise ValueError("cross-section needs a plane of dimension >= 2")
    return (plane.basis @ axis_split(plane, u)[1]).T


def _sections(frame: np.ndarray, eps) -> np.ndarray:
    """The cross-section vertices +-eps*b_i for each eps, one row of the
    (len(eps), 2(j-1), d) stack per eps."""
    scaled = np.array(eps)[:, None, None] * frame
    return np.concatenate([scaled, -scaled], axis=1)


def cross_section_volume(j: int, eps: float) -> float:
    return (2.0 * eps) ** (j - 1) / math.factorial(j - 1)


def prism_needle(spec: NeedleSpec) -> VPolytope:
    """Cross-section swept from x0 to x0 + L*u."""
    if spec.kind != "prism":
        raise ValueError("spec.kind must be 'prism'")
    return _needle(spec, _transverse_frame(spec.plane, spec.u))


def spindle_needle(spec: NeedleSpec) -> VPolytope:
    """Bipyramid over the cross-section with apexes at x0 +- L*u."""
    if spec.kind != "spindle":
        raise ValueError("spec.kind must be 'spindle'")
    return _needle(spec, _transverse_frame(spec.plane, spec.u))


def _needle(spec: NeedleSpec, frame: np.ndarray) -> VPolytope:
    """The needle of spec, its cross-section spanned by the rows of frame:
    the one-row case of _needles."""
    return VPolytope(_needles(spec.kind, spec.x0, spec.u, [spec.length], [spec.eps], frame)[0])


def _needles(kind: str, x0: np.ndarray, u: np.ndarray, lengths, eps,
             frame: np.ndarray) -> np.ndarray:
    """The vertices of one needle per row, as a (rows, k, d) stack: row i
    has base point x0[i] (or the one point x0), length lengths[i] and
    cross-section radius eps[i], and the bits of its one-row build.  A prism
    lists its base section, then its tip section x0 + L*u; a spindle its
    apexes x0 -+ L*u, then its section."""
    q = _sections(frame, eps)
    axial = np.array(lengths)[:, None] * u
    x0 = np.broadcast_to(x0, axial.shape)
    if kind == "prism":
        return np.concatenate([x0[:, None] + q, (x0 + axial)[:, None] + q], axis=1)
    return np.concatenate([(x0 - axial)[:, None], (x0 + axial)[:, None], x0[:, None] + q],
                          axis=1)


def needle_exact_volume(spec: NeedleSpec) -> float:
    """Closed-form j-volume: base (j-1)-volume times height for the prism,
    the double-cone formula (2L/j) * base for the spindle."""
    j = spec.plane.dim
    base = cross_section_volume(j, spec.eps)
    if spec.kind == "prism":
        return spec.length * base
    return (2.0 * spec.length / j) * base


def augment(body: VPolytope, needle: VPolytope) -> VPolytope:
    """conv(body U needle) as the concatenated vertex list (hulling is
    deferred to the oracles, which tolerate interior vertices)."""
    if body.ambient_dim != needle.ambient_dim:
        raise ValueError("body and needle live in different dimensions")
    return VPolytope(np.vstack([body.vertices, needle.vertices]))


def _diameter(body: VPolytope) -> float:
    v = body.vertices
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(np.max(d2)))


def thm1_sequence(body: VPolytope, plane: Subspace, x0: np.ndarray, u: np.ndarray,
                  l0: float, steps: int) -> list[tuple[ScheduleRow, VPolytope]]:
    """Doubling prism needles with eps_i = L_i^(-2): the claimed per-step
    discrepancy bound decays like L_i^(3-2j) while the needle tip drifts.
    Every row's vertices (the base's, then its needle's) come from one
    broadcast array, and the radii from one einsum over that stack."""
    d, j = plane.ambient_dim, plane.dim
    c1 = needle_bound_constant(d, j, "one_sided")
    lengths = [l0 * 2.0**i for i in range(steps)]
    eps = [length**-2 for length in lengths]
    x0, u, frame = _check_needles("prism", x0, u, plane, lengths, eps)
    needles = _needles("prism", x0, u, lengths, eps, frame)
    verts = np.concatenate(
        [np.broadcast_to(body.vertices, (steps, *body.vertices.shape)), needles], axis=1)
    radii = np.sqrt(np.max(np.einsum("sij,sij->si", verts, verts), axis=1)).tolist()
    return [(ScheduleRow(
        m=i, length=length, eps=e, offset=0.0, x_m=x0,
        exclusion_radius=rho + 1.0,
        claimed_step_bound=c1 * length * e ** (j - 1),
    ), VPolytope(v)) for i, (length, e, rho, v) in enumerate(zip(lengths, eps, radii, verts))]


def _check_needles(kind: str, x0, u, plane: Subspace, lengths, eps):
    """Validate a sequence's needles at once: they share their axis and
    plane, so one NeedleSpec with the smallest length and eps checks every
    row.  Returns x0 and u as arrays and the transverse frame."""
    frame = _transverse_frame(plane, u)
    spec = NeedleSpec(x0=x0, u=u, plane=plane, length=min(lengths, default=1.0),
                      eps=min(eps, default=1.0), kind=kind)
    return spec.x0, spec.u, frame


def _dyadic_sequence(body: VPolytope, plane: Subspace, x0: np.ndarray, u: np.ndarray,
                     steps: int, step_targets) -> list[tuple[ScheduleRow, VPolytope]]:
    """Spindle needles of length 2^m at offsets m * max(1, diameter) along
    u, each row's body the previous one's vertices followed by its needle's:
    every body is a prefix of one vertex array, built by broadcasting, and
    each row's exclusion radius is 1 more than the radius of the body before
    its needle, a running maximum over the prefix of squared vertex norms."""
    d, j = plane.ambient_dim, plane.dim
    c2 = needle_bound_constant(d, j, "two_sided")
    lengths = [2.0**m for m in range(steps)]
    targets = [step_targets(m) for m in range(steps)]
    eps = [(t / (c2 * length)) ** (1.0 / (j - 1)) for t, length in zip(targets, lengths)]
    offset_unit = max(1.0, _diameter(body))
    offsets = [m * offset_unit for m in range(steps)]
    x0, u, frame = _check_needles("spindle", x0, u, plane, lengths, eps)
    x_m = x0 + np.array(offsets)[:, None] * u
    needles = _needles("spindle", x_m, u, lengths, eps, frame)
    verts = np.concatenate([body.vertices, needles.reshape(-1, d)])
    ends = body.n_vertices + needles.shape[1] * np.arange(steps + 1)
    peak = np.maximum.accumulate(np.einsum("ij,ij->i", verts, verts))
    radii = np.sqrt(peak[ends[:-1] - 1]).tolist()
    return [(ScheduleRow(
        m=m, length=lengths[m], eps=eps[m], offset=offsets[m], x_m=x_m[m],
        exclusion_radius=radii[m] + 1.0,
        claimed_step_bound=targets[m],
    ), VPolytope(verts[:ends[m + 1]])) for m in range(steps)]


def thm2_sequence(body: VPolytope, plane: Subspace, x0: np.ndarray, u: np.ndarray,
                  steps: int) -> list[tuple[ScheduleRow, VPolytope]]:
    """Spindle needles with dyadic step targets 2^-(m+1): the claimed step
    bounds sum to 1/2, making the sequence Cauchy in the averaged metric.
    Requires j >= 2 (the transverse radius is undefined at j = 1)."""
    if plane.dim < 2:
        raise ValueError("sequence needs plane dimension >= 2")
    return _dyadic_sequence(body, plane, x0, u, steps, lambda m: 2.0 ** -(m + 1))


def thm3_sequence(body: VPolytope, plane: Subspace, x0: np.ndarray, u: np.ndarray,
                  steps: int, a0: float) -> list[tuple[ScheduleRow, VPolytope]]:
    """Like thm2_sequence but with targets scaled by a0/4, where a0 is the
    base body's distance to the empty set: the cumulative claimed drift stays
    below a0/4, leaving a claimed floor of (3/4) a0."""
    if plane.dim < 2:
        raise ValueError("sequence needs plane dimension >= 2")
    if not 0 < a0 < math.inf:
        raise ValueError(f"a0 must be positive and finite, got {a0}")
    return _dyadic_sequence(body, plane, x0, u, steps, lambda m: (a0 / 4.0) * 2.0 ** -(m + 1))


@dataclass(frozen=True)
class BlockBounds:
    """Two lower bounds for a needle's projected volume in a good subspace:
    the full rectangular-block value (segment length times transverse
    cross-section mass, using the ball cross-section), and the corrected
    value using the cross-polytope volume with, for spindles, the
    double-cone factor 1/j - which equals the exact projected volume."""

    rect_bound: float
    cone_bound: float


def block_bounds(cert: GoodnessCertificate, spec: NeedleSpec) -> BlockBounds:
    if cert.sigma_min <= 0.0 or cert.c <= 0.0:
        return BlockBounds(0.0, 0.0)
    j = spec.plane.dim
    rect = cert.c * spec.eps ** (j - 1) * spec.length
    base = cert.jacobian * cross_section_volume(j, spec.eps)
    if spec.kind == "spindle":
        cone = (2.0 * spec.length * cert.ell / j) * base
    else:
        cone = spec.length * cert.ell * base
    return BlockBounds(rect, cone)
