import numpy as np
import pytest

from conftest import unit_cube
from projmetrics.bodies import (
    VPolytope,
    bounding_radius,
    distance_to_hull,
    hull_2d,
    polygon_area,
)
from projmetrics.constructions import (
    NeedleSpec,
    _diameter,
    _transverse_frame,
    augment,
    block_bounds,
    cross_section,
    cross_section_volume,
    needle_exact_volume,
    prism_needle,
    spindle_needle,
    thm1_sequence,
    thm2_sequence,
    thm3_sequence,
)
from projmetrics.grassmann import axis_subspace, goodness, haar_sample, project_body
from projmetrics.metrics import SamplingPlan, hausdorff, projected_volume
from projmetrics.numerics import RngStream, needle_bound_constant

E3 = axis_subspace(3, [0, 1])
U3 = np.array([1.0, 0.0, 0.0])


def shoelace_volume(body: VPolytope, plane) -> float:
    return polygon_area(hull_2d(project_body(plane, body).vertices))


class TestCrossSection:
    def test_plane_segment(self):
        cs = cross_section(E3, U3, 0.5)
        assert cs.n_vertices == 2
        assert np.allclose(np.linalg.norm(cs.vertices, axis=1), 0.5)
        seg_len = float(np.linalg.norm(cs.vertices[0] - cs.vertices[1]))
        assert seg_len == pytest.approx(1.0, abs=1e-12)  # vol_1 = 2*eps

    def test_three_dim_square(self):
        plane = axis_subspace(4, [0, 1, 2])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        cs = cross_section(plane, u, 1.0)
        assert cs.n_vertices == 4
        assert np.allclose(np.linalg.norm(cs.vertices, axis=1), 1.0)
        # (2 eps)^2 / 2! = 2 for eps = 1
        assert cross_section_volume(3, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_low_dimension_rejected(self):
        line = axis_subspace(3, [0])
        with pytest.raises(ValueError):
            cross_section(line, U3, 0.1)


class TestNeedles:
    def test_prism_plane_case(self):
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=4.0, eps=0.1, kind="prism")
        needle = prism_needle(spec)
        assert needle.n_vertices == 4
        assert shoelace_volume(needle, E3) == pytest.approx(0.8, abs=1e-12)
        assert shoelace_volume(needle, E3) == pytest.approx(needle_exact_volume(spec), abs=1e-12)
        assert distance_to_hull(4.0 * U3, needle) <= 1e-9  # tip edge midpoint

    def test_spindle_rhombus(self):
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=3.0, eps=0.5, kind="spindle")
        needle = spindle_needle(spec)
        assert shoelace_volume(needle, E3) == pytest.approx(3.0, abs=1e-12)
        assert needle_exact_volume(spec) == pytest.approx(3.0, abs=1e-12)
        verts = {tuple(v) for v in needle.vertices}
        assert (3.0, 0.0, 0.0) in verts and (-3.0, 0.0, 0.0) in verts

    def test_spindle_inside_prism_hull(self):
        sspec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=3.0, eps=0.5, kind="spindle")
        pspec = NeedleSpec(x0=-3.0 * U3, u=U3, plane=E3, length=6.0, eps=0.5, kind="prism")
        spindle = spindle_needle(sspec)
        prism = prism_needle(pspec)
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.dirichlet(np.ones(spindle.n_vertices))
            assert distance_to_hull(w @ spindle.vertices, prism) <= 1e-9

    def test_needle_stays_in_plane(self):
        for (d, j) in [(3, 2), (4, 3), (5, 3)]:
            plane = axis_subspace(d, list(range(j)))
            u = np.zeros(d)
            u[0] = 1.0
            x0 = np.zeros(d)
            x0[0] = 0.3
            spec = NeedleSpec(x0=x0, u=u, plane=plane, length=2.0, eps=0.25, kind="spindle")
            needle = spindle_needle(spec)
            comp = needle.vertices - needle.vertices @ plane.basis @ plane.basis.T
            assert float(np.max(np.abs(comp))) < 1e-10

    def test_spindle_volume_three_dim_oracle(self):
        # Monte Carlo cross-check of the closed-form double-cone volume
        plane = axis_subspace(4, [0, 1, 2])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        spec = NeedleSpec(x0=np.zeros(4), u=u, plane=plane, length=2.0, eps=0.5, kind="spindle")
        needle = spindle_needle(spec)
        est = projected_volume(needle, plane, SamplingPlan(n_points=200_000, seed=5,
                                                           mode="monte_carlo"))
        assert abs(est.value - needle_exact_volume(spec)) <= 4.0 * est.std_error


class TestAugment:
    def test_hull_equals_for_self(self, cube3):
        grown = augment(cube3, cube3)
        assert grown.n_vertices == 2 * cube3.n_vertices
        for i in range(10):
            h = haar_sample(3, 2, RngStream(2, i))
            a = polygon_area(hull_2d(project_body(h, grown).vertices))
            b = polygon_area(hull_2d(project_body(h, cube3).vertices))
            assert a == pytest.approx(b, abs=1e-12)

    def test_contains_both_vertex_sets(self, square2):
        far = VPolytope([[10.0, 0.0], [11.0, 0.0], [10.5, 1.0]])
        grown = augment(square2, far)
        assert grown.n_vertices == square2.n_vertices + far.n_vertices
        assert bounding_radius(grown) >= bounding_radius(square2)
        assert bounding_radius(grown) >= bounding_radius(far)


class TestThm1Sequence:
    def test_claimed_bounds_frozen(self):
        base = unit_cube(3, 2)
        seq = thm1_sequence(base, E3, base.vertices.mean(axis=0), U3, 2.0, 6)
        claimed = [row.claimed_step_bound for row, _ in seq]
        assert claimed == pytest.approx([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625], abs=1e-12)
        # claimed bound = 4 / L_i at (d, j) = (3, 2)
        for row, _ in seq:
            assert row.claimed_step_bound == pytest.approx(4.0 / row.length, abs=1e-12)

    def test_tip_drives_radius(self):
        base = unit_cube(3, 2)
        x0 = base.vertices.mean(axis=0)
        for row, body in thm1_sequence(base, E3, x0, U3, 2.0, 5):
            assert bounding_radius(body) >= row.length - float(np.linalg.norm(x0))

    def test_hausdorff_drift_floor(self):
        base = unit_cube(3, 2)
        x0 = base.vertices.mean(axis=0)
        seq = thm1_sequence(base, E3, x0, U3, 2.0, 3)
        r_base = bounding_radius(base)
        for row, body in seq:
            floor = row.length - float(np.linalg.norm(x0)) - r_base
            assert hausdorff(body, base) >= floor - 1e-9


class TestDyadicSchedules:
    GRID = [(3, 2), (4, 2), (4, 3), (5, 3)]

    @pytest.mark.parametrize("d,j", GRID)
    def test_needles_match_one_needle_builders_bitwise(self, d, j):
        # the sequences build every row's needle from one transverse frame
        base = unit_cube(d, j)
        plane = axis_subspace(d, list(range(j)))
        u = np.eye(d)[0]
        x0 = base.vertices.mean(axis=0)
        prev = base
        for row, body in thm1_sequence(base, plane, x0, u, 2.0, 5):
            spec = NeedleSpec(x0=x0, u=u, plane=plane, length=row.length, eps=row.eps,
                              kind="prism")
            assert np.array_equal(body.vertices[base.n_vertices:], prism_needle(spec).vertices)
        for row, body in thm2_sequence(base, plane, x0, u, 5):
            spec = NeedleSpec(x0=row.x_m, u=u, plane=plane, length=row.length, eps=row.eps,
                              kind="spindle")
            assert np.array_equal(body.vertices[prev.n_vertices:], spindle_needle(spec).vertices)
            prev = body

    @pytest.mark.parametrize("d,j", GRID)
    def test_thm2_identity(self, d, j):
        base = unit_cube(d, j)
        plane = axis_subspace(d, list(range(j)))
        u = np.zeros(d)
        u[0] = 1.0
        c2 = needle_bound_constant(d, j, "two_sided")
        seq = thm2_sequence(base, plane, base.vertices.mean(axis=0), u, 21)
        for row, _ in seq:
            assert abs(c2 * row.eps ** (j - 1) * row.length - 2.0 ** -(row.m + 1)) < 1e-12

    @pytest.mark.parametrize("d,j", GRID)
    @pytest.mark.parametrize("a0", [1.0, 0.37])
    def test_thm3_identity(self, d, j, a0):
        base = unit_cube(d, j)
        plane = axis_subspace(d, list(range(j)))
        u = np.zeros(d)
        u[0] = 1.0
        c2 = needle_bound_constant(d, j, "two_sided")
        seq = thm3_sequence(base, plane, base.vertices.mean(axis=0), u, 21, a0)
        for row, _ in seq:
            target = (a0 / 4.0) * 2.0 ** -(row.m + 1)
            assert abs(c2 * row.eps ** (j - 1) * row.length - target) < 1e-12

    def test_partial_sums(self):
        base = unit_cube(3, 2)
        x0 = base.vertices.mean(axis=0)
        seq2 = thm2_sequence(base, E3, x0, U3, 10)
        # dyadic partial sum 1 - 2^-steps, never exceeding the full series' 1
        assert sum(r.claimed_step_bound for r, _ in seq2) \
            == pytest.approx(1.0 - 2.0**-10, abs=1e-12)
        seq3 = thm3_sequence(base, E3, x0, U3, 10, 1.0)
        assert sum(r.claimed_step_bound for r, _ in seq3) <= 0.25 + 1e-12

    def test_vertex_monotonicity(self):
        base = unit_cube(3, 2)
        seq = thm2_sequence(base, E3, base.vertices.mean(axis=0), U3, 5)
        prev = base
        for _, body in seq:
            assert body.n_vertices > prev.n_vertices
            assert np.array_equal(body.vertices[:prev.n_vertices], prev.vertices)
            prev = body

    def test_exclusion_exceeds_body_radius(self):
        # the exclusion ball reaches 1 past the body before the row's needle
        base = unit_cube(3, 2)
        prev = base
        for row, body in thm2_sequence(base, E3, base.vertices.mean(axis=0), U3, 6):
            assert row.exclusion_radius == bounding_radius(prev) + 1.0
            prev = body

    def test_thm3_requires_positive_a0(self):
        base = unit_cube(3, 2)
        with pytest.raises(ValueError):
            thm3_sequence(base, E3, base.vertices.mean(axis=0), U3, 3, 0.0)


def reference_needle(spec: NeedleSpec, frame: np.ndarray) -> VPolytope:
    """One needle's vertices, by the per-needle formulas."""
    q = np.vstack([spec.eps * frame, -spec.eps * frame])
    if spec.kind == "prism":
        tip = spec.x0 + spec.length * spec.u
        return VPolytope(np.vstack([spec.x0 + q, tip + q]))
    apexes = np.vstack([spec.x0 - spec.length * spec.u, spec.x0 + spec.length * spec.u])
    return VPolytope(np.vstack([apexes, spec.x0 + q]))


def thm1_rows(body, plane, x0, u, l0, steps):
    """thm1_sequence built row by row: one NeedleSpec, needle and augment
    per row."""
    d, j = plane.ambient_dim, plane.dim
    c1 = needle_bound_constant(d, j, "one_sided")
    frame = _transverse_frame(plane, u)
    out = []
    for i in range(steps):
        length = l0 * 2.0**i
        eps = length**-2
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=length, eps=eps, kind="prism")
        grown = augment(body, reference_needle(spec, frame))
        rho = bounding_radius(grown)
        out.append((length, eps, 0.0, np.asarray(x0, dtype=float), rho + 1.0,
                    c1 * length * eps ** (j - 1), grown))
    return out


def dyadic_rows(body, plane, x0, u, steps, target):
    """thm2/thm3_sequence built row by row, each body augmenting the last."""
    d, j = plane.ambient_dim, plane.dim
    c2 = needle_bound_constant(d, j, "two_sided")
    x0, u = np.asarray(x0, dtype=float), np.asarray(u, dtype=float)
    offset_unit = max(1.0, _diameter(body))
    frame = _transverse_frame(plane, u)
    out, current = [], body
    for m in range(steps):
        length = 2.0**m
        eps = (target(m) / (c2 * length)) ** (1.0 / (j - 1))
        offset = m * offset_unit
        x_m = x0 + offset * u
        spec = NeedleSpec(x0=x_m, u=u, plane=plane, length=length, eps=eps, kind="spindle")
        rho = bounding_radius(current)
        current = augment(current, reference_needle(spec, frame))
        out.append((length, eps, offset, x_m, rho + 1.0, target(m), current))
    return out


class TestStackedSequences:
    """Each sequence builds all of its needle vertices as one broadcast
    array; every byte equals the row-by-row construction."""

    FIELDS = ("length", "eps", "offset", "x_m", "exclusion_radius", "claimed_step_bound")

    def assert_rows_equal(self, seq, reference):
        assert len(seq) == len(reference)
        for m, ((row, body), ref) in enumerate(zip(seq, reference)):
            assert row.m == m
            for name, want in zip(self.FIELDS, ref[:-1]):
                got = getattr(row, name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                else:
                    assert type(got) is type(want) and repr(got) == repr(want), name
            want = ref[-1].vertices
            assert body.vertices.shape == want.shape
            assert body.vertices.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3), (5, 3), (8, 7)])
    @pytest.mark.parametrize("l0", [2.0, 0.37])
    def test_thm1(self, d, j, l0):
        base = unit_cube(d, j)
        plane = axis_subspace(d, list(range(j)))
        x0, u = base.vertices.mean(axis=0) + 0.1, np.eye(d)[0]
        self.assert_rows_equal(thm1_sequence(base, plane, x0, u, l0, 12),
                               thm1_rows(base, plane, x0, u, l0, 12))

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3), (5, 3), (8, 7)])
    @pytest.mark.parametrize("a0", [None, 0.37])  # None: thm2, else thm3 with this a0
    def test_dyadic(self, d, j, a0):
        base = unit_cube(d, j)
        plane = axis_subspace(d, list(range(j)))
        x0, u = base.vertices.mean(axis=0) - 0.2, np.eye(d)[0]
        if a0 is None:
            seq, scale = thm2_sequence(base, plane, x0, u, 12), 1.0
        else:
            seq, scale = thm3_sequence(base, plane, x0, u, 12, a0), a0 / 4.0
        self.assert_rows_equal(
            seq, dyadic_rows(base, plane, x0, u, 12, lambda m: scale * 2.0 ** -(m + 1)))

    def test_needles_are_validated(self):
        base = unit_cube(3, 2)
        x0 = base.vertices.mean(axis=0)
        with pytest.raises(ValueError, match="unit vector"):
            thm1_sequence(base, E3, x0, 2.0 * U3, 2.0, 3)
        with pytest.raises(ValueError, match="construction plane"):
            thm2_sequence(base, E3, x0, np.array([0.6, 0.0, 0.8]), 3)


class TestBlockBounds:
    def test_identity_subspace_spindle(self):
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=3.0, eps=0.5, kind="spindle")
        cert = goodness(E3, E3, U3)
        bounds = block_bounds(cert, spec)
        exact_area = shoelace_volume(spindle_needle(spec), E3)
        assert exact_area == pytest.approx(3.0, abs=1e-9)
        assert bounds.cone_bound == pytest.approx(exact_area, abs=1e-9)
        assert bounds.rect_bound == pytest.approx(6.0, abs=1e-12)
        assert bounds.rect_bound / bounds.cone_bound == 2.0

    def test_identity_subspace_prism(self):
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=4.0, eps=0.1, kind="prism")
        cert = goodness(E3, E3, U3)
        bounds = block_bounds(cert, spec)
        assert bounds.cone_bound == pytest.approx(shoelace_volume(prism_needle(spec), E3),
                                                  abs=1e-12)

    def test_degenerate_certificate(self):
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=3.0, eps=0.5, kind="spindle")
        cert = goodness(axis_subspace(3, [1, 2]), E3, U3)
        bounds = block_bounds(cert, spec)
        assert bounds.rect_bound == 0.0 and bounds.cone_bound == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_cone_bound_is_exact_projected_volume(self, seed):
        # independent oracle: qhull volume of the projected needle equals the
        # cone-corrected bound (a unit-determinant shear flattens the base)
        from scipy.spatial import ConvexHull

        plane = axis_subspace(4, [0, 1, 2])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        h = haar_sample(4, 3, RngStream(seed, 900))
        cert = goodness(h, plane, u)
        if cert.sigma_min <= 1e-8:
            return
        for kind, length, eps in [("spindle", 2.5, 0.2), ("prism", 1.5, 0.4)]:
            spec = NeedleSpec(x0=np.zeros(4), u=u, plane=plane, length=length,
                              eps=eps, kind=kind)
            needle = spindle_needle(spec) if kind == "spindle" else prism_needle(spec)
            exact = ConvexHull(project_body(h, needle).vertices).volume
            bounds = block_bounds(cert, spec)
            assert bounds.cone_bound == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_measured_between_cone_and_rect_prism_cap(self, seed):
        # measured projection of a spindle: at least the cone bound, at most
        # the two-sided prism value 2 L ell vol_{j-1} eps^{j-1}
        spec = NeedleSpec(x0=np.zeros(3), u=U3, plane=E3, length=2.0, eps=0.3, kind="spindle")
        needle = spindle_needle(spec)
        h = haar_sample(3, 2, RngStream(seed, 400))
        cert = goodness(h, E3, U3)
        if cert.sigma_min <= 1e-8:
            return
        bounds = block_bounds(cert, spec)
        measured = projected_volume(needle, h, SamplingPlan(seed=0)).value
        assert measured >= bounds.cone_bound - 1e-9
        assert measured <= 2.0 * spec.length * cert.ell * 2.0 * spec.eps + 1e-9
