import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_convex_polygon, unit_cube
from projmetrics import bodies
from projmetrics.bodies import (
    BodyParseError,
    NonConvergenceError,
    VPolytope,
    _FACET_BLOCK,
    _PARALLEL,
    _charts,
    _min_norm_point,
    _pad_groups,
    _row_blocks,
    bounding_radius,
    contains,
    distance_to_hull,
    hull_2d,
    line_fiber,
    line_fibers,
    load_body,
    polygon_area,
    polygon_clip,
    ring_contains,
    save_body,
)

finite_coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestFileFormat:
    def test_single_point(self, tmp_path):
        path = tmp_path / "pt.body"
        path.write_text("d 2\nn 1\n0 0\n")
        body = load_body(path)
        assert body.ambient_dim == 2 and body.n_vertices == 1
        assert np.array_equal(body.vertices, np.zeros((1, 2)))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        body = VPolytope(rng.standard_normal((5, 3)) * 1e3)
        path = tmp_path / "b.body"
        save_body(body, path)
        again = load_body(path)
        assert np.array_equal(again.vertices, body.vertices)

    def test_comments_blanks_crlf(self, tmp_path):
        path = tmp_path / "c.body"
        path.write_bytes(b"# heading\r\nd 2\r\n\r\nn 2  # two vertices\r\n0 1\r\n2.5e-1 3\r\n")
        body = load_body(path)
        assert body.n_vertices == 2
        assert body.vertices[1, 0] == 0.25

    def test_wrong_coordinate_count(self, tmp_path):
        path = tmp_path / "bad.body"
        path.write_text("d 2\nn 1\n1 2 3\n")
        with pytest.raises(BodyParseError, match=":3:"):
            load_body(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "short.body"
        path.write_text("d 2\nn 3\n0 0\n")
        with pytest.raises(BodyParseError):
            load_body(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            VPolytope([[float("nan"), 0.0]])


class TestSupportAndRadius:
    def test_square_radius(self, square2):
        assert bounding_radius(square2) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_point_radius(self):
        assert bounding_radius(VPolytope([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-12)

    @given(st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=8),
           st.tuples(finite_coord, finite_coord))
    @settings(max_examples=60, deadline=None)
    def test_translation_identities(self, verts, t):
        body = VPolytope(np.array(verts))
        t = np.array(t)
        shifted = body.translate(t)
        assert bounding_radius(shifted) <= bounding_radius(body) + float(np.linalg.norm(t)) + 1e-9


class TestDistanceAndMembership:
    def test_facet_distance(self, square2):
        assert distance_to_hull(np.array([2.0, 0.0]), square2) == pytest.approx(1.0, abs=1e-10)

    def test_corner_distance(self, square2):
        assert distance_to_hull(np.array([2.0, 2.0]), square2) \
            == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_interior_distance(self, square2):
        assert distance_to_hull(np.array([0.5, 0.5]), square2) <= 1e-9

    def test_vertices_are_members(self, square2):
        for v in square2.vertices:
            assert distance_to_hull(v, square2) <= 1e-9

    def test_centroid_is_member(self, square2):
        assert distance_to_hull(square2.vertices.mean(axis=0), square2) <= 1e-9

    def test_outside_point(self, square2):
        assert not distance_to_hull(np.array([1.5, 0.5]), square2) <= 1e-9

    def test_duplicate_and_interior_vertices(self):
        body = VPolytope([[0, 0], [0, 0], [1, 0], [1, 1], [0, 1], [0.3, 0.7]])
        assert distance_to_hull(np.array([2.0, 0.5]), body) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_distance_zero_iff_member(self, seed):
        rng = np.random.default_rng(seed)
        body = VPolytope(rng.uniform(-1, 1, size=(10, 3)))
        p = rng.uniform(-2, 2, size=3)
        dist = distance_to_hull(p, body)
        # the chart's certificate and Wolfe's min-norm point agree on it
        x = _min_norm_point(body.vertices - p, 0, 1000)
        assert (dist <= 1e-9) == (float(np.linalg.norm(x)) <= 1e-9)


class TestLineFiber:
    def test_square_center(self, square2):
        f = line_fiber(square2, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert not f.empty
        assert f.lo == pytest.approx(-0.5, abs=1e-8)
        assert f.hi == pytest.approx(0.5, abs=1e-8)

    def test_missing_line(self, square2):
        assert line_fiber(square2, np.array([5.0, 5.0]), np.array([1.0, 0.0])).empty

    def test_degenerate_segment_body(self):
        seg = VPolytope([[0.0, 0.0], [3.0, 0.0]])
        f = line_fiber(seg, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert f.length == pytest.approx(3.0, abs=2e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_under_containment(self, seed):
        rng = np.random.default_rng(seed)
        small = VPolytope(rng.uniform(-1, 1, size=(6, 2)))
        big = VPolytope(np.vstack([small.vertices, rng.uniform(-2, 2, size=(4, 2))]))
        base = small.vertices.mean(axis=0)
        direction = np.array([1.0, 0.3])
        fs = line_fiber(small, base, direction)
        fb = line_fiber(big, base, direction)
        assert fb.lo <= fs.lo + 2e-9 and fs.hi <= fb.hi + 2e-9


class TestLineFibers:
    """Exact chords from facet equations, against closed forms and Wolfe."""

    def test_rows_equal_line_fiber_bitwise(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3):
            body = VPolytope(rng.uniform(-1, 1, size=(9, dim)))
            bases = rng.uniform(-1.5, 1.5, size=(40, dim))
            direction = rng.normal(size=dim)
            lo, hi, empty = line_fibers(body, bases, direction)
            assert empty.any() and not empty.all()
            for i, base in enumerate(bases):
                f = line_fiber(body, base, direction)
                assert (f.empty, f.lo, f.hi) == (empty[i], lo[i], hi[i])

    def test_rows_over_row_blocks(self):
        # 600 points on S^3 have thousands of facets, so 256 lines take many
        # row blocks: every row keeps its one-row bits, and no (lines, facets)
        # product is built whole (unblocked, the peak is about 23 MiB)
        rng = np.random.default_rng(5)
        v = rng.normal(size=(600, 4))
        body = VPolytope(v / np.linalg.norm(v, axis=1)[:, None])
        bases = rng.uniform(-0.8, 0.8, size=(256, 4))
        direction = rng.normal(size=4)
        assert len(body._chart.hull[1]) * len(bases) > 16 * _FACET_BLOCK
        tracemalloc.start()
        try:
            lo, hi, empty = line_fibers(body, bases, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert empty.any() and not empty.all()
        for i, base in enumerate(bases):
            f = line_fiber(body, base, direction)
            assert (f.empty, f.lo, f.hi) == (empty[i], lo[i], hi[i])

    def test_line_along_edge(self, square2):
        u = np.array([1.0, 0.0])
        for base in ([0.3, 0.0], [0.3, 1.0], [2.0, 1.0]):
            assert line_fiber(square2, np.array(base), u).length == 1.0
        assert line_fiber(square2, np.array([0.3, 1.0 + 1e-6]), u).empty
        assert line_fiber(square2, np.array([0.3, -1e-6]), u).empty

    def test_transversal_segment(self):
        seg = VPolytope([[0.0, 0.0], [3.0, 0.0]])
        f = line_fiber(seg, np.array([1.0, 0.5]), np.array([0.0, 2.0]))
        assert not f.empty and f.length == 0.0
        assert f.lo == pytest.approx(-0.25, abs=1e-15)
        assert line_fiber(seg, np.array([4.0, 0.5]), np.array([0.0, 1.0])).empty

    def test_segment_along_line(self):
        seg = VPolytope([[0.0, 0.0], [3.0, 0.0]])
        f = line_fiber(seg, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert f.length == pytest.approx(3.0, rel=1e-12)
        assert f.lo == pytest.approx(-1.0, abs=1e-12)
        seg3 = VPolytope([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
        f = line_fiber(seg3, np.array([0.5, 1.0, 1.0]), np.array([2.0, 4.0, 4.0]))
        assert f.length == pytest.approx(0.5, rel=1e-12)
        assert line_fiber(seg3, np.array([0.5, 1.0, 1.1]), np.array([1.0, 2.0, 2.0])).empty

    def test_single_point_body(self):
        pt = VPolytope([[1.0, 2.0, 3.0]])
        f = line_fiber(pt, np.array([0.0, 2.0, 3.0]), np.array([2.0, 0.0, 0.0]))
        assert not f.empty and f.lo == f.hi == 0.5
        assert line_fiber(pt, np.array([0.0, 2.1, 3.0]), np.array([1.0, 0.0, 0.0])).empty

    def test_flat_polygon_in_space(self):
        # a unit square in the plane z = 1 of R^3: in-plane lines get chords
        # in frame coordinates, crossing lines a single point
        sq = VPolytope([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        f = line_fiber(sq, np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 0.0]))
        assert f.lo == pytest.approx(0.0, abs=1e-15)
        assert f.hi == pytest.approx(0.5, abs=1e-15)
        f = line_fiber(sq, np.array([0.25, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert not f.empty and f.lo == f.hi == pytest.approx(1.0, abs=1e-15)
        assert line_fiber(sq, np.array([1.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])).empty
        assert line_fiber(sq, np.array([0.0, 0.5, 1.1]), np.array([1.0, 0.0, 0.0])).empty

    @pytest.mark.parametrize("seed", range(3))
    def test_qhull_polytope_against_wolfe(self, seed):
        rng = np.random.default_rng(seed)
        body = VPolytope(rng.uniform(-1, 1, size=(12, 3)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        bases = rng.uniform(-0.6, 0.6, size=(25, 3))
        lo, hi, empty = line_fibers(body, bases, direction)
        assert (~empty).sum() >= 10
        for base, a, b, e in zip(bases, lo, hi, empty):
            if e:
                # a line that misses stays clear of the body
                ts = np.linspace(-4.0, 4.0, 81)
                assert min(distance_to_hull(base + t * direction, body) for t in ts) > 0.0
                continue
            assert distance_to_hull(base + 0.5 * (a + b) * direction, body) <= 1e-9
            assert distance_to_hull(base + (a - 1e-6) * direction, body) > 1e-9
            assert distance_to_hull(base + (b + 1e-6) * direction, body) > 1e-9

    def test_rejects_bad_input(self, square2):
        with pytest.raises(ValueError):
            line_fibers(square2, np.zeros((3, 3)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            line_fibers(square2, np.zeros((3, 2)), np.zeros(2))


def seq_dot(x: list, m_row: list) -> float:
    """x . m_row summed coordinate by coordinate from +0.0, one rounding per
    product and per sum, as the library's facet products are taken."""
    acc = 0.0
    for xk, mk in zip(x, m_row):
        acc += xk * mk
    return acc


def reference_chord(body: VPolytope, base: np.ndarray,
                    direction: np.ndarray) -> tuple[float, float, bool]:
    """One row of line_fibers in plain floats, facet by facet: the chart's
    coordinates of the line, then either its one crossing of a flat, or
    the chord [max over a.u < 0, min over a.u > 0] of t = -(a.x + b)/(a.u),
    at the tolerance 1e-12 times the chart's scale, or its floor.
    Like numpy's maximum and minimum, each max and min here keeps the later
    of two equal values, so zeros keep the library's signs."""
    c = body._chart
    tol = max(1e-12 * c.scale, c.floor)
    a, b = (x.tolist() for x in c.hull[:2])
    u = direction.tolist()
    rel = [x - o for x, o in zip(base.tolist(), c.origin.tolist())]
    xf, uf = ([seq_dot(v, f) for f in c.frame.tolist()] for v in (rel, u))
    xo, uo = ([seq_dot(v, n) for n in c.normal.tolist()] for v in (rel, u))
    un = float(np.linalg.norm(direction))

    def within(v):
        return math.sqrt(sum(x * x for x in v)) <= tol

    def facet_values(y):
        return [seq_dot(y, ak) + bk for ak, bk in zip(a, b)]

    if float(np.linalg.norm(uo)) > _PARALLEL * un:
        t = -seq_dot(xo, uo) / float(np.asarray(uo) @ np.asarray(uo))
        hit = (within([x + t * w for x, w in zip(xo, uo)])
               and all(v <= tol for v in facet_values([x + t * w for x, w in zip(xf, uf)])))
        return (t, t, False) if hit else (0.0, 0.0, True)
    unf = float(np.linalg.norm(uf))
    lo, hi, empty = -math.inf, math.inf, False
    for s, au in zip(facet_values(xf), (seq_dot(uf, ak) for ak in a)):
        if abs(au) <= _PARALLEL * unf:
            empty |= s > tol
        elif au < 0:
            t = -s / au
            lo = lo if lo > t else t
        else:
            t = -s / au
            hi = hi if hi < t else t
    empty |= lo > hi + tol / unf
    hi = hi if hi > lo else lo
    if empty or not within(xo):
        return 0.0, 0.0, True
    return lo, hi, False


def float_bits(*xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


class TestKernelBits:
    """Every line_fibers row against its per-facet reference, bit for bit,
    signs of zero included."""

    def assert_rows_match(self, body, bases, direction):
        lo, hi, empty = line_fibers(body, bases, direction)
        for i, base in enumerate(bases):
            ref_lo, ref_hi, ref_empty = reference_chord(body, base, direction)
            assert (float_bits(lo[i], hi[i]), empty[i]) == (float_bits(ref_lo, ref_hi), ref_empty)
            f = line_fiber(body, base, direction)
            assert (float_bits(f.lo, f.hi), f.empty) == (float_bits(lo[i], hi[i]), empty[i])
        return lo, hi, empty

    def special_bases(self, rng, body):
        """Random bases around the body, its vertices, points on its edges,
        far points, and signed zeros."""
        v = body.vertices
        d = body.ambient_dim
        on_edges = 0.5 * (v[1:] + v[:-1])
        far = 5.0 * rng.normal(size=(4, d))
        zeros = np.array([[-0.0] * d, [0.0] * d, [-0.0] + [0.0] * (d - 1)])
        return np.vstack([rng.uniform(-1.5, 1.5, size=(30, d)), v, on_edges, far, zeros])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_dimensional_hulls(self, seed, d):
        rng = np.random.default_rng(100 * d + seed)
        body = VPolytope(rng.uniform(-1, 1, size=(6 + 2 * d, d)))
        bases = self.special_bases(rng, body)
        a = body._chart.hull[0]
        # parallel to a facet (|a.u| at rounding scale), along an axis, and
        # through two vertices
        along = rng.normal(size=d)
        along -= (along @ a[0]) * a[0]
        for direction in (rng.normal(size=d), along, np.eye(d)[0],
                          body.vertices[1] - body.vertices[0]):
            lo, hi, empty = self.assert_rows_match(body, bases, direction)
            assert empty.any() and not empty.all()

    @pytest.mark.parametrize("r", [1, 2])
    def test_flat_bodies_in_space(self, r):
        # oblique flats in R^3: lines inside the flat get chords, lines
        # crossing it one point, and lines beside it nothing
        rng = np.random.default_rng(7 + r)
        body = flat_body(rng, 3, r)
        c = body._chart
        assert len(c.normal) == 3 - r
        inside = c.origin + rng.normal(size=(20, r)) @ c.frame
        bases = np.vstack([self.special_bases(rng, body), inside,
                           inside + 1e-3 * c.normal[0]])
        for direction in (rng.normal(size=3), c.frame[0], c.frame[0] + 1e-14 * c.normal[0]):
            self.assert_rows_match(body, bases, direction)

    def test_tangent_lines_keep_signed_zeros(self, square2):
        # through the corner (0, 0) along (1, -1) the square's chord is the
        # one point t = 0, where the facet y >= 0 gives t = -0.0; a line
        # crossing the flat of a square in R^3 at its own base has t = -0.0
        lo, hi, empty = self.assert_rows_match(
            square2, np.array([[0.0, 0.0], [-0.0, -0.0], [1.0, 1.0]]), np.array([1.0, -1.0]))
        assert not empty.any() and np.all(hi == lo)
        sq = VPolytope([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        lo, hi, empty = self.assert_rows_match(
            sq, np.array([[0.25, 0.5, 1.0], [0.25, 0.5, 0.0], [2.0, 0.5, 1.0]]),
            np.array([0.0, 0.0, 1.0]))
        assert empty.tolist() == [False, False, True]
        assert float_bits(lo[0]) == float_bits(-0.0)

    def test_rows_across_a_block_boundary(self):
        # a polygon of 300 edges takes 109 rows per block
        t = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
        body = VPolytope(np.stack([np.cos(t), np.sin(t)], axis=1))
        rng = np.random.default_rng(4)
        bases = rng.uniform(-1.2, 1.2, size=(250, 2))
        assert len(_row_blocks(len(bases), len(body._chart.hull[1]))) == 3
        self.assert_rows_match(body, bases, rng.normal(size=2))

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_edges_match_roll_and_norm(self, seed):
        rng = np.random.default_rng(seed)
        for body in (random_convex_polygon(rng, 12), flat_body(rng, 3, 2)):
            chart = body._chart
            ring = chart._ring
            edge = np.roll(ring, -1, axis=0) - ring
            a = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
            a /= np.linalg.norm(a, axis=1)[:, None]
            got_a, got_b, _ = chart.hull
            assert got_a.tobytes() == a.tobytes()
            assert got_b.tobytes() == (-np.sum(a * ring, axis=1)).tobytes()


class TestFacets:
    """The facets and volume that a body's cached chart holds."""

    def test_interval_and_square(self, square2):
        # the facets act on in-flat coordinates: offsets from the chart's
        # origin, the centre of the vertex box
        chart = VPolytope(np.array([[2.0], [-1.0], [0.5]]))._chart
        a, b, length = chart.hull
        x = chart.to_flat(np.array([[-1.5], [-1.0], [2.0], [2.5]]))
        assert np.all(x @ a.T + b <= 0, axis=1).tolist() == [False, True, True, False]
        assert length == 3.0
        chart = square2._chart
        a, b, area = chart.hull
        assert a.shape == (4, 2) and area == 1.0
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
        assert np.all(chart.to_flat(square2.vertices) @ a.T + b <= 0.0)
        assert np.all(chart.to_flat(np.array([[0.5, 0.5]])) @ a.T + b == -0.5)

    def test_qhull_facets_contain_vertices(self, cube3):
        chart = cube3._chart
        a, b, volume = chart.hull
        assert np.all(chart.to_flat(cube3.vertices) @ a.T + b <= 1e-12)
        assert np.all(chart.to_flat(np.full((1, 3), 0.5)) @ a.T + b < 0)
        assert volume == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("verts,dim,volume", [
        ([[1.0], [1.0]], 0, 1.0),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], 1, 2.0 * math.sqrt(2.0)),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 2, 0.5)],
        ids=["verts0", "verts1", "verts2"])
    def test_lower_dimensional_chart(self, verts, dim, volume):
        # the frame spans the vertices' affine hull, and facets and volume
        # are taken inside it
        v = np.array(verts)
        chart = VPolytope(v)._chart
        assert chart.dim == dim and chart.frame.shape == (dim, v.shape[1])
        basis = np.vstack([chart.frame, chart.normal])
        assert np.allclose(basis @ basis.T, np.eye(v.shape[1]), atol=1e-12)
        assert np.max(np.abs(chart.off_flat(v))) <= 1e-12
        a, b, vol = chart.hull
        assert np.all(chart.to_flat(v) @ a.T + b <= 1e-12)
        assert vol == pytest.approx(volume, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_contains_matches_membership(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        bodies = [VPolytope(rng.uniform(-1, 1, size=(8, dim))),
                  VPolytope(np.outer([0.0, 1.0], rng.normal(size=dim)))]
        pts = rng.uniform(-1.2, 1.2, size=(200, dim))
        for body in bodies:
            dist = np.array([distance_to_hull(p, body) for p in pts])
            clear = (dist == 0.0) | (dist > 1e-6)
            assert np.array_equal(contains(body, pts)[clear], (dist <= 1e-9)[clear])
        seg = bodies[1].vertices
        assert contains(bodies[1], 0.3 * seg[1:] + 0.7 * seg[:1]).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_volume_at_dim_2_builds_no_facets(self, seed):
        rng = np.random.default_rng(seed)
        for d in (2, 3, 5):
            body = flat_body(rng, d, 2)
            chart = body._chart
            volume = chart.volume
            assert "hull" not in vars(chart)
            assert volume == chart.hull[2] == polygon_area(hull_2d(chart.coords))

    def test_contains_over_facet_blocks(self):
        # 500 points against a hull of hundreds of facets take many row
        # blocks; one point at a time is a block of its own
        rng = np.random.default_rng(3)
        v = rng.normal(size=(60, 4))
        body = VPolytope(v / np.linalg.norm(v, axis=1)[:, None])
        pts = rng.uniform(-1.0, 1.0, size=(500, 4))
        assert len(body._chart.hull[1]) * len(pts) > 4 * _FACET_BLOCK
        inside = contains(body, pts)
        assert 0 < np.count_nonzero(inside) < len(pts)
        assert np.array_equal(inside, [contains(body, p[None])[0] for p in pts])

    def test_charts_of_mixed_sizes_take_one_stack_per_set(self):
        # one large set among many small ones: one stack of all, padded to
        # the large one, would take 51 copies of it; each set then gets a
        # stack of its own, which pads nothing, and the SVD works on a copy
        rng = np.random.default_rng(5)
        sets = [rng.normal(size=(20_000, 4))]
        sets += [flat_body(rng, 4, 1 + k % 4).vertices for k in range(50)]
        tracemalloc.start()
        try:
            charts = _charts(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * sum(v.nbytes for v in sets)
        assert _pad_groups([v.shape for v in sets]) == [[k] for k in range(len(sets))]
        # sets of alike size, as in a thm table, share one stack
        assert _pad_groups([(8, 3), (16, 3), (12, 2)]) == [[0, 1, 2]]
        for v, chart in zip(sets, charts):
            alone = _charts([v])[0]
            assert chart.dim == alone.dim
            assert np.array_equal(chart.coords, alone.coords)
            assert np.array_equal(chart.frame, alone.frame)


def flat_body(rng: np.random.Generator, d: int, r: int) -> VPolytope:
    """Random vertices spanning an affine r-flat of R^d (all of it at r = d)."""
    n = int(rng.integers(r + 1, r + 9))
    frame = np.linalg.qr(rng.normal(size=(d, d)))[0][:r]
    return VPolytope(rng.normal(size=(n, r)) @ frame + rng.normal(size=d))


def wolfe_distance(p: np.ndarray, body: VPolytope) -> float:
    shifted = body.vertices - p
    start = int(np.argmin(np.einsum("ij,ij->i", shifted, shifted)))
    return float(np.linalg.norm(_min_norm_point(shifted, start, 10 * len(shifted) + 20)))


class TestCertifiedDistance:
    """Up to chart dimension 2, and above it once the chart's hull is built
    (for a volume or a chord), distances come from the chart's facets when
    the largest facet violation's foot passes the facet test.  A distance
    builds no qhull hull: a fresh chart of dimension >= 3 has no facets."""

    @staticmethod
    def held(body: VPolytope) -> VPolytope:
        """The body with its chart's hull built, as a volume or a chord builds
        it: the certificate's own logic at dimension 3."""
        body._chart.hull
        return body

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_wolfe(self, seed):
        rng = np.random.default_rng(seed)
        certified = 0
        for d in range(2, 7):
            for r in range(min(d, 3) + 1):
                body = self.held(flat_body(rng, d, r))
                pts = 2.0 * rng.normal(size=(12, d))
                dist, ok = body._chart.certified(pts)
                certified += int(ok.sum())
                for p, x, good in zip(pts, dist, ok):
                    if good:
                        assert distance_to_hull(p, body) == x  # the same bits one by one
                        assert abs(x - wolfe_distance(p, body)) <= 1e-12 * max(1.0, x)
        assert certified >= 100

    @pytest.mark.parametrize("seed", range(4))
    def test_vertices_and_interior_points_read_zero(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(2, 7):
            for r in range(min(d, 3) + 1):
                body = self.held(flat_body(rng, d, r))
                weights = rng.dirichlet(np.ones(body.n_vertices), size=5)
                pts = np.vstack([body.vertices, weights @ body.vertices])
                dist, ok = body._chart.certified(pts)
                assert ok.all() and not dist.any()
                assert all(distance_to_hull(p, body) == 0.0 for p in pts)

    def test_certificate_keeps_no_gram_matrix(self):
        # a 2000-point sphere's hull has about 4000 facets, whose facets x
        # facets Gram matrix would take about 120 MiB: certified forms only
        # the Gram row of each point's top facet, block by block
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2000, 3))
        body = VPolytope(v / np.linalg.norm(v, axis=1)[:, None])
        pts = 0.5 * body.vertices + 0.3
        n_facets = len(body._chart.hull[1])
        assert 8 * n_facets**2 > 64 * 2**20
        tracemalloc.start()
        try:
            dist, ok = body._chart.certified(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert ok.sum() >= len(pts) // 2
        for p, x in zip(pts[ok][::10], dist[ok][::10]):
            assert abs(x - wolfe_distance(p, body)) <= 1e-12 * max(1.0, x)

    def test_far_points_and_a_single_point(self, cube3):
        assert distance_to_hull(np.array([0.5, 0.5, 41.0]), cube3) == 40.0
        point = VPolytope([[1.0, 2.0, 2.0]])
        assert distance_to_hull(np.zeros(3), point) == 3.0

    @pytest.mark.parametrize("d,r", [(4, 4), (5, 4), (6, 5)])
    def test_no_hull_above_dimension_three(self, monkeypatch, d, r):
        def fail(verts):
            raise AssertionError("qhull called")

        monkeypatch.setattr("projmetrics.bodies._qhull", fail)
        body = flat_body(np.random.default_rng(d), d, r)
        p = np.full(d, 5.0)
        assert distance_to_hull(p, body) == pytest.approx(wolfe_distance(p, body), abs=1e-12)
        assert body._chart.facets is None and "hull" not in vars(body._chart)

    @pytest.mark.parametrize("d,r", [(3, 3), (5, 3)])
    def test_no_hull_at_dimension_three(self, monkeypatch, d, r):
        # an interior point of a fresh 3-D body gets Wolfe's rounding-level
        # distance, not the certificate's exact 0.0
        def fail(verts):
            raise AssertionError("qhull called")

        monkeypatch.setattr("projmetrics.bodies._qhull", fail)
        body = flat_body(np.random.default_rng(d), d, r)
        assert body._chart.facets is None
        assert distance_to_hull(body.vertices.mean(axis=0), body) <= 1e-12
        p = np.full(d, 5.0)
        assert distance_to_hull(p, body) == pytest.approx(wolfe_distance(p, body), abs=1e-12)
        assert "hull" not in vars(body._chart)

    @pytest.mark.parametrize("d,r", [(4, 4), (5, 4), (6, 5)])
    def test_a_built_hull_certifies_above_dimension_three(self, monkeypatch, d, r):
        # no facets before the hull exists, and that None is not kept: once
        # the hull is built the same chart certifies, with no Wolfe solve
        body = flat_body(np.random.default_rng(d), d, r)
        weights = np.random.default_rng(r).dirichlet(np.ones(body.n_vertices), size=5)
        pts = np.vstack([body.vertices, weights @ body.vertices])
        assert body._chart.facets is None
        body._chart.hull
        monkeypatch.setattr(bodies, "_min_norm_point", None)  # a solve would raise
        dist, ok = body._chart.certified(pts)
        assert ok.all() and not dist.any()
        assert all(distance_to_hull(p, body) == 0.0 for p in pts)

    def test_hull_failure_falls_back_to_wolfe(self, monkeypatch, cube3):
        def fail(verts):
            raise NonConvergenceError("qhull failed")

        monkeypatch.setattr("projmetrics.bodies._qhull", fail)
        p = np.array([2.0, 0.5, 0.5])
        with pytest.raises(NonConvergenceError):  # a chord asks for the hull
            line_fiber(cube3, p, np.array([1.0, 0.0, 0.0]))
        assert distance_to_hull(p, cube3) == wolfe_distance(p, cube3)
        assert cube3._chart.facets is None


class TestWolfeDistance:
    """Above chart dimension 3 a point off the body gets Wolfe's min-norm
    point, with one restart from the farthest vertex before it gives up."""

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_far_points_from_a_cube(self, d):
        # the corral's affine step is solved on offsets to its first point:
        # a Gram of the points themselves, entries about |p|^2, swamped the
        # cube's extent, and at 6000 the solve no longer converged
        cube = unit_cube(d, d)
        for x in (6e3, 1e4, 1e5, 1e6):
            p = np.full(d, 0.5)
            p[0] = x
            assert distance_to_hull(p, cube) == pytest.approx(x - 1.0, rel=1e-14)

    def test_restart_from_the_farthest_vertex(self, monkeypatch):
        cube, p = unit_cube(4, 4), np.array([3.0, 0.5, 0.5, 0.5])
        starts = []

        def first_fails(pts, start, max_iter):
            starts.append(start)
            return None if len(starts) == 1 else _min_norm_point(pts, start, max_iter)

        monkeypatch.setattr(bodies, "_min_norm_point", first_fails)
        assert distance_to_hull(p, cube) == pytest.approx(2.0, rel=1e-14)
        norms2 = np.sum((cube.vertices - p) ** 2, axis=1)
        assert starts == [int(np.argmin(norms2)), int(np.argmax(norms2))]

    def test_failure_after_the_restart(self, monkeypatch):
        monkeypatch.setattr(bodies, "_min_norm_point", lambda pts, start, max_iter: None)
        with pytest.raises(NonConvergenceError, match="did not converge in 360 iterations"):
            distance_to_hull(np.array([3.0, 0.5, 0.5, 0.5]), unit_cube(4, 4))

    @pytest.mark.parametrize("k", [-60, -27, 0, 17, 60])
    def test_wolfe_brackets_the_distance_at_every_scale(self, k):
        # Wolfe's iterate x over the offsets p_i of the vertices from a point
        # brackets the point's distance: min_i <x, p_i> / |x| <= dist <= |x|.
        # The bracket is at most 1e-12 |x| wide whatever the scale 2^k (4e-16
        # seen); a step solved on a bordered Gram in length^2 left it 1.17 |x|
        # wide at 2^-60 and 2^-27, and did not converge at 2^17 and 2^60
        for d in (3, 4):
            rng = np.random.default_rng(d)
            for _ in range(5):
                verts = rng.normal(size=(4 * d, d))
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                pts = np.ldexp(verts - (float(np.max(verts @ u)) + 1.0) * u, k)  # dist >= 2^k
                start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
                x = _min_norm_point(pts, start, 10 * len(pts) + 20)
                assert x is not None
                norm = float(np.linalg.norm(x))
                assert norm - float(np.min(pts @ x)) / norm <= 1e-12 * norm


class TestHull2d:
    def test_square_with_interior_point(self):
        ring = hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float))
        assert ring.shape == (4, 2)
        assert polygon_area(ring) == pytest.approx(1.0, abs=1e-12)

    def test_all_identical(self):
        ring = hull_2d(np.array([[2.0, 3.0]] * 4))
        assert ring.shape == (1, 2)

    def test_collinear(self):
        ring = hull_2d(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert ring.shape[0] == 2
        assert polygon_area(ring) == 0.0

    @pytest.mark.parametrize("shift", [0.0, 16.0, -1e3])
    def test_thin_sliver_keeps_its_vertices(self, shift):
        # a spindle of length 4096 and half-width 2^-30: 2 area / extent^2 is
        # 4.5e-13, and a tolerance of 1e-12 extent^2 on each turn kept only
        # its two ends, so its area read 0
        eps = 2.0**-30
        pts = np.array([[-2048.0, 0.5], [2048.0, 0.5], [0.0, 0.5 + eps], [0.0, 0.5 - eps]])
        pts[:, 0] += shift
        ring = hull_2d(pts)
        assert ring.shape == (4, 2)
        assert polygon_area(ring) == pytest.approx(4096.0 * eps, rel=1e-9)

    def test_contains_all_inputs(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(0, 2 * math.pi, 100)
        radii = np.sqrt(rng.uniform(0, 1, 100))
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        ring = hull_2d(pts)
        assert ring_contains(ring, pts).all()


def ring_contains_by_edge(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """ring_contains as one pass over the points per edge, at 1e-12 times the
    square of the ring's extent."""
    if ring.shape[0] < 3:
        return np.zeros(len(pts), dtype=bool)
    tol = 1e-12 * max(np.ptp(ring[:, 0]), np.ptp(ring[:, 1])) ** 2
    inside = np.ones(len(pts), dtype=bool)
    for (ax, ay), (bx, by) in zip(ring, np.roll(ring, -1, axis=0)):
        inside &= (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax) >= -tol
    return inside


class TestRingContains:
    """ring_contains tests every edge in one broadcast over row blocks, with
    the bits of the per-edge loop."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rings(self, seed):
        rng = np.random.default_rng(seed)
        ring = hull_2d(rng.normal(size=(rng.integers(3, 60), 2)) * 10.0 ** rng.uniform(-3, 3))
        pts = rng.uniform(-1.2, 1.2, size=(3000, 2)) * np.max(np.abs(ring))
        got = ring_contains(ring, pts)
        assert np.array_equal(got, ring_contains_by_edge(ring, pts))
        assert got.any() and not got.all()

    def test_points_on_edges_and_vertices(self):
        ring = hull_2d(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]))
        t = np.linspace(0.0, 1.0, 9)[:, None]
        on = np.vstack([ring, *(a + t * (b - a) for a, b in zip(ring, np.roll(ring, -1, 0)))])
        assert ring_contains(ring, on).all()
        off = on + 1e-6
        assert np.array_equal(ring_contains(ring, off), ring_contains_by_edge(ring, off))
        assert np.array_equal(ring_contains(ring, on[0]), [True])  # one point as a row

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rings_below_three_vertices_hold_nothing(self, n):
        ring = np.array([[0.0, 0.0], [1.0, 1.0]])[:n]
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert not ring_contains(ring, pts).any()
        assert ring_contains(ring, pts).shape == (3,)

    def test_memory_is_bounded_by_row_blocks(self):
        rng = np.random.default_rng(7)
        ring = hull_2d(rng.normal(size=(200, 2)))
        pts = rng.normal(size=(100_000, 2))
        full = 8 * len(pts) * len(ring)  # one (points, edges) float array
        tracemalloc.start()
        try:
            got = ring_contains(ring, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full > 16 * 8 * _FACET_BLOCK
        assert peak < 8 * 8 * _FACET_BLOCK + got.nbytes
        assert np.array_equal(got, ring_contains_by_edge(ring, pts))


class TestPolygonOps:
    def test_unit_square_area(self, square2):
        assert polygon_area(hull_2d(square2.vertices)) == pytest.approx(1.0, abs=1e-12)

    def test_rhombus_area(self):
        # half product of the diagonals 2L and 2*eps with L=3, eps=0.5
        ring = hull_2d(np.array([[-3, 0], [3, 0], [0, 0.5], [0, -0.5]], dtype=float))
        assert polygon_area(ring) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_area_bits_match_roll_formula(self, seed):
        rng = np.random.default_rng(seed)
        ring = hull_2d(rng.uniform(-5.0, 5.0, size=(rng.integers(3, 40), 2)))
        x, y = ring[:, 0], ring[:, 1]
        rolled = float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))) / 2.0
        assert polygon_area(ring) == rolled

    def test_degenerate_area(self):
        assert polygon_area(np.array([[1.0, 2.0]])) == 0.0
        assert polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_clip_overlap_rectangle(self):
        a = hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        b = hull_2d(np.array([[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]], dtype=float))
        assert polygon_area(polygon_clip(a, b)) == pytest.approx(0.5, abs=1e-12)

    def test_clip_disjoint(self):
        a = hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        b = hull_2d(np.array([[5, 5], [6, 5], [6, 6], [5, 6]], dtype=float))
        assert polygon_area(polygon_clip(a, b)) == 0.0

    @pytest.mark.parametrize("seed", range(15))
    def test_clip_self_and_symdiff_identity(self, seed):
        # symdiff area is nonnegative and vanishes exactly when hulls coincide
        rng = np.random.default_rng(seed)
        a = hull_2d(random_convex_polygon(rng).vertices)
        b = hull_2d(random_convex_polygon(rng).vertices)
        assert polygon_area(polygon_clip(a, a)) == pytest.approx(polygon_area(a), abs=1e-12)
        symdiff = polygon_area(a) + polygon_area(b) - 2 * polygon_area(polygon_clip(a, b))
        assert symdiff >= -1e-9
        if np.array_equal(a, b):
            assert abs(symdiff) <= 1e-9
        else:
            assert symdiff > 1e-9

    def test_symdiff_zero_for_coinciding_hulls(self):
        rng = np.random.default_rng(100)
        a = hull_2d(random_convex_polygon(rng).vertices)
        # same hull described with extra interior and duplicate vertices
        interior = a.mean(axis=0, keepdims=True)
        b = hull_2d(np.vstack([a, interior, a[:2]]))
        symdiff = polygon_area(a) + polygon_area(b) - 2 * polygon_area(polygon_clip(a, b))
        assert abs(symdiff) <= 1e-9
