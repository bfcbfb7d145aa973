import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_convex_polygon, unit_cube
from projmetrics.bodies import VPolytope, _FACET_BLOCK, bounding_radius, hull_2d, polygon_area
from projmetrics.numerics import RngStream
from projmetrics.oracles import (
    _outside_parts,
    exact_outside_area_stack,
    exact_symdiff,
    inside,
    exact_volume,
    mc_symdiff,
    mc_volume,
    mc_volume_stack,
)


class TestExclusionRadius:
    @pytest.mark.parametrize("seed", range(5))
    def test_far_polygon_keeps_its_bits(self, seed):
        # every point of the polygon is farther than r from the origin, so
        # the mask passes every hit and the estimate keeps its bits
        verts = random_convex_polygon(np.random.default_rng(seed)).vertices + 5.0
        r = 7.0  # the polygon lies in [5, 7]^2, at distance >= 5 sqrt(2) > 7
        plain = mc_volume(verts, 2, 4000, RngStream(seed, 3))
        masked = mc_volume(verts, 2, 4000, RngStream(seed, 3), exclusion_radius=r)
        assert plain[0] > 0.0 and masked == plain

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_body_inside_the_ball_is_exactly_zero(self, scale):
        body = random_convex_polygon(np.random.default_rng(1))
        r = scale * bounding_radius(body)
        assert mc_volume(body.vertices, 2, 4000, RngStream(1, 3), exclusion_radius=r) == (0.0, 0.0)


class TestZeroHits:
    def test_rule_of_three(self, square2):
        # the part of the unit square outside radius sqrt(2) - 1e-6 has area
        # ~1e-12: no sample hits it, and se is the rule-of-three bound
        n = 1000
        value, se = mc_volume(square2.vertices, 2, n, RngStream(0, 1),
                              exclusion_radius=math.sqrt(2.0) - 1e-6)
        assert value == 0.0
        assert se == pytest.approx(3.0 / n, rel=1e-8)  # box (1 + 2e-9)^2

    def test_hits_keep_the_binomial_error(self, square2):
        n = 1000
        value, se = mc_volume(square2.vertices, 2, n, RngStream(0, 1), exclusion_radius=1.0)
        phat = value / (1.0 + 2e-9) ** 2
        assert 0.0 < value < 1.0
        assert se == pytest.approx((1.0 + 2e-9) ** 2 * math.sqrt(phat * (1 - phat) / n),
                                   rel=1e-9)


class TestExactOracles:
    def test_symdiff_needs_a_nested_pair_at_j3(self):
        # no exact symmetric difference oracle above j = 2, nested or not: a
        # nested pair's |vol A - vol B| is metrics' in-flat answer
        cube = unit_cube(3, 3).vertices
        for other in (0.5 * cube, cube + 0.5):
            with pytest.raises(ValueError, match="j=3"):
                exact_symdiff(cube, other, 3)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_mc_agrees_with_exact(self, j):
        a = unit_cube(j, j).vertices
        b = 0.5 * a + 0.25  # nested in a
        n = 20_000
        vol, vol_se = mc_volume(a, j, n, RngStream(2, j))
        assert abs(vol - exact_volume(a, j)) <= 4.0 * vol_se + 1e-6
        sym, sym_se = mc_symdiff(a, b, j, n, RngStream(3, j))
        exact = exact_volume(a, j) - exact_volume(b, j) if j >= 3 else exact_symdiff(a, b, j)
        assert abs(sym - exact) <= 4.0 * sym_se

    def test_box_mc_tests_facets_over_row_blocks(self):
        # 20 000 samples against the 996 facets of a 500-point sphere's hull:
        # one (samples, facets) product would take about 150 MiB, so the
        # facet test runs block by block
        rng = np.random.default_rng(0)
        v = rng.normal(size=(500, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        n = 20_000
        n_facets = len(VPolytope(v)._chart.hull[1])
        assert n * n_facets > 64 * _FACET_BLOCK
        tracemalloc.start()
        try:
            vol, vol_se = mc_volume(v, 3, n, RngStream(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert abs(vol - exact_volume(v, 3)) <= 4.0 * vol_se


def outside_mass_rows(j: int) -> list:
    """(vertices, exclusion radius) rows of every kind: a set that spans no
    j-flat, one inside its ball, one whose outside part no sample hits (the
    rule of three), one with hits, and one with no ball."""
    rng = np.random.default_rng(j)
    cube = unit_cube(j, j).vertices
    flat = np.hstack([rng.normal(size=(j + 2, j - 1)), np.zeros((j + 2, 1))])
    return [(flat, None), (cube, 2.0), (cube, math.sqrt(j) - 1e-6),
            (rng.normal(size=(3 * j + 2, j)), 0.5), (cube - 0.5, None)]


class TestStackedOutsideMass:
    """mc_volume_stack gives each row the bits, and the stream advance, of
    its one-row mc_volume call."""

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_rows_equal_one_row_calls(self, j):
        rows = outside_mass_rows(j)
        streams = [RngStream(5, 1000 + k) for k in range(len(rows))]
        stacked = mc_volume_stack([v for v, _ in rows], j, 500, streams, [r for _, r in rows])
        kinds = []
        for k, ((verts, r), got) in enumerate(zip(rows, stacked)):
            alone = RngStream(5, 1000 + k)
            assert got == mc_volume(verts, j, 500, alone, exclusion_radius=r)
            assert streams[k].counter == alone.counter
            kinds.append("short" if got == (0.0, 0.0) else "zero" if got[0] == 0.0 else "hits")
        assert kinds == ["short", "short", "zero", "hits", "hits"]
        assert [s.counter for s in streams] == [0, 0, 500 * j, 500 * j, 500 * j]

    def test_streams_share_seed_and_counter(self, square2):
        with pytest.raises(ValueError, match="seed and counter"):
            mc_volume_stack([square2.vertices] * 2, 2, 10, [RngStream(1, 0), RngStream(2, 1)])
        with pytest.raises(ValueError, match="seed and counter"):
            mc_volume_stack([square2.vertices] * 2, 2, 10, [RngStream(1, 0), RngStream(1, 1, 4)])

    @pytest.mark.parametrize("streams,radii,message", [
        (1, None, "3 vertex sets but 1 streams"),
        (2, [0.5] * 3, "3 vertex sets but 2 streams"),
        (4, None, "3 vertex sets but 4 streams"),
        (3, [0.5], "3 vertex sets but 1 exclusion radii"),
        (3, [0.5] * 4, "3 vertex sets but 4 exclusion radii"),
    ])
    def test_one_stream_and_radius_per_set(self, square2, streams, radii, message):
        # zip would answer only the first rows, and leave (0.0, 0.0) in the rest
        with pytest.raises(ValueError, match=message):
            mc_volume_stack([square2.vertices] * 3, 2, 200,
                            [RngStream(1, k) for k in range(streams)], radii)


def outside_area(verts, r: float) -> float:
    return exact_outside_area_stack([np.asarray(verts, dtype=float)], [r])[0]


SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


class TestExactOutsideArea:
    """exact_outside_area_stack: the area of a hull outside a centred disc,
    against closed forms, box MC, and its own one-row calls."""

    def test_disc_inside_a_square(self):
        r = 0.5
        assert outside_area(SQUARE, r) == pytest.approx(4.0 - math.pi * r * r, abs=1e-12)

    def test_square_inside_a_disc(self):
        # every vertex within r: exactly 0.0, and the edge pass agrees
        assert outside_area(SQUARE, 1.5) == 0.0
        ring = hull_2d(SQUARE)
        parts = _outside_parts(ring, np.roll(ring, -1, axis=0), np.full(4, 1.5 ** 2))
        assert float(parts.sum()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("turn", [0.0, 0.3, 1.0])
    def test_tangent_edges(self, turn):
        # every edge of the square touches the unit circle at its midpoint,
        # which lies in the disc: a midpoint-inside test cuts these edges
        c, s = math.cos(turn), math.sin(turn)
        square = SQUARE @ np.array([[c, s], [-s, c]])
        assert outside_area(square, 1.0) == pytest.approx(4.0 - math.pi, abs=1e-12)
        # one tangent edge, the other two far outside the disc
        tri = np.array([[1.0, -3.0], [1.0, 3.0], [-3.0, 0.0]])
        assert outside_area(tri, 1.0) == pytest.approx(12.0 - math.pi, abs=1e-12)

    def test_vertex_on_the_circle(self, square2):
        # (1, 0) and (0, 1) lie on the unit circle, (1, 1) outside it
        assert outside_area(square2.vertices, 1.0) == pytest.approx(1.0 - math.pi / 4.0,
                                                                   abs=1e-12)
        # a triangle that touches the disc at one vertex only
        tri = np.array([[1.0, 0.0], [3.0, -1.0], [3.0, 1.0]])
        assert outside_area(tri, 1.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_polygon_outside_the_disc(self, seed):
        verts = random_convex_polygon(np.random.default_rng(seed)).vertices + 3.0
        expected = polygon_area(hull_2d(verts))
        assert outside_area(verts, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_length_edge(self):
        ring = hull_2d(SQUARE)
        a = np.vstack([ring[:2], ring[1:]])  # ring[1] twice: one edge of length 0
        b = np.roll(a, -1, axis=0)
        parts = _outside_parts(a, b, np.full(5, 0.25))
        assert parts[1] == 0.0
        assert float(parts.sum()) == pytest.approx(4.0 - math.pi / 4.0, abs=1e-12)

    def test_no_area_is_zero(self):
        segment = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        point = np.array([[5.0, 5.0]])
        assert exact_outside_area_stack([segment, point], [0.5, 0.5]) == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_box_mc(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(rng.integers(3, 12), 2)) + rng.uniform(-1.0, 1.0, size=2)
        r = rng.uniform(0.2, 1.2)
        exact = outside_area(verts, r)
        mc, se = mc_volume(verts, 2, 40_000, RngStream(seed, 7), exclusion_radius=r)
        assert 0.0 < exact and abs(mc - exact) <= 4.0 * se

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(11)
        rows = [(rng.normal(size=(n, 2)) * scale + shift, r)
                for n, scale, shift, r in [(9, 1.0, 0.0, 0.6), (5, 0.1, 0.0, 1.0),
                                           (7, 1.0, 4.0, 0.5), (30, 3.0, 1.0, 2.0),
                                           (4, 1e3, 0.0, 10.0), (3, 1.0, -2.0, 2.5)]]
        rows.insert(2, (np.array([[0.0, 0.0], [2.0, 2.0]]), 0.5))
        stacked = exact_outside_area_stack([v for v, _ in rows], [r for _, r in rows])
        alone = [exact_outside_area_stack([v], [r])[0] for v, r in rows]
        assert [repr(x) for x in stacked] == [repr(x) for x in alone]
        assert stacked[1] == stacked[2] == 0.0 and all(x > 0.0 for x in stacked[3:])

    @pytest.mark.parametrize("radii", [[0.5], [0.5, 0.5], [0.5] * 4])
    def test_one_radius_per_set(self, radii):
        with pytest.raises(ValueError, match=f"3 vertex sets but {len(radii)} radii"):
            exact_outside_area_stack([SQUARE] * 3, radii)


class TestTolerancesScale:
    """inside() measures its tolerance against the operand's own extent."""

    @pytest.mark.parametrize("j", [1, 2])
    def test_points_outside_a_tiny_body_miss(self, j):
        s = 1e-9
        verts = unit_cube(j, j).vertices * s
        pts = np.full((1, j), -1e-3 * s)  # 1e-12 away from the body
        assert not inside(verts, pts)[0]
        assert inside(verts * 1e9, pts * 1e9)[0] == inside(verts, pts)[0]
