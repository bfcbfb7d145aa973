import math

import numpy as np
import pytest

from conftest import random_convex_polygon, unit_cube
from projmetrics.bodies import bounding_radius
from projmetrics.numerics import RngStream
from projmetrics.oracles import (
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


class TestTolerancesScale:
    """inside() measures its tolerance against the operand's own extent."""

    @pytest.mark.parametrize("j", [1, 2])
    def test_points_outside_a_tiny_body_miss(self, j):
        s = 1e-9
        verts = unit_cube(j, j).vertices * s
        pts = np.full((1, j), -1e-3 * s)  # 1e-12 away from the body
        assert not inside(verts, pts)[0]
        assert inside(verts * 1e9, pts * 1e9)[0] == inside(verts, pts)[0]
