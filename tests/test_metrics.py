import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conftest import random_convex_polygon, unit_cube, zonotope, zonotope_volume
from projmetrics import bodies, metrics, oracles
from projmetrics.bodies import VPolytope, contains, distance_to_hull, line_fibers
from projmetrics.constructions import (
    NeedleSpec,
    augment,
    cross_section,
    prism_needle,
    thm1_sequence,
    thm3_sequence,
)
from projmetrics.experiments import CsvTable, ExperimentConfig
from projmetrics.experiments.runners import run_thm1, run_thm2, run_thm3, unit_cube_body
from projmetrics.grassmann import Subspace, axis_subspace, full_space, haar_frames, haar_sample
from projmetrics.metrics import (
    MetricEstimate,
    SamplingPlan,
    _batch_values,
    _pair_value,
    delta_j,
    delta_j_stack,
    fiber_profile,
    hausdorff,
    hausdorff_stack,
    intrinsic_volume,
    projected_volume,
)
from projmetrics.numerics import RngStream, flag_coefficient, gram_schmidt
from projmetrics.oracles import exact_symdiff, exact_volume, mc_symdiff, mc_volume


def grassmann_line_average_oracle(n: int = 20_001) -> float:
    # quadrature oracle for E |cos(angle)| over random lines in R^3:
    # (1/2) int_0^pi |cos t| sin t dt
    t = np.linspace(0.0, math.pi, n)
    f = np.abs(np.cos(t)) * np.sin(t) / 2.0
    return float(np.trapezoid(f, t))


def qhull_symdiff(a: np.ndarray, b: np.ndarray) -> float:
    """vol A + vol B - 2 vol(A cap B) from scipy alone, for two full-dimensional
    bodies that overlap: A cap B is the intersection of both hulls'
    halfspaces, taken around its Chebyshev centre."""
    ha, hb = ConvexHull(a), ConvexHull(b)
    eq = np.vstack([ha.equations, hb.equations])  # normal . x + offset <= 0
    dim = a.shape[1]
    norms = np.linalg.norm(eq[:, :-1], axis=1)
    centre = linprog(np.r_[np.zeros(dim), -1.0], A_ub=np.c_[eq[:, :-1], norms],
                     b_ub=-eq[:, -1], bounds=[(None, None)] * dim + [(0.0, None)]).x
    assert centre[-1] > 1e-6, "the bodies do not overlap"
    inter = ConvexHull(HalfspaceIntersection(eq, centre[:-1]).intersections).volume
    return ha.volume + hb.volume - 2.0 * inter


def box_centre(verts: np.ndarray) -> np.ndarray:
    """The centre of the bounding box of the rows of verts, (min + max) / 2
    per axis: the origin of every chart and projection."""
    return 0.5 * (verts.min(axis=0) + verts.max(axis=0))


def flag_scaled_mean(values: np.ndarray, d: int, j: int) -> tuple[float, float]:
    """The sampled delta_j of per-subspace values, with its standard error."""
    flag = flag_coefficient(d, j)
    return (flag * float(np.mean(values)),
            flag * float(np.std(values, ddof=1)) / math.sqrt(len(values)))


class TestProjectedVolume:
    def test_cube_axis_shadow(self, cube3, plane_e12):
        est = projected_volume(cube3, plane_e12, SamplingPlan(seed=0))
        assert est.exact and est.value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_projection(self):
        seg = VPolytope([[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
        est = projected_volume(seg, axis_subspace(3, [0, 1]), SamplingPlan(seed=0))
        assert est.value == 0.0

    def test_mc_matches_exact_polygon(self, cube3):
        h = haar_sample(3, 2, RngStream(31, 0))
        exact = projected_volume(cube3, h, SamplingPlan(seed=1))
        mc = projected_volume(cube3, h, SamplingPlan(n_points=100_000, seed=1,
                                                     mode="monte_carlo"))
        assert abs(mc.value - exact.value) <= 4.0 * mc.std_error

    def test_qhull_volume_at_j3(self):
        # auto takes the exact qhull volume at j >= 3, MC only when asked
        a, _, q, offset = tilted_solids(3)
        h = haar_sample(4, 3, RngStream(5, 0))
        exact = projected_volume(a, h, SamplingPlan(seed=1))
        assert exact.exact and exact.std_error == 0.0 and exact.n_points_per_subspace == 0
        in_flat = ConvexHull((a.vertices - offset) @ q).volume
        assert exact.value == pytest.approx(
            abs(np.linalg.det(h.basis.T @ q)) * in_flat, rel=1e-12)
        mc = projected_volume(a, h, SamplingPlan(n_points=100_000, seed=1,
                                                 mode="monte_carlo"))
        assert not mc.exact and abs(mc.value - exact.value) <= 4.0 * mc.std_error

    @pytest.mark.parametrize("mode", ["auto", "monte_carlo"])
    @pytest.mark.parametrize("j", [2, 3])
    def test_one_step_of_the_sampler(self, mode, j):
        # _pair_value of the body's offsets from its box centre, projected:
        # the value the sampler gives its sample i in the plane of frame i
        body = VPolytope(np.random.default_rng(j).normal(size=(12, 4)) + 5.0)
        plan = SamplingPlan(n_subspaces=4, n_points=300, seed=2, mode=mode)
        h = haar_sample(4, j, RngStream(7, 0))
        est = projected_volume(body, h, plan, sample_index=11)
        step = _pair_value((body.vertices - box_centre(body.vertices)) @ h.basis, None, j,
                           plan.n_points, mode == "auto", RngStream(plan.seed, 23))
        assert (est.value, est.std_error) == step
        assert est.exact == (mode == "auto") and est.per_subspace == ((0, est.value),)
        assert est.n_points_per_subspace == (0 if mode == "auto" else plan.n_points)
        sampled = intrinsic_volume(body, j, plan)
        assert [f for _, f in sampled.per_subspace] == [
            projected_volume(body, Subspace(q), plan, sample_index=i).value
            for i, q in enumerate(haar_frames(4, j, plan.seed, np.arange(4)))]

    def test_exact_only_where_nothing_is_sampled(self, cube3, plane_e12):
        # in monte_carlo mode a projection that spans no j-flat reads 0 +- 0
        # exactly; a box that every point hits (the unit square, sampled on
        # its own bounding box) reads its area with se 0 but is no exact value
        seg = VPolytope([[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
        mc = SamplingPlan(n_points=2000, seed=0, mode="monte_carlo")
        flat = projected_volume(seg, plane_e12, mc)
        assert (flat.value, flat.std_error, flat.exact) == (0.0, 0.0, True)
        full = projected_volume(cube3, plane_e12, mc)
        assert full.std_error == 0.0 and full.value == 1.0 and not full.exact
        assert projected_volume(seg, plane_e12, SamplingPlan(seed=0)).exact

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_under_containment(self, seed):
        rng = np.random.default_rng(seed)
        small = VPolytope(rng.uniform(-1, 1, size=(6, 3)))
        big = VPolytope(np.vstack([small.vertices, rng.uniform(-1.5, 1.5, size=(4, 3))]))
        h = haar_sample(3, 2, RngStream(seed, 77))
        vs = projected_volume(small, h, SamplingPlan(seed=0))
        vb = projected_volume(big, h, SamplingPlan(seed=0))
        assert vs.value <= vb.value + 1e-12


class TestSymdiffVolume:
    """Same-space symmetric differences, from the oracles that delta_j's
    per-sample values and in-flat values call."""

    def test_identical_operands(self, square2):
        assert exact_symdiff(square2.vertices, square2.vertices, 2) == 0.0

    def test_nested_squares(self):
        small = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        big = np.array([[0, 0], [2, 0], [2, 2], [0, 2.0]])
        assert exact_symdiff(small, big, 2) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_mc_within_four_se(self, seed):
        rng = np.random.default_rng(seed)
        a = random_convex_polygon(rng).vertices
        b = random_convex_polygon(rng).vertices
        exact = exact_symdiff(a, b, 2)
        mc, se = mc_symdiff(a, b, 2, 100_000, RngStream(2, 1))
        assert abs(mc - exact) <= 4.0 * se

    def test_interval_symdiff(self):
        a = np.array([[0.0], [2.0]])
        b = np.array([[1.0], [4.0]])
        assert exact_symdiff(a, b, 1) == pytest.approx(3.0, abs=1e-12)  # (2-1) + (4-2)


class TestDeltaJ:
    def test_one_subspace_reports_no_error_bar(self):
        # a single sample has no spread: its error is unknown, not zero
        body = VPolytope(np.random.default_rng(1).uniform(-1.0, 1.0, size=(12, 3)))
        est = delta_j(body, None, 2, SamplingPlan(n_subspaces=1, seed=1))
        assert not est.exact and est.n_subspaces == 1
        assert est.std_error == math.inf

    def test_self_distance_draws_nothing(self, cube3):
        est = delta_j(cube3, cube3, 2, SamplingPlan(seed=0))
        assert est.value == 0.0 and est.std_error == 0.0 and est.n_subspaces == 0

    def test_both_empty(self):
        est = delta_j(None, None, 2, SamplingPlan(seed=0))
        assert est.value == 0.0 and est.exact

    def test_top_dimension_is_symmetric_difference(self):
        small = VPolytope([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        tall = VPolytope([[0, 0], [1, 0], [1, 2], [0, 2.0]])
        est = delta_j(small, tall, 2, SamplingPlan(seed=0))
        assert est.exact and est.n_subspaces == 1
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_top_dimension_solids_are_exact(self):
        # j = d >= 3: one qhull volume per operand in the operands' own
        # coordinates; only a pair that is not nested keeps box MC
        rng = np.random.default_rng(7)
        a = VPolytope(rng.uniform(-1.0, 1.0, size=(10, 3)))
        shrunk = VPolytope(0.6 * a.vertices + 0.4 * a.vertices.mean(axis=0))
        subset = VPolytope(a.vertices[::2])
        plan = SamplingPlan(n_points=20_000, seed=1)
        for inner in (shrunk, subset):
            est = delta_j(a, inner, 3, plan)
            assert est.exact and est.std_error == 0.0 and est.n_points_per_subspace == 0
            assert est.n_subspaces == 1 and est.per_subspace == ((0, est.value),)
            exact = ConvexHull(a.vertices).volume - ConvexHull(inner.vertices).volume
            assert est.value == pytest.approx(exact, rel=1e-12)
        single = intrinsic_volume(a, 3, plan)
        assert single.exact and single.value == pytest.approx(ConvexHull(a.vertices).volume,
                                                             rel=1e-12)
        shifted = VPolytope(a.vertices + 0.5)
        est = delta_j(a, shifted, 3, plan)
        assert not est.exact and est.n_points_per_subspace == plan.n_points
        exact = qhull_symdiff(a.vertices, shifted.vertices)
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_top_dimension_keeps_vertex_order(self):
        # j = d >= 3 takes qhull's volume of each operand's offsets from its
        # box centre in the vertex order given, so the bits follow that
        # order, as in every coordinate flat (in an oblique flat the sorted
        # rows make them order-invariant: TestFlatSolids.test_symmetry_bitwise);
        # this body's qhull volume takes three values over 20 orders
        verts = np.random.default_rng(20).uniform(-1.0, 1.0, size=(10, 3))
        inner = 0.6 * verts + 0.4 * verts.mean(axis=0)
        plan = SamplingPlan(seed=0)
        values = []
        for k in range(20):
            perm = np.random.default_rng(k).permutation(len(verts))
            vol_a = ConvexHull(verts[perm] - box_centre(verts)).volume
            assert intrinsic_volume(VPolytope(verts[perm]), 3, plan).value == vol_a
            est = delta_j(VPolytope(verts[perm]), VPolytope(inner), 3, plan)
            vol_inner = ConvexHull(inner - box_centre(inner)).volume
            assert est.exact and est.value == abs(vol_a - vol_inner)
            values.append(vol_a)
        assert max(values) - min(values) <= 1e-12 * max(values)

    def test_empty_operand_is_projection_volume(self, cube3):
        plan = SamplingPlan(n_subspaces=500, seed=9)
        est = delta_j(cube3, None, 2, plan)
        assert abs(est.value - 3.0) <= 4.0 * est.std_error

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(4)
        a = VPolytope(rng.uniform(0, 1, size=(6, 3)))
        b = VPolytope(rng.uniform(0, 2, size=(6, 3)))
        plan = SamplingPlan(n_subspaces=80, seed=3)
        ab = delta_j(a, b, 2, plan)
        ba = delta_j(b, a, 2, plan)
        assert ab.value == ba.value and ab.std_error == ba.std_error

    def test_worker_invariance(self):
        rng = np.random.default_rng(5)
        a = VPolytope(rng.uniform(0, 1, size=(6, 3)))
        plan = SamplingPlan(n_subspaces=120, seed=3)
        serial = delta_j(a, None, 2, plan, workers=1)
        parallel = delta_j(a, None, 2, plan, workers=3)
        assert serial.value == parallel.value
        assert serial.std_error == parallel.std_error

    def test_per_subspace_consistency(self, cube3):
        plan = SamplingPlan(n_subspaces=50, seed=13)
        est = delta_j(cube3, None, 2, plan)
        flag_scaled = 2.0 * float(np.mean([f for _, f in est.per_subspace]))
        assert abs(flag_scaled - est.value) < 1e-12

    def test_range_errors(self, cube3):
        with pytest.raises(ValueError):
            delta_j(cube3, None, 4, SamplingPlan(seed=0))
        with pytest.raises(ValueError):
            delta_j(cube3, None, 0, SamplingPlan(seed=0))


TILT = gram_schmidt(np.array([[1.0, 0.2], [0.3, 1.0], [0.7, -0.4]]))


def tilted_pair(seed: int, nested: bool = False):
    """Two random polygons in one tilted affine 2-flat of R^3 (frame TILT),
    then the same two as 2-D bodies in flat coordinates; `nested` shrinks
    the second into the first."""
    rng = np.random.default_rng(seed)
    offset = np.array([0.3, -1.1, 2.0])
    a2 = random_convex_polygon(rng).vertices
    if nested:
        b2 = 0.6 * a2 + 0.4 * a2.mean(axis=0)
    else:
        b2 = random_convex_polygon(rng).vertices
    return (VPolytope(offset + a2 @ TILT.T), VPolytope(offset + b2 @ TILT.T),
            VPolytope(a2), VPolytope(b2))


class TestFlatBodies:
    """Bodies in a common j-flat: delta_j = vol_j(K symdiff L), computed in
    the flat, with no subspace drawn."""

    @pytest.mark.parametrize("seed", range(4))
    def test_common_plane_identity(self, seed):
        a, b, a2, b2 = tilted_pair(seed)
        est = delta_j(a, b, 2, SamplingPlan(n_subspaces=2000, seed=seed))
        assert est.exact and est.std_error == 0.0 and est.per_subspace == ()
        assert est.n_subspaces == 0 and est.n_points_per_subspace == 0
        assert est.value == pytest.approx(qhull_symdiff(a2.vertices, b2.vertices), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_difference_of_volumes(self, seed):
        a, b, _, _ = tilted_pair(seed, nested=True)
        plan = SamplingPlan(n_subspaces=300, seed=seed)
        diff = intrinsic_volume(a, 2, plan).value - intrinsic_volume(b, 2, plan).value
        assert delta_j(a, b, 2, plan).value == pytest.approx(diff, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_sample_oracles(self, seed):
        # the per-sample oracles see the flat operands through H^T Q, so
        # sample i is |det(H_i^T Q)| times the in-flat value, and the
        # flag-scaled sample mean lands within 4 se of it (Kubota)
        a, b, a2, b2 = tilted_pair(seed)
        plan = SamplingPlan(n_subspaces=200, seed=seed)
        frames = haar_frames(3, 2, plan.seed, np.arange(plan.n_subspaces))
        dets = np.abs(np.linalg.det(np.swapaxes(frames, 1, 2) @ TILT))
        for ops, ops2 in (((a, b), (a2, b2)), ((a, None), (a2, None)), ((None, b), (None, b2))):
            in_flat = delta_j(*ops2, 2, plan).value
            est = delta_j(*ops, 2, plan)
            assert est.exact and est.value == pytest.approx(in_flat, rel=1e-12)
            verts = [None if op is None else op.vertices for op in ops]
            loop = _batch_values((plan.seed, 0, plan.n_subspaces, 3, 2, *verts, 0, True))
            # to 1e-12 of the in-flat value, the largest a sample can take
            # (|det| <= 1): the loop's hull and clip of a nearly edge-on
            # projection carry rounding on that scale, not on the sample's
            assert np.max(np.abs(dets * in_flat - loop)) <= 1e-12 * in_flat
            mean, se = flag_scaled_mean(loop, 3, 2)
            assert abs(mean - in_flat) <= 4.0 * se

    def test_segments_on_a_line(self):
        a = VPolytope([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        b = VPolytope([[1.5, 2.0, 0.0], [4.5, 6.0, 0.0]])
        plan = SamplingPlan(n_subspaces=100, seed=6)
        est = delta_j(a, b, 1, plan)
        assert est.exact and est.value == pytest.approx(5.0, rel=1e-12)  # 2.5 + 2.5
        loop = _batch_values((plan.seed, 0, plan.n_subspaces, 3, 1, a.vertices, b.vertices,
                              0, True))
        frames = haar_frames(3, 1, plan.seed, np.arange(plan.n_subspaces))
        cosines = np.abs(frames[:, :, 0] @ np.array([0.6, 0.8, 0.0]))
        assert np.max(np.abs(5.0 * cosines - loop)) <= 1e-12 * 5.0
        mean, se = flag_scaled_mean(loop, 3, 1)
        assert abs(mean - 5.0) <= 4.0 * se

    def test_two_single_points(self):
        # together they span a line, and every projection has measure zero
        est = delta_j(VPolytope([[1.0, 2.0]]), VPolytope([[0.0, 0.0]]), 1, SamplingPlan(seed=1))
        assert est.exact and est.value == 0.0 and est.n_subspaces == 0

    def test_symmetry_bitwise(self):
        a, b, _, _ = tilted_pair(7)
        shuffled = VPolytope(a.vertices[::-1])
        plan = SamplingPlan(n_subspaces=100, seed=2)
        ab = delta_j(a, b, 2, plan)
        for other in (delta_j(b, a, 2, plan), delta_j(b, shuffled, 2, plan)):
            assert other.value == ab.value and other.std_error == ab.std_error
            assert other.per_subspace == ab.per_subspace


def tilted_solids(seed: int):
    """A random 3-polytope and a shrunk copy inside it in one tilted affine
    3-flat of R^4, with the copy's vertices in the flat's coordinates."""
    rng = np.random.default_rng(seed)
    q = gram_schmidt(np.array([[1.0, 0.2, -0.3], [0.3, 1.0, 0.1],
                               [0.7, -0.4, 1.0], [0.2, 0.5, 0.6]]))
    offset = np.array([0.3, -1.1, 2.0, 0.5])
    a3 = rng.uniform(-1.0, 1.0, size=(10, 3))
    b3 = 0.6 * a3 + 0.4 * a3.mean(axis=0)
    return VPolytope(offset + a3 @ q.T), VPolytope(offset + b3 @ q.T), q, offset


def in_flat_volume(body: VPolytope, q: np.ndarray, offset: np.ndarray) -> float:
    return ConvexHull((body.vertices - offset) @ q).volume


class TestFlatSolids:
    """Flat bodies at j = 3: one qhull volume per operand, no subspace drawn,
    and the per-sample MC path only for a pair that is not nested."""

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_difference_of_volumes(self, seed):
        a, b, q, offset = tilted_solids(seed)
        plan = SamplingPlan(n_subspaces=300, seed=seed)
        diff = intrinsic_volume(a, 3, plan).value - intrinsic_volume(b, 3, plan).value
        est = delta_j(a, b, 3, plan)
        assert est.value == pytest.approx(diff, rel=1e-12)
        assert est.exact and est.std_error == 0.0
        assert est.n_subspaces == 0 and est.n_points_per_subspace == 0
        exact = in_flat_volume(a, q, offset) - in_flat_volume(b, q, offset)
        assert est.value == pytest.approx(exact, rel=1e-12)

    def test_common_flat_identity(self):
        # delta_3 of nested bodies in a common 3-flat is vol_3(K) - vol_3(L)
        a, b, q, offset = tilted_solids(5)
        exact = in_flat_volume(a, q, offset) - in_flat_volume(b, q, offset)
        est = delta_j(a, b, 3, SamplingPlan(n_subspaces=2000, seed=5))
        assert est.exact and est.value == pytest.approx(exact, rel=1e-12)

    def test_symmetry_bitwise(self):
        # for this body qhull's volume moves in the last bits with the order
        # of its input points; the flat path must not
        a, b, _, _ = tilted_solids(62)
        plan = SamplingPlan(n_subspaces=100, seed=2)
        ab = delta_j(a, b, 3, plan)
        va = intrinsic_volume(a, 3, plan)
        assert delta_j(b, a, 3, plan) == ab
        for k in range(20):
            perm = np.random.default_rng(k).permutation(a.n_vertices)
            pa, pb = VPolytope(a.vertices[perm]), VPolytope(b.vertices[perm])
            assert delta_j(pb, pa, 3, plan) == ab
            assert intrinsic_volume(pa, 3, plan) == va

    def test_overlapping_pair_takes_monte_carlo(self):
        # neither box holds the other: vol A + vol B - 2 vol(A cap B) = 1
        q = gram_schmidt(np.array([[1.0, 0.1, 0.2], [0.4, 1.0, -0.3],
                                   [-0.2, 0.3, 1.0], [0.5, -0.6, 0.4]]))
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        shift = np.array([0.5, 0.0, 0.0])
        overlap = corners * np.array([0.5, 1.0, 1.0]) + shift
        exact = (ConvexHull(corners).volume + ConvexHull(corners + shift).volume
                 - 2.0 * ConvexHull(overlap).volume)
        a, b = VPolytope(corners @ q.T), VPolytope((corners + shift) @ q.T)
        plan = SamplingPlan(n_subspaces=300, n_points=2000, seed=3)
        est = delta_j(a, b, 3, plan)
        assert est.n_points_per_subspace == plan.n_points
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_monte_carlo_mode_skips_the_flat_path(self):
        a, b, _, _ = tilted_solids(1)
        plan = SamplingPlan(n_subspaces=20, n_points=500, seed=1, mode="monte_carlo")
        est = delta_j(a, b, 3, plan)
        centre = box_centre(np.vstack([a.vertices, b.vertices]))
        loop = _batch_values((plan.seed, 0, plan.n_subspaces, 4, 3, a.vertices - centre,
                              b.vertices - centre, plan.n_points, False))
        assert est.n_points_per_subspace == plan.n_points
        assert [f for _, f in est.per_subspace] == list(loop)


def count_qhull(monkeypatch) -> list:
    """The shapes of the vertex arrays handed to bodies._qhull from here on."""
    shapes = []
    original = bodies._qhull

    def counted(verts):
        shapes.append(verts.shape)
        return original(verts)

    monkeypatch.setattr(bodies, "_qhull", counted)
    return shapes


def segments_on_a_line(seed: int):
    """Random nested point sets on one tilted line of R^3, as 3-D bodies and
    as their 1-D line coordinates."""
    rng = np.random.default_rng(seed)
    direction = gram_schmidt(rng.normal(size=(3, 1)))[:, 0]
    offset = rng.normal(size=3)
    ta = rng.uniform(-2.0, 2.0, size=(5, 1))
    tb = 0.6 * ta + 0.4 * ta.mean()
    return (VPolytope(offset + ta * direction), VPolytope(offset + tb * direction),
            VPolytope(ta), VPolytope(tb))


class TestFlatCharts:
    """Each body keeps one chart: its frame, and on demand its in-flat
    facets and volume, so a nested flat pair costs no hull that an earlier
    call already built."""

    @pytest.mark.parametrize("runner,d,j,steps,calls", [
        (run_thm1, 4, 3, 12, 13), (run_thm3, 4, 3, 12, 13), (run_thm1, 3, 3, 6, 7)])
    def test_one_qhull_call_per_body(self, monkeypatch, runner, d, j, steps, calls):
        shapes = count_qhull(monkeypatch)
        runner(ExperimentConfig(d=d, j=j, steps=steps, n_subspaces=50, n_points=500, seed=1))
        assert len(shapes) == calls  # the base and one body per row

    def test_no_hull_above_the_subspace_dimension(self, monkeypatch):
        shapes = count_qhull(monkeypatch)
        body = VPolytope(np.random.default_rng(0).uniform(-1.0, 1.0, size=(12, 4)))
        est = intrinsic_volume(body, 3, SamplingPlan(n_subspaces=20, n_points=200, seed=1))
        assert est.n_subspaces == 20 and not est.exact
        assert shapes and all(shape[1] == 3 for shape in shapes)

    @pytest.mark.parametrize("seed", range(6))
    def test_nested_answer_matches_the_clip(self, seed):
        for j, (a, b, a_flat, b_flat) in ((1, segments_on_a_line(seed)),
                                          (2, tilted_pair(seed, nested=True))):
            nested = delta_j(a, b, j, SamplingPlan(seed=seed))
            assert nested.exact and nested.n_subspaces == 0
            chart = a._chart
            clip = exact_symdiff(chart.to_flat(a.vertices), chart.to_flat(b.vertices), j)
            assert nested.value == pytest.approx(clip, rel=1e-12)
            in_flat = exact_symdiff(a_flat.vertices, b_flat.vertices, j)
            assert nested.value == pytest.approx(in_flat, rel=1e-12)

    @pytest.mark.parametrize("runner", [run_thm1, run_thm2])
    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_leading_vertex_rows_nest_without_a_facet_test(self, monkeypatch, runner, d, j):
        # each row's body lists the previous body's vertices first, and a
        # vertex row lies in its own hull: no pair goes to the nesting test
        calls = []
        original = metrics.contains
        monkeypatch.setattr(metrics, "contains",
                            lambda *args: calls.append(1) or original(*args))
        runner(ExperimentConfig(d=d, j=j, steps=6, n_subspaces=50, n_points=500, seed=1))
        assert calls == []

    @pytest.mark.parametrize("runner", [run_thm1, run_thm3])
    def test_one_hull_pass_before_the_first_row(self, monkeypatch, runner):
        # a table builds every hull back to back, before the first pair is
        # answered and the first row added
        events = []
        original_add, original_flat = CsvTable.add_row, metrics._flat_value
        monkeypatch.setattr(CsvTable, "add_row",
                            lambda table, row: events.append("row") or original_add(table, row))
        monkeypatch.setattr(metrics, "_flat_value",
                            lambda *args: events.append("pair") or original_flat(*args))
        monkeypatch.setattr(bodies, "_qhull", lambda v, q=bodies._qhull: events.append("hull")
                            or q(v))
        runner(ExperimentConfig(d=4, j=3, steps=12, n_subspaces=50, n_points=500, seed=1))
        assert events.count("hull") == 13  # steps + 1
        assert events.count("row") == 12 and "hull" not in events[events.index("row"):]
        table = events[events.index("hull", 1):]  # thm3 builds its base hull for a0 first
        assert table[:12] == ["hull"] * 12 and "hull" not in table[12:]

    def test_one_certificate_for_the_hausdorff_column(self, monkeypatch):
        calls = []
        original = bodies._Chart.certified
        monkeypatch.setattr(bodies._Chart, "certified",
                            lambda chart, pts: calls.append(len(pts)) or original(chart, pts))
        run_thm1(ExperimentConfig(d=4, j=3, steps=12, n_subspaces=50, n_points=500, seed=1))
        # each row lists the 8 cube vertices, the base's own, then 8 needle
        # vertices: only the needle's go to the certificate
        assert calls == [12 * 8]

    @pytest.mark.parametrize("runner,d,j", [
        (run_thm1, 4, 3), (run_thm3, 4, 3), (run_thm1, 3, 2), (run_thm2, 3, 2), (run_thm3, 3, 2)])
    def test_coordinate_charts_take_no_frame_svd(self, monkeypatch, runner, d, j):
        # every thm body lies in span{e_1..e_j}: its chart is read off its
        # columns, after one rank SVD per _charts call
        calls = {name: [] for name in ("_charts", "_numerical_ranks", "_frames",
                                       "_distinct_rows", "_qhull")}
        for name, seen in calls.items():
            counted = (lambda *args, f=getattr(bodies, name), seen=seen:
                       seen.append(1) or f(*args))
            for module in (bodies, metrics, oracles):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        runner(ExperimentConfig(d=d, j=j, steps=12, n_subspaces=50, n_points=500, seed=1))
        assert calls["_frames"] == calls["_distinct_rows"] == []
        assert calls["_charts"] and len(calls["_numerical_ranks"]) == len(calls["_charts"])
        if j == 3:
            assert len(calls["_qhull"]) == 13

    def test_charts_are_cached(self):
        a, b, _, _ = tilted_solids(3)
        plan = SamplingPlan(seed=3)
        first = delta_j(a, b, 3, plan)
        charts = (a._chart, b._chart)
        hulls = (a._chart.hull, b._chart.hull)
        assert delta_j(b, a, 3, plan) == first
        assert a._chart is charts[0] and b._chart is charts[1]
        assert all(x._chart.hull is h for x, h in zip((a, b), hulls))


class TestObliqueCharts:
    """A body whose varying coordinates outnumber its rank lies in an
    oblique flat and keeps the sorted-rows SVD frame, with the values it
    had before coordinate charts."""

    CASES = {  # vertices, j, and intrinsic_volume, delta_j to a shrunk copy,
        # hausdorff to it and to a shifted copy, as the frame path gives them
        "triangle in R3": (
            [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], 2,
            (0.8660254037844384, 0.5542562584220404, 0.32659863237109044,
             0.43301270189221946)),
        "tetrahedron in R4": (
            [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],
             [0.0, 0.0, 1.0, 1.0]], 3,
            (0.3333333333333333, 0.26133333333333336, 0.3464101615137755,
             0.5000000000000001)),
        "diagonal segment": (
            [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]], 1,
            (1.414213562373095, 0.5656854249492378, 0.282842712474619,
             0.4330127018922193)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_frame_path_values(self, monkeypatch, case):
        verts, j, (volume, delta, near, shifted) = self.CASES[case]
        v = np.array(verts)
        frames = []
        monkeypatch.setattr(bodies, "_frames",
                            lambda stack, f=bodies._frames: frames.append(1) or f(stack))
        outer = VPolytope(v)
        inner = VPolytope((0.6 * v + 0.4 * v.mean(axis=0))[::-1])
        plan = SamplingPlan(seed=1)
        assert intrinsic_volume(outer, j, plan).value == volume
        est = delta_j(outer, inner, j, plan)
        assert est.exact and est.n_subspaces == 0 and est.value == delta
        assert hausdorff(outer, inner) == near
        assert hausdorff(outer, VPolytope(v + 0.25)) == shifted
        assert frames and not np.isin(outer._chart.frame, (0.0, 1.0)).all()

    def test_coordinate_chart_is_exact(self):
        # the origin is the centre of the vertex box, the constant itself on
        # a constant axis, and every product with the unit rows is exact
        v = np.array([[0.5, 3.0, 0.1, -2.0], [0.7, 3.0, 0.2, -2.0], [0.3, 3.0, 0.9, -2.0]])
        chart = VPolytope(v)._chart
        assert chart.dim == 2
        assert chart.origin.tolist() == [0.5, 3.0, 0.5, -2.0]
        assert chart.frame.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        assert chart.normal.tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        assert np.array_equal(chart.coords, (v - chart.origin)[:, [0, 2]])
        pts = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert chart.to_flat(pts).tolist() == [[0.5, 2.5]]
        assert chart.off_flat(pts).tolist() == [[-1.0, 6.0]]


def same_estimate(x: MetricEstimate, y: MetricEstimate) -> bool:
    """Bit-for-bit equality of two estimates, signed zeros and nan included."""
    return repr(dataclasses.astuple(x)) == repr(dataclasses.astuple(y))


def fresh(body: VPolytope | None) -> VPolytope | None:
    """A copy of body with no chart built yet."""
    return None if body is None else VPolytope(body.vertices.copy())


def flat_family(rng: np.random.Generator, d: int, j: int, count: int, n: int) -> list:
    """count random n-vertex bodies in one tilted affine j-flat of R^d: equal
    vertex counts, so their SVDs stack."""
    q = gram_schmidt(rng.normal(size=(d, j)))
    offset = rng.normal(size=d)
    return [VPolytope(offset + rng.uniform(-1.0, 1.0, size=(n, j)) @ q.T)
            for _ in range(count)]


class TestStackedForms:
    """delta_j_stack and hausdorff_stack give each row the bits of the
    one-row call, made on fresh bodies so that no chart is shared."""

    def assert_delta_rows(self, pairs, j, plan, workers=1):
        stacked = delta_j_stack(pairs, j, plan, workers=workers)
        assert len(stacked) == len(pairs)
        for k, ((a, b), est) in enumerate(zip(pairs, stacked)):
            assert same_estimate(est, delta_j(fresh(a), fresh(b), j, plan, workers=workers)), k
        return stacked

    @pytest.mark.parametrize("seed", range(3))
    def test_delta_j_at_j2(self, seed):
        rng = np.random.default_rng(seed)
        solid = [VPolytope(rng.normal(size=(7, 3))) for _ in range(3)]  # sampled
        flat = flat_family(rng, 3, 2, 4, 6)
        a, b, _, _ = tilted_pair(seed)  # one plane, not nested: clipped in the union
        an, bn, _, _ = tilted_pair(seed, nested=True)
        pairs = [(solid[0], solid[1]), (flat[0], flat[1]), (flat[2], None), (a, b),
                 (an, bn), (bn, an), (None, flat[3]), (flat[0], flat[0]), (None, None),
                 (solid[2], flat[1]), (flat[3], flat[2]), (flat[1], flat[0])]
        stacked = self.assert_delta_rows(pairs, 2, SamplingPlan(n_subspaces=30, seed=seed))
        assert stacked[0].n_subspaces == 30 and stacked[3].exact

    @pytest.mark.parametrize("seed", range(3))
    def test_delta_j_at_j3(self, seed):
        rng = np.random.default_rng(seed)
        flat = flat_family(rng, 4, 3, 5, 9)
        a, b, _, _ = tilted_solids(seed)
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        q = gram_schmidt(rng.normal(size=(4, 3)))
        # neither box holds the other: a flat pair the sampler answers
        ca, cb = VPolytope(corners @ q.T), VPolytope((corners + [0.5, 0.0, 0.0]) @ q.T)
        pairs = [(flat[0], flat[1]), (a, b), (b, a), (flat[2], None), (ca, cb),
                 (VPolytope(rng.normal(size=(8, 4))), flat[3]), (None, flat[4]),
                 (flat[4], flat[0])]
        stacked = self.assert_delta_rows(
            pairs, 3, SamplingPlan(n_subspaces=6, n_points=300, seed=seed))
        assert stacked[1].exact and not stacked[4].exact

    @pytest.mark.parametrize("seed", range(3))
    def test_delta_j_at_j_equal_d(self, seed):
        rng = np.random.default_rng(seed)
        solids = [VPolytope(rng.normal(size=(8, 3))) for _ in range(3)]
        inner = VPolytope(0.3 * solids[0].vertices + 0.1 * solids[0].vertices.mean(axis=0))
        grown = VPolytope(np.vstack([solids[1].vertices, rng.normal(size=(2, 3)) * 3.0]))
        pairs = [(solids[0], inner), (grown, solids[1]), (solids[1], solids[2]),
                 (solids[2], None), (inner, solids[0])]
        stacked = self.assert_delta_rows(
            pairs, 3, SamplingPlan(n_subspaces=10, n_points=400, seed=seed))
        assert stacked[0].exact and stacked[1].exact and not stacked[2].exact

    @pytest.mark.parametrize("d,j", [(4, 3), (5, 4)])
    def test_delta_j_along_prefix_chains(self, d, j):
        # thm3's bodies: each one's vertex list extends the last one's, so a
        # hull grown along the chain would differ from the standalone hulls
        base, plane, x0, u = unit_cube_body(d, j)
        chain = [body for _, body in thm3_sequence(base, plane, x0, u, 12, 1.0)]
        plan = SamplingPlan(n_subspaces=6, n_points=300, seed=1)
        singles = self.assert_delta_rows([(body, None) for body in chain], j, plan)
        steps = self.assert_delta_rows(list(zip(chain, [base, *chain[:-1]])), j, plan)
        assert all(est.exact for est in singles + steps)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_delta_j_monte_carlo(self, workers):
        rng = np.random.default_rng(11)
        flat = flat_family(rng, 3, 2, 2, 6)
        pairs = [(flat[0], flat[1]), (VPolytope(rng.normal(size=(6, 3))), None),
                 (flat[1], flat[1])]
        plan = SamplingPlan(n_subspaces=8, n_points=100, seed=4, mode="monte_carlo")
        stacked = self.assert_delta_rows(pairs, 2, plan, workers=workers)
        assert [e.n_subspaces for e in stacked] == [8, 8, 0]

    def test_delta_j_checks_every_pair_first(self, cube3):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="different dimensions"):
            delta_j_stack([(cube3, None), (cube3, square)], 2, SamplingPlan())
        with pytest.raises(ValueError, match="1 <= j <= d"):
            delta_j_stack([(cube3, None), (square, None)], 3, SamplingPlan())

    def test_hausdorff(self, monkeypatch):
        solves = []
        original = bodies._min_norm_point
        monkeypatch.setattr(bodies, "_min_norm_point",
                            lambda *args: solves.append(1) or original(*args))
        rng = np.random.default_rng(8)
        for d in (3, 5):  # at d = 5 no fresh body holds a hull: Wolfe for every row
            shared = VPolytope(rng.normal(size=(12, d)))
            family = [
                VPolytope(rng.normal(size=(9, d))),
                VPolytope(0.4 * shared.vertices + 0.1),  # nested
                VPolytope(np.vstack([shared.vertices, rng.normal(size=(3, d)) * 2.0])),  # leads
                VPolytope(shared.vertices[:5]),  # led by the shared body's vertices
                shared.translate(rng.normal(size=d)),
                VPolytope(np.vstack([shared.vertices[:4], rng.normal(size=(4, d))])),
                shared,
                VPolytope(rng.normal(size=(6, d)) + 20.0),
            ]
            solves.clear()
            stacked = hausdorff_stack(family, shared)
            assert solves  # some rows are left to the Wolfe scan
            assert stacked == [hausdorff(fresh(a), fresh(shared)) for a in family]
            assert [repr(x) for x in stacked] == [repr(hausdorff(fresh(a), fresh(shared)))
                                                  for a in family]
        with pytest.raises(ValueError, match="different dimensions"):
            hausdorff_stack([shared, VPolytope(rng.normal(size=(4, 2)))], shared)


class TestCalibration:
    """The sampled se is calibrated: over 40 seeds, z = (estimate - exact) /
    se has a spread near 1 and a mean near 0.  Each exact reference is auto's
    in-flat value; at j >= 3 auto is exact only for a nested pair."""

    @pytest.mark.parametrize("d,j,nested", [(3, 2, False), (4, 2, False), (4, 3, True)])
    def test_z_over_seeds(self, d, j, nested):
        rng = np.random.default_rng(d + 10 * j)
        if nested:
            a = flat_family(rng, d, j, 1, 8)[0]
            b = VPolytope(0.6 * a.vertices + 0.4 * a.vertices.mean(axis=0))
        else:
            a, b = flat_family(rng, d, j, 2, 6)
        exact = delta_j(a, b, j, SamplingPlan(seed=0))
        assert exact.exact and exact.value > 0.0
        if not nested:  # overlapping, and neither holds the other
            va, vb = (intrinsic_volume(body, j, SamplingPlan(seed=0)).value for body in (a, b))
            assert abs(va - vb) < exact.value < va + vb
        z = []
        for seed in range(40):
            est = delta_j(a, b, j, SamplingPlan(n_subspaces=25, n_points=300, seed=seed,
                                                mode="monte_carlo"))
            assert not est.exact and est.std_error > 0.0
            z.append((est.value - exact.value) / est.std_error)
        assert 0.7 <= float(np.std(z, ddof=1)) <= 1.4
        assert abs(float(np.mean(z))) <= 0.5


class TestTinyBodies:
    """hull_2d tests each turn against the rounding error of its own cross
    product, and polygon_clip measures collinearity against the point set's
    own extent, so a body keeps its hull at every scale."""

    def test_triangle_area(self):
        s = 1e-7
        tri = np.array([[0.0, 0.0], [s, 0.0], [0.0, s]])
        assert exact_volume(tri, 2) == pytest.approx(s * s / 2.0, rel=1e-12)
        # in a tilted plane through the origin, where its coordinates carry
        # rounding relative to s alone
        est = delta_j(VPolytope(tri @ TILT.T), None, 2, SamplingPlan(seed=1))
        assert est.exact and est.value == pytest.approx(s * s / 2.0, rel=1e-12)

    def test_tetrahedron_v2_is_half_its_surface(self):
        s = 1e-6
        tet = VPolytope(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                  [0.0, 1.0, 1.0]]) * (s / math.sqrt(2.0)))
        est = intrinsic_volume(tet, 2, SamplingPlan(n_subspaces=400, seed=1))
        half_surface = math.sqrt(3.0) * s * s / 2.0  # four faces of area sqrt(3)/4 s^2
        assert abs(est.value - half_surface) <= 4.0 * est.std_error

    def test_tetrahedron_v2_by_box_monte_carlo(self):
        # box MC tests membership at a tolerance scaled by the projected
        # body's extent; an absolute 1e-12 counted far points as hits and
        # read 3.338e-12 +- 1.8e-14
        tet = VPolytope(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                  [0.0, 1.0, 1.0]]) * 1e-6)
        est = intrinsic_volume(tet, 2, SamplingPlan(n_subspaces=200, n_points=2000, seed=1,
                                                    mode="monte_carlo"))
        assert abs(est.value - math.sqrt(3.0) * 1e-12) <= 4.0 * est.std_error

    @pytest.mark.parametrize("seed", range(5))
    def test_rings_scale_exactly(self, seed):
        # scaling by a power of two is exact, and so is every decision
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(30, 2))
        pts[:5] = pts[5] + np.outer(np.linspace(0.1, 0.5, 5), pts[6] - pts[5])  # collinear
        other = rng.uniform(-1.0, 1.0, size=(12, 2))
        ring, clip = bodies.hull_2d(pts), bodies.hull_2d(other)
        inter = bodies.polygon_clip(ring, clip)
        for k in (-60, -30, 30):
            f = 2.0**k
            assert np.array_equal(bodies.hull_2d(pts * f), ring * f)
            assert np.array_equal(bodies.polygon_clip(ring * f, clip * f), inter * f)

    def test_tiny_solid_keeps_its_rank(self):
        # the rank test has no unit: 1e-12 * max(1, sv_max) read this solid
        # as a flat of rank < 2 and V_2 as an exact 0.0
        s = 2.0**-47
        k = np.random.default_rng(3).normal(size=(12, 3))
        plan = SamplingPlan(n_subspaces=20, seed=1)
        tiny, unit = VPolytope(s * k), VPolytope(k)
        est, ref = intrinsic_volume(tiny, 2, plan), intrinsic_volume(unit, 2, plan)
        assert tiny._chart.dim == 3 and not est.exact and est.n_subspaces == 20
        assert [f for _, f in est.per_subspace] == [s * s * f for _, f in ref.per_subspace]

    def test_tiny_square_is_exact(self):
        s = 2.0**-40
        est = intrinsic_volume(VPolytope(s * unit_cube(3, 2).vertices), 2, SamplingPlan(seed=1))
        assert est.exact and est.value == 2.0**-80


class TestDegenerateOperands:
    """Operands that span no j-flat: every projection has j-measure zero, so
    the value is an exact 0 at every j, with no subspace drawn below j = d."""

    SEG3 = [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]
    TRI3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    TRI4 = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 1.0]]
    SEG4A = [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    SEG4B = [[0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 3.0]]

    @pytest.mark.parametrize("a,b,j", [(SEG3, None, 2), (TRI4, None, 3), (SEG4A, SEG4B, 3),
                                       (SEG3, TRI3, 3)])
    def test_exact_zero(self, a, b, j):
        est = delta_j(VPolytope(a), None if b is None else VPolytope(b), j,
                      SamplingPlan(n_subspaces=50, seed=1))
        drawn = int(j == len(a[0]))  # at j = d the one subspace is the whole space
        assert est == MetricEstimate(0.0, 0.0, drawn, 0, exact=True,
                                     per_subspace=((0, 0.0),) * drawn)


class TestOneDegenerateOperand:
    """An operand that spans no j-flat counts as the empty set: its
    projections have j-measure zero, so delta_j(S, T) = V_j(T)."""

    SEG3 = VPolytope([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    TRI3 = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    SEG4 = VPolytope([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
    TET4 = VPolytope(np.vstack([np.zeros(4), np.eye(4)[:3]]))  # conv(0, e1, e2, e3)

    def test_against_a_flat_body_is_exact(self):
        # sampled, these read 0.49484 +- 0.0046 at 4000 planes and
        # 0.1664 +- 0.0102 in box Monte Carlo at 200 x 500
        for seg, body, j, value in ((self.SEG3, self.TRI3, 2, 0.5),
                                    (self.SEG4, self.TET4, 3, 1.0 / 6.0)):
            for a, b in ((seg, body), (body, seg)):
                est = delta_j(a, b, j, SamplingPlan(n_subspaces=200, n_points=500, seed=1))
                assert est.exact and est.n_subspaces == 0 and est.std_error == 0.0
                assert est.value == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 3)])
    def test_against_a_solid_equals_its_intrinsic_volume(self, d, j):
        body = VPolytope(np.random.default_rng(d).normal(size=(9, d)))
        seg = VPolytope(np.random.default_rng(j).normal(size=(2, d)))
        plan = SamplingPlan(n_subspaces=40, n_points=200, seed=3)
        v_j = intrinsic_volume(body, j, plan)
        assert not v_j.exact
        assert delta_j(seg, body, j, plan) == v_j == delta_j(body, seg, j, plan)


class TestKubotaCrossCheck:
    """flag(d, j) E_H |det(H^T Q)| = 1 for any orthonormal d x j frame Q: the
    identity behind the exact flat path, which no longer samples it, and the
    monte_carlo lane, which still does."""

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 2), (4, 3), (5, 3), (8, 2), (8, 7)])
    def test_flag_scaled_mean_det_is_one(self, d, j):
        q = gram_schmidt(np.random.default_rng(10 * d + j).normal(size=(d, j)))
        frames = haar_frames(d, j, 1, np.arange(20_000))
        mean, se = flag_scaled_mean(np.abs(np.linalg.det(np.swapaxes(frames, 1, 2) @ q)), d, j)
        assert abs(mean - 1.0) <= 4.0 * se

    def test_monte_carlo_mode_polygons(self):
        a, b, _, _ = tilted_pair(3)
        exact = delta_j(a, b, 2, SamplingPlan(seed=3))
        mc = delta_j(a, b, 2, SamplingPlan(n_subspaces=400, n_points=2000, seed=3,
                                           mode="monte_carlo"))
        assert exact.exact and not mc.exact and mc.n_subspaces == 400
        assert abs(mc.value - exact.value) <= 4.0 * mc.std_error

    def test_monte_carlo_mode_nested_solids(self):
        a, b, _, _ = tilted_solids(2)
        exact = delta_j(a, b, 3, SamplingPlan(seed=2))
        mc = delta_j(a, b, 3, SamplingPlan(n_subspaces=200, n_points=2000, seed=2,
                                           mode="monte_carlo"))
        assert exact.exact and not mc.exact and mc.n_subspaces == 200
        assert abs(mc.value - exact.value) <= 4.0 * mc.std_error


class TestIntrinsicVolume:
    def test_top_volume_cube(self, cube3):
        est = intrinsic_volume(cube3, 3, SamplingPlan(n_points=50_000, seed=0))
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_segment_length(self):
        # a segment is flat at j = 1: V_1 is its length, and the Kubota
        # average it replaces, flag(3, 1) E|cos|, is 1 by quadrature
        seg = VPolytope([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        plan = SamplingPlan(n_subspaces=4000, seed=42)
        est = intrinsic_volume(seg, 1, plan)
        oracle = 2.0 * 5.0 * grassmann_line_average_oracle()
        assert oracle == pytest.approx(5.0, abs=1e-6)
        assert flag_coefficient(3, 1) == 2.0
        assert est.exact and est.n_subspaces == 0
        assert est.value == pytest.approx(5.0, rel=1e-12)

    def test_embedding_invariance(self):
        plan = SamplingPlan(n_subspaces=2000, seed=8)
        est = intrinsic_volume(unit_cube(3, 2), 2, plan)
        assert est.exact and est.std_error == 0.0
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_shares_bits_with_empty_distance(self, cube3):
        # thm3 takes its a0, the base's distance to the empty set, from
        # intrinsic_volume: flat and solid bodies, exact and sampled paths
        for mode in ("auto", "monte_carlo"):
            plan = SamplingPlan(n_subspaces=60, n_points=200, seed=21, mode=mode)
            for body in (cube3, unit_cube(4, 3), unit_cube(4, 4)):
                for j in (2, 3):
                    a = intrinsic_volume(body, j, plan)
                    b = delta_j(body, None, j, plan)
                    assert a.value == b.value and a.std_error == b.std_error
                    assert a.per_subspace == b.per_subspace

    def test_solid_at_j3_takes_a_qhull_volume_per_sample(self, monkeypatch):
        # a single operand that spans more than a j-flat at 3 <= j < d: each
        # projection's volume is its chart's qhull volume, and no box is drawn
        draws = []
        monkeypatch.setattr(oracles, "_uniform_rows",
                            lambda *args, f=oracles._uniform_rows: draws.append(1) or f(*args))
        cube = unit_cube(4, 4)
        est = intrinsic_volume(cube, 3, SamplingPlan(n_subspaces=200, seed=1))
        assert draws == []
        assert not est.exact and est.n_subspaces == 200 and est.n_points_per_subspace == 0
        assert abs(est.value - 4.0) <= 4.0 * est.std_error  # V_3 of the unit 4-cube: binom(4, 3)
        frames = haar_frames(4, 3, 1, np.arange(200))
        centred = cube.vertices - box_centre(cube.vertices)
        assert [f for _, f in est.per_subspace] == [exact_volume(centred @ q, 3)
                                                    for q in frames]

    def test_solid_at_j3_in_monte_carlo_mode_keeps_its_boxes(self):
        cube = unit_cube(4, 4)
        est = intrinsic_volume(cube, 3, SamplingPlan(n_subspaces=20, n_points=300, seed=1,
                                                     mode="monte_carlo"))
        frames = haar_frames(4, 3, 1, np.arange(20))
        centred = cube.vertices - box_centre(cube.vertices)
        boxes = [mc_volume(centred @ q, 3, 300, RngStream(1, 2 * i + 1))[0]
                 for i, q in enumerate(frames)]
        assert [f for _, f in est.per_subspace] == boxes and est.n_points_per_subspace == 300
        assert (est.value, est.std_error) == (4.010105165351053, 0.0975318648125895)


def diameter(*operands: VPolytope) -> float:
    v = np.vstack([x.vertices for x in operands])
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))


def shrunk(body: VPolytope) -> VPolytope:
    v = body.vertices
    return VPolytope(0.6 * v + 0.4 * v.mean(axis=0))


def translation_bodies():
    """name -> (K, j): K spans an affine j-flat, coordinate or oblique."""
    rng = np.random.default_rng(11)
    tilt2 = gram_schmidt(rng.normal(size=(4, 2)))
    tilt3 = gram_schmidt(rng.normal(size=(5, 3)))
    zono3 = rng.normal(size=(5, 3)) @ tilt3.T
    polygon = VPolytope(random_convex_polygon(rng).vertices @ tilt2.T + rng.normal(size=4))
    return {
        "square in R3": (unit_cube(3, 2), 2),
        "cube in R4": (unit_cube(4, 3), 3),
        "solid in R3": (VPolytope(rng.normal(size=(12, 3))), 3),
        "zonotope in a coordinate 2-flat of R3": (
            zonotope(np.c_[rng.normal(size=(4, 2)), np.zeros(4)]), 2),
        "zonotope in an oblique 2-flat of R4": (zonotope(rng.normal(size=(4, 2)) @ tilt2.T), 2),
        "polygon in an oblique 2-flat of R4": (polygon, 2),
        "zonotope in an oblique 3-flat of R5": (zonotope(zono3), 3),
    }


TRANSLATIONS = (1e4, 1e6, 1e8, 1e10)  # |t| / diam


def moved(body: VPolytope, t: np.ndarray) -> VPolytope:
    return VPolytope(body.vertices + t)


def assert_moved_within(value: float, at_origin: float, ratio: float) -> None:
    """64 (|t| / diam) eps relative: the rounding of offsets from a point
    |t| from the origin, with room for the arithmetic after it."""
    assert abs(value - at_origin) <= 64.0 * ratio * np.finfo(float).eps * abs(at_origin)


class TestTranslation:
    """delta_j, V_j and hausdorff do not change under translation, and every
    chart and projection measures offsets from the centre of the vertex box:
    a body moved |t| = ratio * diam keeps its values to 64 ratio eps
    relative, its exact flags and its chart's rank."""

    @staticmethod
    def shift(d: int, length: float) -> np.ndarray:
        u = np.array([1.0, -0.5, 1.0 / 3.0, 0.25, -0.2])[:d]
        return length * u / np.linalg.norm(u)

    @pytest.mark.parametrize("name", list(translation_bodies()))
    def test_exact_values(self, name):
        body, j = translation_bodies()[name]
        inner = shrunk(body)
        led = VPolytope(np.vstack([inner.vertices, body.vertices]))
        plan = SamplingPlan(seed=1)
        pairs = [(body, None), (body, inner), (led, inner)]
        at_origin = delta_j_stack(pairs, j, plan)
        assert all(est.exact for est in at_origin) and body._chart.dim == j
        scale = diameter(body)
        for ratio in TRANSLATIONS:
            t = self.shift(body.ambient_dim, ratio * scale)
            there = [(moved(a, t), b if b is None else moved(b, t)) for a, b in pairs]
            for est, ref in zip(delta_j_stack(there, j, plan), at_origin):
                assert est.exact and est.n_subspaces == ref.n_subspaces
                assert_moved_within(est.value, ref.value, ratio)
            assert there[0][0]._chart.dim == there[1][1]._chart.dim == j

    def test_zonotope_volumes_are_exact(self):
        # the flat zonotopes' V_j at t = 0 is McMullen's sum
        rng = np.random.default_rng(11)
        for d, j in ((3, 2), (4, 3), (5, 3)):
            g = rng.normal(size=(5, j)) @ gram_schmidt(rng.normal(size=(d, j))).T
            est = intrinsic_volume(zonotope(g), j, SamplingPlan())
            assert est.exact and est.value == pytest.approx(zonotope_volume(g, j), rel=1e-12)

    @pytest.mark.parametrize("kind", ["random", "zonotope"])
    def test_sampled_values_per_plane(self, kind):
        rng = np.random.default_rng(3)
        body = VPolytope(rng.normal(size=(12, 3)) if kind == "random"
                         else zonotope(rng.normal(size=(5, 3))).vertices)
        other = VPolytope(rng.normal(size=(10, 3)) + 0.3)
        plan = SamplingPlan(n_subspaces=50, seed=1)
        pairs = [(body, None), (body, shrunk(body)), (body, other)]
        at_origin = delta_j_stack(pairs, 2, plan)
        scale = diameter(body, other)
        for ratio in TRANSLATIONS:
            t = self.shift(3, ratio * scale)
            there = delta_j_stack([(moved(a, t), b if b is None else moved(b, t))
                                   for a, b in pairs], 2, plan)
            for est, ref in zip(there, at_origin):
                assert not est.exact and est.n_subspaces == plan.n_subspaces
                for (_, value), (_, base) in zip(est.per_subspace, ref.per_subspace):
                    assert_moved_within(value, base, ratio)

    @pytest.mark.parametrize("name", list(translation_bodies()))
    def test_hausdorff(self, name):
        body, _ = translation_bodies()[name]
        d = body.ambient_dim
        other = VPolytope(np.random.default_rng(5).normal(size=(8, d)))
        pairs = [(body, shrunk(body)), (body, other)]
        at_origin = [hausdorff(a, b) for a, b in pairs]
        scale = diameter(body, other)
        for ratio in TRANSLATIONS:
            t = self.shift(d, ratio * scale)
            for (a, b), ref in zip(pairs, at_origin):
                assert_moved_within(hausdorff(moved(a, t), moved(b, t)), ref, ratio)

    @pytest.mark.parametrize("length", [1e5, 1e6, 1e12])
    def test_far_oblique_square_keeps_its_rank(self, length):
        # the rank test allows for the rounding of the coordinates, n eps
        # max|v|: against 1e-12 * sv_max alone this side-2 square read rank 3
        # from |t| = 1e5 and its delta_2 to the centred unit copy was sampled
        frame = gram_schmidt(np.random.default_rng(0).normal(size=(4, 2)))
        square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) @ frame.T
        t = self.shift(4, length)
        big, unit = VPolytope(square + t), VPolytope(0.5 * square + t)
        est = delta_j(big, unit, 2, SamplingPlan(n_subspaces=200, seed=1))
        assert big._chart.dim == unit._chart.dim == 2 and est.exact
        assert_moved_within(est.value, 3.0, length / diameter(big))


SCALES = (-60, -47, -27, -13, -1, 1, 17, 31, 45, 60)  # s = 2^k


def scaled(body: VPolytope, k: int) -> VPolytope:
    return VPolytope(np.ldexp(body.vertices, k))


def scale_bodies():
    """name -> (K, j): random polytopes in R^2..R^5 at j = d, zonotopes and
    cubes, solid and in a coordinate or oblique j-flat."""
    rng = np.random.default_rng(17)
    tilt2 = gram_schmidt(rng.normal(size=(4, 2)))
    out = {f"random solid in R{d}": (VPolytope(rng.normal(size=(3 * d, d))), d)
           for d in (2, 3, 4, 5)}
    out.update({
        "zonotope in R3": (zonotope(rng.normal(size=(5, 3))), 3),
        "zonotope in an oblique 2-flat of R4": (zonotope(rng.normal(size=(4, 2)) @ tilt2.T), 2),
        "square in R3": (unit_cube(3, 2), 2),
        "cube in R3": (unit_cube(3, 3), 3),
        "cube in R4": (unit_cube(4, 3), 3),
    })
    return out


def scale_misses(got, ref, factor: float, rel: float = 0.0) -> bool:
    """Whether got differs from factor * ref: bit for bit (signs of zero
    included) when rel is 0, else by more than rel times the largest |ref|."""
    got, want = np.asarray(got, dtype=float), factor * np.asarray(ref, dtype=float)
    if rel == 0.0:
        return got.shape != want.shape or got.tobytes() != want.tobytes()
    return bool(np.any(np.abs(got - want) > rel * np.max(np.abs(want), initial=0.0)))


class TestScale:
    """Every answer scales with the bodies: a body scaled by s = 2^k, k in
    [-60, 60], has its distances, chords and membership scaled by s and its
    j-volumes by s^j, bit for bit, since every tolerance is a multiple of
    the body's own extent and scaling by a power of two is exact.  Only
    what qhull computes, at j >= 3, is held to a relative bound: its facet
    equations for points scaled by 2^k, k <= -27, differ from the unit
    ones in the last bits, so its volumes are held to 1e-15 relative and
    the chords on its facets to 1e-14 of the largest chord end (2.1e-15
    seen).  Each test collects the (body, k) that miss."""

    def test_hausdorff_and_distances(self):
        misses = []
        for name, (body, _) in scale_bodies().items():
            d = body.ambient_dim
            rng = np.random.default_rng(d)
            other = VPolytope(rng.normal(size=(8, d)) + 0.3)
            probes = np.vstack([other.vertices, shrunk(body).vertices[:3]])
            ref = [hausdorff(body, other), hausdorff(other, body), hausdorff(body, shrunk(body))]
            ref_dist = [distance_to_hull(p, body) for p in probes]
            for k in SCALES:
                s = 2.0**k
                a, b = scaled(body, k), scaled(other, k)
                got = [hausdorff(a, b), hausdorff(b, a), hausdorff(a, scaled(shrunk(body), k))]
                dist = [distance_to_hull(s * p, a) for p in probes]
                if scale_misses(got, ref, s) or scale_misses(dist, ref_dist, s):
                    misses.append((name, k))
        assert misses == []

    def test_membership_and_chords(self):
        misses = []
        for name, (body, j) in scale_bodies().items():
            d = body.ambient_dim
            rng = np.random.default_rng(d)
            lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
            pts = np.vstack([body.vertices, lo + rng.uniform(-0.2, 1.2, size=(60, d)) * (hi - lo)])
            u = rng.normal(size=d)
            ref_in = contains(body, pts)
            ref_lo, ref_hi, ref_empty = line_fibers(body, pts, u)
            assert ref_in.any() and not ref_in.all()
            rel = 1e-14 if j >= 3 else 0.0  # chords on qhull's facets
            for k in SCALES:
                s = 2.0**k
                a = scaled(body, k)
                c_lo, c_hi, c_empty = line_fibers(a, s * pts, u)
                if (not np.array_equal(contains(a, s * pts), ref_in)
                        or not np.array_equal(c_empty, ref_empty)
                        or scale_misses(c_lo, ref_lo, s, rel)
                        or scale_misses(c_hi, ref_hi, s, rel)):
                    misses.append((name, k))
        assert misses == []

    def test_exact_values(self):
        # a flat pair that is not nested (the body and its copy moved a
        # quarter of an edge inside its flat) is clipped in its own chart
        misses = []
        plan = SamplingPlan(seed=1)
        for name, (body, j) in scale_bodies().items():
            inner = shrunk(body)
            led = VPolytope(np.vstack([inner.vertices, body.vertices]))
            pairs = [(body, None), (body, inner), (led, inner)]
            if j <= 2:
                v = body.vertices
                pairs.append((body, VPolytope(v + 0.25 * (v[1] - v[0]))))
            ref = delta_j_stack(pairs, j, plan)
            assert all(est.exact for est in ref)
            rel = 1e-15 if j >= 3 else 0.0  # qhull volumes
            for k in SCALES:
                got = delta_j_stack([tuple(x if x is None else scaled(x, k) for x in pair)
                                     for pair in pairs], j, plan)
                if (not all(est.exact for est in got)
                        or scale_misses([e.value for e in got], [e.value for e in ref],
                                        2.0 ** (k * j), rel)):
                    misses.append((name, k))
        assert misses == []

    @pytest.mark.parametrize("mode", ["auto", "monte_carlo"])
    def test_sampled_values_per_plane(self, mode):
        # j = 2 in R^3: exact per sample under auto, box Monte Carlo per
        # plane in monte_carlo mode; j = 3 in R^4: box Monte Carlo for the
        # pair, and under auto qhull's volume for the single operand
        misses = []
        plan = SamplingPlan(n_subspaces=12, n_points=200, seed=1, mode=mode)
        rng = np.random.default_rng(5)
        for body, j in ((VPolytope(rng.normal(size=(12, 3))), 2),
                        (zonotope(rng.normal(size=(5, 3))), 2),
                        (VPolytope(rng.normal(size=(14, 4))), 3),
                        (zonotope(rng.normal(size=(5, 4))), 3)):
            other = VPolytope(rng.normal(size=(10, body.ambient_dim)) + 0.3)
            pairs = [(body, None), (body, shrunk(body)), (body, other)]
            ref = delta_j_stack(pairs, j, plan)
            for k in SCALES:
                got = delta_j_stack([(scaled(a, k), b if b is None else scaled(b, k))
                                     for a, b in pairs], j, plan)
                for (a, b), est, base in zip(pairs, got, ref):
                    rel = 1e-15 if j >= 3 and b is None and mode == "auto" else 0.0
                    if scale_misses([f for _, f in est.per_subspace],
                                    [f for _, f in base.per_subspace], 2.0 ** (k * j), rel):
                        misses.append((body.n_vertices, j, b is None, k))
        assert misses == []

    def test_std_error_does_not_overflow(self):
        # the spread of values near 2^600 is taken on values scaled back to
        # about 1: squaring them as they are overflows to an se of inf
        body = VPolytope(np.random.default_rng(2).normal(size=(12, 3)))
        plan = SamplingPlan(n_subspaces=20, seed=1)
        ref = intrinsic_volume(body, 2, plan)
        est = intrinsic_volume(scaled(body, 300), 2, plan)
        assert math.isfinite(est.std_error) and est.std_error > 0.0
        assert (est.value, est.std_error) == (2.0**600 * ref.value, 2.0**600 * ref.std_error)


class TestOutOfFlatWitnesses:
    """delta_2 at (3, 2) to K, the unit square at z = 0, of bodies that reach
    a point at distance L: each value is pinned to a closed form or to a
    bound, sampled ones within 4 standard errors over 1000 planes."""

    SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    PLAN = SamplingPlan(n_subspaces=1000, seed=1)

    @pytest.mark.parametrize("L", [4.0, 16.0, 64.0])
    def test_pyramid(self, L):
        # nested: delta_2 = V_2(P_L) - V_2(K), and V_2 of a solid is half its
        # surface, here 1 + 4 triangles of base 1 and slant height sqrt(L^2 + 1/4)
        pyramid = VPolytope(np.vstack([self.SQUARE, [0.5, 0.5, L]]))
        est = delta_j(pyramid, VPolytope(self.SQUARE), 2, self.PLAN)
        assert not est.exact and est.n_subspaces == 1000
        assert abs(est.value - (math.sqrt(L * L + 0.25) - 0.5)) <= 4.0 * est.std_error

    @pytest.mark.parametrize("L", [4.0, 16.0, 64.0])
    def test_apex_in_the_plane(self, L):
        # flat and nested: the hull adds the triangle (1, 0), (L, 1/2), (1, 1)
        hull = VPolytope(np.vstack([self.SQUARE, [L, 0.5, 0.0]]))
        est = delta_j(hull, VPolytope(self.SQUARE), 2, self.PLAN)
        assert est.exact and est.n_subspaces == 0 and est.value == (L - 1.0) / 2.0

    @pytest.mark.parametrize("L", [4.0, 16.0, 64.0])
    def test_thin_tilted_triangle(self, L):
        # through the empty set, |delta_2(T_L, K) - V_2(K)| <= V_2(T_L), the
        # exact area of T_L, which falls like 1 / (2L)
        tri = VPolytope([[0.0, 0.0, 0.0], [1.0 / L**2, 0.0, 0.0], [0.5, 0.5, L]])
        area = intrinsic_volume(tri, 2, self.PLAN)
        assert area.exact and area.value == pytest.approx(
            0.5 * math.sqrt(1.0 / L**2 + 0.25 / L**4), rel=1e-12)
        est = delta_j(tri, VPolytope(self.SQUARE), 2, self.PLAN)
        assert not est.exact
        assert abs(est.value - 1.0) <= area.value + 4.0 * est.std_error


class TestHausdorff:
    def test_identity(self, square2):
        assert hausdorff(square2, square2) == 0.0

    def test_translation(self, square2):
        t = np.array([0.6, -0.2])
        assert hausdorff(square2, square2.translate(t)) \
            == pytest.approx(float(np.linalg.norm(t)), abs=1e-9)

    def test_nested_squares(self, square2):
        big = VPolytope([[0, 0], [2, 0], [2, 2], [0, 2.0]])
        assert hausdorff(square2, big) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        a = VPolytope(rng.uniform(-1, 1, size=(7, 3)))
        b = VPolytope(rng.uniform(-1, 1, size=(7, 3)))
        assert hausdorff(a, b) == hausdorff(b, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (VPolytope(rng.uniform(-1, 1, size=(6, 2))) for _ in range(3))
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 3e-9

    def test_rejects_mixed_dimensions(self, square2, cube3):
        with pytest.raises(ValueError, match="dimensions"):
            hausdorff(square2, cube3)

    @staticmethod
    def exhaustive(a: VPolytope, b: VPolytope) -> float:
        return max(max(distance_to_hull(v, b) for v in a.vertices),
                   max(distance_to_hull(w, a) for w in b.vertices))

    @staticmethod
    def random_pair(rng: np.random.Generator, kind: int) -> tuple[VPolytope, VPolytope]:
        d = int(rng.integers(2, 7))
        a = VPolytope(rng.normal(size=(int(rng.integers(3, 12)), d)))
        if kind == 0:  # independent
            return a, VPolytope(rng.normal(size=(int(rng.integers(3, 12)), d)))
        if kind == 1:  # shared vertices
            return a, VPolytope(np.vstack([a.vertices[:3], rng.normal(size=(4, d))]))
        if kind == 2:  # nested
            return a, VPolytope(0.3 * a.vertices + 0.1)
        if kind == 3:  # identical
            return a, a
        if kind == 4:  # translated copy: every vertex distance ties up to rounding
            return a, a.translate(rng.normal(size=d) * 10.0 ** rng.uniform(-3, 2))
        if kind == 5:  # lower-dimensional body
            v = rng.normal(size=(6, d))
            v[:, int(rng.integers(1, d)):] = 0.0
            return a, VPolytope(v)
        if kind == 6:  # far apart
            return a, VPolytope(rng.normal(size=(8, d)) + 50.0 * rng.normal(size=d))
        cube = unit_cube(d, d)  # translated cube: ties between symmetric vertices
        return cube, cube.translate(rng.choice([-1.0, 0.0, 1.0], size=d) * rng.uniform(0.1, 3))

    def test_bitwise_equals_exhaustive_scan(self):
        rng = np.random.default_rng(2024)
        for trial in range(240):
            a, b = self.random_pair(rng, trial % 8)
            assert hausdorff(a, b) == self.exhaustive(a, b), trial

    def test_tied_vertices_are_still_solved(self, square2):
        # every vertex lies 0.05 * sqrt(2) from the other square, but the
        # solves and the bounds round differently in the last bits
        b = square2.translate([-0.05, 0.05])
        assert hausdorff(square2, b) == self.exhaustive(square2, b)

    def test_bounds_only_for_uncertified_vertices(self, monkeypatch):
        rows = []
        original = metrics._nearest_vertex_distances
        monkeypatch.setattr(metrics, "_nearest_vertex_distances",
                            lambda p, v: rows.append(len(p)) or original(p, v))
        rng = np.random.default_rng(5)
        a, b = VPolytope(rng.normal(size=(300, 3))), VPolytope(rng.normal(size=(200, 3)))
        hausdorff(a, b)  # fresh 3-D charts build no hull, so they certify no vertex
        assert sum(rows) == a.n_vertices + b.n_vertices
        assert "hull" not in vars(a._chart) and "hull" not in vars(b._chart)
        rows.clear()
        for body in (a, b):  # hulls held, as a volume builds them: the certificate decides
            body._chart.hull
        left = sum(int(np.count_nonzero(~y._chart.certified(x.vertices)[1]))
                   for x, y in ((a, b), (b, a)))
        assert hausdorff(a, b) == self.exhaustive(a, b)
        assert sum(rows) == left < a.n_vertices + b.n_vertices
        rows.clear()
        base, plane, x0, u = unit_cube_body(3, 2)  # flat bodies: every vertex certified
        for _, body in thm1_sequence(base, plane, x0, u, 2.0, 4):
            hausdorff(body, base)
        assert sum(rows) == 0

    @pytest.mark.parametrize("d,j,solves", [(3, 2, 0), (4, 3, 0), (5, 4, 6), (6, 5, 8)])
    def test_solves_only_vertices_that_can_set_the_maximum(self, monkeypatch, d, j, solves):
        # the facets settle every vertex of a 2-D chart as it is, and of a
        # 3-D one whose hull is held, as run_thm1 holds every row hull; above
        # that, with no hull held, Wolfe runs for the needle tips only
        calls = []
        original = bodies._min_norm_point
        monkeypatch.setattr(bodies, "_min_norm_point",
                            lambda *args: calls.append(1) or original(*args))
        base, plane, x0, u = unit_cube_body(d, j)
        for _, body in thm1_sequence(base, plane, x0, u, 2.0, 6):
            if j <= 3:
                body._chart.hull, base._chart.hull
            calls.clear()
            hausdorff(body, base)
            assert len(calls) == solves
            calls.clear()
            assert hausdorff(body, body) == 0.0 and not calls


class TestFiberProfile:
    def canonical_instance(self, length=8.0, eps=0.01):
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        plane = full_space(2)
        x0 = np.array([0.5, 0.5])
        u = np.array([1.0, 0.0])
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=length, eps=eps, kind="prism")
        grown = augment(square, prism_needle(spec))
        tube = VPolytope(x0 + cross_section(plane, u, eps).vertices)
        return square, grown, plane, u, tube

    def test_equal_bodies_all_zero(self, square2):
        prof = fiber_profile(square2, square2, full_space(2),
                             np.array([1.0, 0.0]), grid_n=20)
        assert np.all(prof.diff_length == 0.0)
        assert prof.diff_measure == 0.0

    def test_bridging_mass_escapes_tube(self):
        square, grown, plane, u, tube = self.canonical_instance()
        prof = fiber_profile(grown, square, plane, u, grid_n=100, tube=tube)
        near = (0.88 < prof.y[:, 0]) & (prof.y[:, 0] < 0.92)
        assert np.any(near & (prof.diff_length > 0) & ~prof.in_tube)
        assert prof.diff_measure_outside_tube > 0.0
        assert prof.tube_measure == pytest.approx(0.02, abs=1e-9)

    def test_fiber_differences_bounded_by_axial_extent(self):
        square, grown, plane, u, tube = self.canonical_instance()
        prof = fiber_profile(grown, square, plane, u, grid_n=100, tube=tube)
        assert np.max(prof.diff_length) <= 8.0 + 2e-9

    def test_containment_enforced(self, square2):
        outside = VPolytope([[5.0, 5.0], [6.0, 5.0], [6.0, 6.0]])
        with pytest.raises(ValueError):
            fiber_profile(square2, outside, full_space(2), np.array([1.0, 0.0]), 10)

    @staticmethod
    def count_qhull(monkeypatch) -> list:
        calls = []
        original = bodies._qhull
        monkeypatch.setattr(bodies, "_qhull", lambda verts: calls.append(1) or original(verts))
        return calls

    def test_containment_verdicts_build_no_hull(self, monkeypatch):
        # containment is a distance question: the outer body's certificate
        # where its chart has facets, else the bounded Wolfe scan; over a
        # 2-plane the chords need no qhull either
        calls = self.count_qhull(monkeypatch)
        for d in (3, 4):
            cube, h, u = unit_cube(d, d), axis_subspace(d, [0, 1]), np.eye(d)[0]
            fiber_profile(cube, VPolytope(0.5 * cube.vertices + 0.25), h, u, 8)
            fiber_profile(cube, cube, h, u, 8)  # leading rows: no check
            with pytest.raises(ValueError, match="not contained"):
                fiber_profile(cube, cube.translate(np.full(d, 0.1)), h, u, 8)
        assert calls == []

    def test_reversed_rows_build_no_hull(self, monkeypatch):
        # the grown 6-cube with the cube's rows reversed, so no rows lead:
        # each inner vertex is an outer vertex, at nearest-vertex bound 0, so
        # no solve and no hull, and the profile is the one of the cube in its
        # own order, whose rows lead and take no check at all
        d = 6
        cube, u = unit_cube(d, d), np.eye(d)[0]
        spec = NeedleSpec(x0=np.full(d, 0.5), u=u, plane=full_space(d), length=8.0, eps=0.01,
                          kind="prism")
        grown = augment(cube, prism_needle(spec))
        h = haar_sample(d, 2, RngStream(1, metrics.AUX_STREAM_BASE))
        calls = self.count_qhull(monkeypatch)
        prof = fiber_profile(grown, VPolytope(cube.vertices[::-1]), h, u, 400)
        assert calls == []
        ref = fiber_profile(grown, cube, h, u, 400)
        for field in dataclasses.fields(prof):
            assert np.array_equal(getattr(prof, field.name), getattr(ref, field.name))
        with pytest.raises(ValueError, match="not contained"):
            fiber_profile(grown, cube.translate(np.full(d, 0.1)), h, u, 400)
        assert calls == []

    def test_tube_off_every_grid_point_builds_no_hull(self, monkeypatch):
        # a 3-D tube image in a 4-D transverse grid, at a height of e5 that no
        # cell centre has: no grid point reaches its facets, so its hull is
        # never built, and only the two chord hulls are
        cube5 = unit_cube(5, 5)
        tube = VPolytope(np.c_[np.full(4, 0.5), 0.5 + 0.1 * np.eye(4, 3, -1), np.full(4, 0.5)])
        calls = self.count_qhull(monkeypatch)
        prof = fiber_profile(cube5, cube5, full_space(5), np.eye(5)[0], 10**4, tube=tube)
        assert len(calls) == 2 and not prof.in_tube.any() and prof.tube_measure == 0.0

    @pytest.mark.parametrize("d,grid_n", [(2, 0), (2, -3), (3, -8)])
    def test_grid_below_one_rejected(self, d, grid_n):
        # d = 3 has a 2-D transverse grid, where a negative size has a complex root
        body = unit_cube(d, d)
        with pytest.raises(ValueError, match=f"fiber grid size must be >= 1, got {grid_n}"):
            fiber_profile(body, body, full_space(d), np.eye(d)[0], grid_n)

    def test_needle_profile_exact(self):
        # grown = conv{(0,0), (1,0), (8.5,.49), (8.5,.51), (1,1), (0,1)}: its
        # chord at height y minus the square's is 7.5 min(y, .49, 1-y) / .49
        square, grown, plane, u, tube = self.canonical_instance()
        prof = fiber_profile(grown, square, plane, u, grid_n=400, tube=tube)
        y = prof.y[:, 0]
        assert np.allclose(y, (np.arange(400) + 0.5) / 400, rtol=0.0, atol=1e-15)
        exact = 7.5 * np.minimum(np.minimum(y, 1.0 - y), 0.49) / 0.49
        assert np.max(np.abs(prof.diff_length - exact) / exact) <= 1e-12
        assert np.array_equal(prof.in_tube, (y > 0.49) & (y < 0.51))
        assert prof.diff_measure == prof.cell_measure * 400 == 1.0
        assert prof.diff_measure_outside_tube == prof.cell_measure * 392

    def test_three_dim_tube_measure_is_exact(self):
        # a 3-D transverse grid of 10 cells per axis puts no cell centre in
        # this tube; its measure is the cross-polytope's volume (2 eps)^3 / 3!
        cube4 = unit_cube(4, 4)
        plane = full_space(4)
        u = np.eye(4)[0]
        x0 = np.full(4, 0.5)
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=5.0, eps=0.05, kind="prism")
        grown = augment(cube4, prism_needle(spec))
        tube = VPolytope(x0 + cross_section(plane, u, 0.05).vertices)
        prof = fiber_profile(grown, cube4, plane, u, grid_n=1000, tube=tube)
        assert prof.y.shape[1] == 3
        assert prof.tube_measure == pytest.approx(0.1 ** 3 / 6.0, rel=0.0, abs=1e-12)

    def test_three_dim_transverse_grid(self, cube3):
        # 2-D transverse grid: the needle's own fibers extend the cube's
        plane = full_space(3)
        u = np.array([1.0, 0.0, 0.0])
        x0 = np.full(3, 0.5)
        spec = NeedleSpec(x0=x0, u=u, plane=plane, length=5.0, eps=0.05, kind="prism")
        grown = augment(cube3, prism_needle(spec))
        tube = VPolytope(x0 + cross_section(plane, u, 0.05).vertices)
        prof = fiber_profile(grown, cube3, plane, u, grid_n=100, tube=tube)
        assert prof.y.shape[1] == 2
        assert prof.diff_measure > 0.0
        assert prof.tube_measure == pytest.approx(2 * 0.05 * 0.05, abs=1e-9)
        assert np.max(prof.diff_length) <= 5.0 + 2e-9
