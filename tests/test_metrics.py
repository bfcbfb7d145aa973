import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conftest import random_convex_polygon, unit_cube
from projmetrics import bodies, metrics, oracles
from projmetrics.bodies import VPolytope, distance_to_hull
from projmetrics.constructions import (
    NeedleSpec,
    augment,
    cross_section,
    prism_needle,
    thm1_sequence,
)
from projmetrics.experiments import CsvTable, ExperimentConfig
from projmetrics.experiments.runners import run_thm1, run_thm2, run_thm3, unit_cube_body
from projmetrics.grassmann import axis_subspace, full_space, haar_frames, haar_sample
from projmetrics.metrics import (
    MetricEstimate,
    SamplingPlan,
    _batch_values,
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
        # j = d >= 3 takes qhull's volume of each operand's vertex list as
        # given, so the bits follow that order, as in every coordinate flat
        # (in an oblique flat the sorted rows make them order-invariant:
        # TestFlatSolids.test_symmetry_bitwise);
        # this body's qhull volume takes three values over 20 orders
        verts = np.random.default_rng(20).uniform(-1.0, 1.0, size=(10, 3))
        inner = 0.6 * verts + 0.4 * verts.mean(axis=0)
        plan = SamplingPlan(seed=0)
        values = []
        for k in range(20):
            perm = np.random.default_rng(k).permutation(len(verts))
            vol_a = ConvexHull(verts[perm]).volume
            assert intrinsic_volume(VPolytope(verts[perm]), 3, plan).value == vol_a
            est = delta_j(VPolytope(verts[perm]), VPolytope(inner), 3, plan)
            assert est.exact and est.value == abs(vol_a - ConvexHull(inner).volume)
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
        loop = _batch_values((plan.seed, 0, plan.n_subspaces, 4, 3, a.vertices, b.vertices,
                              plan.n_points, False))
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
        # vertex row lies in its own hull
        calls = []
        original = bodies._in_facets
        monkeypatch.setattr(bodies, "_in_facets",
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
        v = np.array([[0.5, 3.0, 0.1, -2.0], [0.7, 3.0, 0.2, -2.0], [0.3, 3.0, 0.9, -2.0]])
        chart = VPolytope(v)._chart
        assert chart.dim == 2
        assert chart.origin.tolist() == [0.0, 3.0, 0.0, -2.0]
        assert chart.frame.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        assert chart.normal.tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        assert np.array_equal(chart.coords, v[:, [0, 2]])
        pts = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert chart.to_flat(pts).tolist() == [[1.0, 3.0]]
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
        for d in (3, 5):  # at d = 5 the certificate settles nothing: Wolfe for every row
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
        assert [f for _, f in est.per_subspace] == [exact_volume(cube.vertices @ q, 3)
                                                    for q in frames]

    def test_solid_at_j3_in_monte_carlo_mode_keeps_its_boxes(self):
        cube = unit_cube(4, 4)
        est = intrinsic_volume(cube, 3, SamplingPlan(n_subspaces=20, n_points=300, seed=1,
                                                     mode="monte_carlo"))
        frames = haar_frames(4, 3, 1, np.arange(20))
        boxes = [mc_volume(cube.vertices @ q, 3, 300, RngStream(1, 2 * i + 1))[0]
                 for i, q in enumerate(frames)]
        assert [f for _, f in est.per_subspace] == boxes and est.n_points_per_subspace == 300
        assert (est.value, est.std_error) == (4.010105179679052, 0.09753186506338186)


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
        # up to chart dimension 3 the facets settle every vertex; above it
        # Wolfe runs for the needle tips only
        calls = []
        original = bodies._min_norm_point
        monkeypatch.setattr(bodies, "_min_norm_point",
                            lambda *args: calls.append(1) or original(*args))
        base, plane, x0, u = unit_cube_body(d, j)
        for _, body in thm1_sequence(base, plane, x0, u, 2.0, 6):
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

    def test_containment_solves_only_uncertified_vertices(self, monkeypatch):
        calls = []
        original = bodies._min_norm_point
        monkeypatch.setattr(bodies, "_min_norm_point",
                            lambda *args: calls.append(1) or original(*args))
        u = np.array([1.0, 0.0, 0.0, 0.0])
        for d, solves in ((3, 0), (4, 16)):  # the 4-cube's chart certifies nothing
            cube = unit_cube(d, d)
            calls.clear()
            fiber_profile(cube, VPolytope(0.5 * cube.vertices + 0.25), full_space(d), u[:d], 8)
            assert len(calls) == solves
            calls.clear()
            fiber_profile(cube, cube, full_space(d), u[:d], 8)  # leading rows: no check
            assert calls == []
            with pytest.raises(ValueError):
                fiber_profile(cube, cube.translate(np.full(d, 0.1)), full_space(d), u[:d], 8)

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
