import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projmetrics.grassmann import Subspace, axis_subspace, goodness, goodness_stack, haar_sample
from projmetrics.numerics import (
    RankDeficiencyError,
    RngStream,
    ball_volume,
    flag_coefficient,
    gaussian_rows,
    gram_schmidt,
    needle_bound_constant,
    uniform_block,
)


def gamma_ball_volume(m: int) -> float:
    # independent oracle: closed-form Gamma evaluation
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


class TestBallVolume:
    def test_point_measure(self):
        assert ball_volume(0) == 1.0

    def test_frozen_values(self):
        assert ball_volume(2) == pytest.approx(3.1415926535897931, abs=1e-12)
        assert ball_volume(4) == pytest.approx(4.9348022005446793, abs=1e-12)

    @pytest.mark.parametrize("m", range(21))
    def test_matches_gamma_oracle(self, m):
        assert ball_volume(m) == pytest.approx(gamma_ball_volume(m), rel=1e-12)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_recursion(self, m):
        assert abs(ball_volume(m) - (2 * math.pi / m) * ball_volume(m - 2)) \
            < 1e-12 * ball_volume(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ball_volume(-1)


class TestFlagCoefficient:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_top_is_exactly_one(self, d):
        assert flag_coefficient(d, d) == 1.0

    def test_frozen_values(self):
        assert flag_coefficient(2, 1) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert flag_coefficient(3, 2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d,j", [(3, 0), (3, 4), (2, -1)])
    def test_domain_errors(self, d, j):
        with pytest.raises(ValueError):
            flag_coefficient(d, j)


class TestNeedleBoundConstant:
    def test_frozen_values(self):
        # flag(3,2) * vol_1 = 2 * 2, doubled for the two-sided variant
        assert needle_bound_constant(3, 2, "one_sided") == pytest.approx(4.0, abs=1e-12)
        assert needle_bound_constant(3, 2, "two_sided") == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("d,j", [(3, 2), (4, 2), (4, 3), (5, 3), (8, 7)])
    def test_two_sided_is_double(self, d, j):
        one = needle_bound_constant(d, j, "one_sided")
        assert needle_bound_constant(d, j, "two_sided") / one == 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            needle_bound_constant(3, 1)
        with pytest.raises(ValueError):
            needle_bound_constant(3, 2, "sideways")


class TestGramSchmidt:
    def test_identity_fixed(self):
        q = gram_schmidt(np.eye(3))
        assert np.array_equal(q, np.eye(3))

    def test_hand_example(self):
        q = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(q, np.array([[1, 0], [0, 1], [0, 0.0]]), atol=1e-14)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            gram_schmidt(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_frames(self, seed):
        g = gaussian_rows(seed, 0, 0, 15).reshape(5, 3)
        q = gram_schmidt(g)
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-10
        # span preserved: original columns reconstruct from q
        assert np.allclose(q @ (q.T @ g), g, atol=1e-9)
        # idempotence
        assert np.max(np.abs(gram_schmidt(q) - q)) < 1e-12


def tilted_plane_certificate(cos_t: float):
    """Certificate of span{e1, cos_t e2 + sin_t e3} against the plane
    span{e1, e2} with axis e1: the transverse direction e2 is seen at
    angle t, so the restricted projection is diag(1, cos_t)."""
    h = Subspace(np.array([[1.0, 0.0], [0.0, cos_t], [0.0, math.sqrt(1.0 - cos_t**2)]]))
    return goodness(h, axis_subspace(3, [0, 1]), np.array([1.0, 0.0, 0.0]))


class TestGramJacobian:
    """The certificate's jacobian: the Gram Jacobian sqrt(det(M^T M)), the
    product of the singular values of the transverse map M."""

    def test_orthonormal_columns(self):
        # the axis leaves the plane, the transverse direction e2 does not
        t = 0.7
        h = Subspace(np.array([[math.cos(t), 0.0], [0.0, 1.0], [math.sin(t), 0.0]]))
        cert = goodness(h, axis_subspace(3, [0, 1]), np.array([1.0, 0.0, 0.0]))
        assert cert.ell == pytest.approx(math.cos(t), abs=1e-14)
        assert cert.jacobian == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        cert = tilted_plane_certificate(0.5)
        assert cert.ell == pytest.approx(1.0, abs=1e-14)
        assert cert.jacobian == pytest.approx(0.5, abs=1e-14)

    def test_zero_column(self):
        cert = tilted_plane_certificate(0.0)
        assert cert.ell == pytest.approx(1.0, abs=1e-14)
        assert cert.jacobian == pytest.approx(0.0, abs=1e-12)
        assert cert.c == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_left_isometry_invariance(self, seed):
        # rotating subspace, plane and axis together leaves the certificate
        q = gram_schmidt(gaussian_rows(seed, 9, 0, 25).reshape(5, 5))
        h = haar_sample(5, 3, RngStream(seed, 10))
        plane = axis_subspace(5, [0, 1, 2])
        u = np.eye(5)[0]
        cert = goodness(h, plane, u)
        moved = goodness(Subspace(q @ h.basis), Subspace(q @ plane.basis), q @ u)
        assert moved.jacobian == pytest.approx(cert.jacobian, rel=1e-9)
        assert moved.sigma_min == pytest.approx(cert.sigma_min, rel=1e-9, abs=1e-12)


class TestSingularMin:
    """The certificate's sigma_min: the smallest singular value of the
    projection restricted to the plane."""

    def test_identity(self):
        # every frame of the whole space sees the whole space isometrically
        for i in range(5):
            h = haar_sample(3, 3, RngStream(4, i))
            cert = goodness(h, axis_subspace(3, [0, 1, 2]), np.array([1.0, 0.0, 0.0]))
            assert cert.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert tilted_plane_certificate(0.1).sigma_min == pytest.approx(0.1, abs=1e-12)

    def test_restricted_projection_drops_rank(self):
        # {e1,e2}, {e1,e3} and {e1,(e2+e3)/sqrt2} seen from {e1,e2}: only the
        # second frame's second column collapses
        r = math.sqrt(0.5)
        frames = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                           [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                           [[1.0, 0.0], [0.0, r], [0.0, r]]])
        certs = goodness_stack(frames, axis_subspace(3, [0, 1]), np.array([1.0, 0.0, 0.0]))
        assert certs.sigma_min == pytest.approx([1.0, 0.0, r], abs=1e-14)


class TestRng:
    def test_determinism(self):
        assert np.array_equal(uniform_block(RngStream(3, 5, 7), 4),
                              uniform_block(RngStream(3, 5, 7), 4))
        assert np.array_equal(gaussian_rows(3, 5, 7, 4), gaussian_rows(3, 5, 7, 4))

    def test_counter_advances(self):
        s = RngStream(1)
        u = uniform_block(s, 1)
        assert s.counter == 1
        u = np.concatenate([u, uniform_block(s, 2)])
        assert s.counter == 3
        # one Gaussian is the Box-Muller map of the uniforms at two counters
        g = gaussian_rows(1, 0, 1, 1)[0]
        assert g == pytest.approx(
            math.sqrt(-2.0 * math.log1p(-u[1])) * math.cos(2.0 * math.pi * u[2]), rel=1e-14)

    def test_stream_separation(self):
        assert uniform_block(RngStream(11, 0), 1)[0] != uniform_block(RngStream(11, 1), 1)[0]

    def test_uniform_mean(self):
        u = uniform_block(RngStream(42, 0), 1_000_000)
        assert 0.498 <= float(u.mean()) <= 0.502
        assert float(u.min()) >= 0.0 and float(u.max()) < 1.0

    def test_gaussian_moments(self):
        g = gaussian_rows(42, 1, 0, 1_000_000)
        assert -0.005 <= float(g.mean()) <= 0.005
        assert 0.99 <= float(g.var()) <= 1.01
        assert np.all(np.isfinite(g))

    def test_partition_invariance(self):
        whole = uniform_block(RngStream(9, 3), 1000)
        parts = np.concatenate([uniform_block(RngStream(9, 3, 100 * k), 100)
                                for k in range(10)])
        assert np.array_equal(whole, parts)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_cell_purity(self, seed, stream, counter):
        a = uniform_block(RngStream(seed, stream, counter), 1)[0]
        b = uniform_block(RngStream(seed, stream, counter), 1)[0]
        assert a == b and 0.0 <= a < 1.0
