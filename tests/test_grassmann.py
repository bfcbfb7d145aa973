import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from projmetrics.bodies import VPolytope
from projmetrics.grassmann import (
    DegenerateDirectionError,
    Subspace,
    axis_split,
    axis_subspace,
    complete_to_basis,
    full_space,
    goodness,
    goodness_stack,
    haar_frames,
    haar_sample,
    project_body,
    project_point,
)
from projmetrics.numerics import (
    RankDeficiencyError,
    RngStream,
    ball_volume,
    gaussian_rows,
)


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_basis_is_orthonormal(self):
        for i in range(50):
            h = haar_sample(5, 3, RngStream(2, i))
            assert np.max(np.abs(h.basis.T @ h.basis - np.eye(3))) < 1e-10


class TestHaarSample:
    def test_full_space(self):
        h = haar_sample(3, 3, RngStream(0, 0))
        x = np.array([0.3, -1.2, 2.0])
        assert np.linalg.norm(h.basis @ project_point(h, x) - x) < 1e-10

    def test_deterministic(self):
        a = haar_sample(4, 2, RngStream(5, 7))
        b = haar_sample(4, 2, RngStream(5, 7))
        assert np.array_equal(a.basis, b.basis)

    def test_trace_identity(self):
        # E ||P_H v||^2 = j/d for unit v, by rotation invariance
        e1 = np.array([1.0, 0.0, 0.0])
        vals = [float(np.sum(project_point(haar_sample(3, 2, RngStream(1, i)), e1) ** 2))
                for i in range(10_000)]
        assert abs(np.mean(vals) - 2.0 / 3.0) < 0.02

    def test_rotation_invariance(self):
        # empirical distributions of ||P_H v||^2 and ||P_H Rv||^2 agree,
        # with R the rotation taking e1 to the unit diagonal direction
        v = np.array([1.0, 0.0, 0.0, 0.0])
        rv = np.full(4, 0.5)
        s1 = [float(np.sum(project_point(haar_sample(4, 2, RngStream(3, i)), v) ** 2))
              for i in range(10_000)]
        s2 = [float(np.sum(project_point(haar_sample(4, 2, RngStream(4, i)), rv) ** 2))
              for i in range(10_000)]
        assert ks_2samp(s1, s2).statistic < 0.03


class TestHaarFrames:
    @pytest.mark.parametrize("d,j", [(1, 1), (3, 1), (3, 2), (3, 3), (4, 3), (8, 2), (8, 7)])
    def test_rows_are_haar_samples(self, d, j):
        indices = np.arange(3, 3 + 64)
        frames = haar_frames(d, j, 19, indices)
        assert frames.shape == (64, d, j)
        for frame, i in zip(frames, indices):
            s = RngStream(19, 2 * int(i))
            assert np.array_equal(frame, haar_sample(d, j, s).basis)
            assert np.max(np.abs(frame.T @ frame - np.eye(j))) < 1e-12

    def test_rank_deficient_rows_redraw(self, monkeypatch):
        from projmetrics import grassmann

        real = grassmann.gaussian_rows

        def first_block_flat(seed, streams, counter0, n):
            g = real(seed, streams, counter0, n)
            if counter0 == 0:  # odd sample indices draw a zero frame first
                g[(streams // 2) % 2 == 1] = 0.0
            return g

        monkeypatch.setattr(grassmann, "gaussian_rows", first_block_flat)
        frames = haar_frames(3, 2, 4, np.arange(6))
        for i, frame in enumerate(frames):
            s = RngStream(4, 2 * i)
            assert np.array_equal(frame, haar_sample(3, 2, s).basis)
            assert s.counter == 12 * (1 + i % 2)  # one block, or two after a redraw
        redrawn = real(4, np.array([2]), 12, 6).reshape(3, 2)
        assert np.allclose(frames[1] @ (frames[1].T @ redrawn), redrawn, atol=1e-12)

    def test_five_failures_raise(self, monkeypatch):
        from projmetrics import grassmann

        monkeypatch.setattr(grassmann, "gaussian_rows",
                            lambda seed, streams, counter0, n: np.zeros((streams.size, n)))
        with pytest.raises(RankDeficiencyError):
            haar_frames(3, 2, 0, np.arange(4))


class TestProjection:
    def test_axis_plane(self):
        h = axis_subspace(3, [0, 1])
        assert np.allclose(project_point(h, np.array([3.0, 4.0, 5.0])), [3.0, 4.0])

    def test_in_plane_isometry(self, plane_e12):
        x = np.array([0.3, -0.7, 0.0])
        assert abs(np.linalg.norm(project_point(plane_e12, x)) - np.linalg.norm(x)) < 1e-12

    def test_orthogonal_point(self, plane_e12):
        assert np.allclose(project_point(plane_e12, np.array([0.0, 0.0, 2.0])), [0.0, 0.0])

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_contraction(self, seed):
        s = RngStream(seed, 0)
        h = haar_sample(5, 2, s)
        x = gaussian_rows(seed, 0, s.counter, 5)
        assert np.linalg.norm(project_point(h, x)) <= np.linalg.norm(x) + 1e-12

    def test_project_body_cube(self, cube3, plane_e12):
        shadow = project_body(plane_e12, cube3)
        assert shadow.ambient_dim == 2
        corners = {tuple(v) for v in shadow.vertices}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_project_body_identity(self, cube3):
        assert np.array_equal(project_body(full_space(3), cube3).vertices, cube3.vertices)

    def test_segment_collapses(self):
        seg = VPolytope([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        shadow = project_body(axis_subspace(3, [0, 1]), seg)
        assert np.array_equal(shadow.vertices, np.zeros((2, 2)))


class TestAxisSplit:
    def test_axis_in_plane(self, plane_e12):
        u_h, e_basis = axis_split(plane_e12, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(u_h, [1.0, 0.0])
        assert e_basis.shape == (2, 1)
        assert np.allclose(e_basis[:, 0], [0.0, 1.0])

    def test_perpendicular_axis_errors(self):
        h = axis_subspace(3, [1, 2])
        with pytest.raises(DegenerateDirectionError):
            axis_split(h, np.array([1.0, 0.0, 0.0]))

    def test_sign_convention(self):
        # the completion's first nonzero coordinate is positive
        for i in range(30):
            s = RngStream(17, i)
            h = haar_sample(3, 2, s)
            try:
                _, e_basis = axis_split(h, np.array([1.0, 0.0, 0.0]))
            except DegenerateDirectionError:
                continue
            lead = e_basis[:, 0][np.abs(e_basis[:, 0]) > 1e-14]
            assert lead[0] > 0

    def test_completion_orthonormal(self):
        for i in range(30):
            v = gaussian_rows(23, i, 0, 4)
            v /= np.linalg.norm(v)
            comp = complete_to_basis(v)
            frame = np.column_stack([v, comp])
            assert np.max(np.abs(frame.T @ frame - np.eye(4))) < 1e-12


class TestGoodness:
    def test_identity_certificate(self):
        for j in (2, 3):
            plane = axis_subspace(j + 1, list(range(j)))
            u = np.zeros(j + 1)
            u[0] = 1.0
            cert = goodness(plane, plane, u)
            assert cert.sigma_min == pytest.approx(1.0, abs=1e-12)
            assert cert.ell == pytest.approx(1.0, abs=1e-12)
            assert cert.jacobian == pytest.approx(1.0, abs=1e-12)
            assert cert.c == 2.0 * cert.ell * (cert.jacobian * ball_volume(j - 1))
            assert cert.c == pytest.approx(2.0 * ball_volume(j - 1), abs=1e-12)

    def test_rank_drop_certificate(self):
        plane = axis_subspace(3, [0, 1])
        h = axis_subspace(3, [0, 2])
        cert = goodness(h, plane, np.array([1.0, 0.0, 0.0]))
        assert cert.sigma_min == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_axis_zeroes_certificate(self):
        plane = axis_subspace(3, [0, 1])
        h = axis_subspace(3, [1, 2])
        cert = goodness(h, plane, np.array([1.0, 0.0, 0.0]))
        assert cert.ell == 0.0
        assert cert.jacobian == cert.c == 0.0

    def test_random_certificates(self):
        plane = axis_subspace(4, [0, 1])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        near_singular = 0
        for i in range(2000):
            h = haar_sample(4, 2, RngStream(6, i))
            cert = goodness(h, plane, u)
            if cert.sigma_min < 1e-8:
                near_singular += 1
                continue
            assert cert.jacobian > 0.0
            assert cert.jacobian <= 1.0 + 1e-12  # composition of contractions
            assert cert.c == 2.0 * cert.ell * (cert.jacobian * ball_volume(1))
        assert near_singular == 0

    def test_axis_must_be_in_plane(self):
        plane = axis_subspace(3, [0, 1])
        with pytest.raises(ValueError):
            goodness(plane, plane, np.array([0.0, 0.0, 1.0]))


def reference_completion(v):
    """One-vector Householder completion with the sign rule, written as a loop."""
    j = v.shape[0]
    if j == 1:
        return np.zeros((1, 0))
    alpha = -1.0 if v[0] >= 0 else 1.0
    w = v - alpha * np.eye(j)[0]
    refl = np.eye(j) - 2.0 * np.outer(w, w) / float(w @ w)
    comp = refl[:, 1:].copy()
    for col in range(comp.shape[1]):
        lead = comp[:, col][np.abs(comp[:, col]) > 1e-14]
        if lead.size and lead[0] < 0:
            comp[:, col] = -comp[:, col]
    return comp


def reference_certificate(basis, plane, u):
    """(sigma_min, ell, jacobian, c) of one frame, computed frame by frame."""
    j = basis.shape[1]
    sigma = float(np.linalg.svd(basis.T @ plane.basis, compute_uv=False)[-1])
    pu = basis.T @ u
    ell = float(np.linalg.norm(pu))
    if ell <= 1e-12:
        return sigma, ell, 0.0, 0.0
    e_h_basis = reference_completion(pu / ell)
    u_plane = plane.basis.T @ u
    plane_comp = plane.basis @ reference_completion(u_plane / np.linalg.norm(u_plane))
    # the Gram Jacobian: the product of the transverse map's singular values
    jac = float(np.prod(np.linalg.svd(e_h_basis.T @ (basis.T @ plane_comp), compute_uv=False)))
    return sigma, ell, jac, 2.0 * ell * (jac * ball_volume(j - 1))


class TestGoodnessStack:
    @pytest.mark.parametrize("d,j", [(3, 2), (4, 2), (4, 3), (5, 3), (8, 7)])
    def test_rows_equal_per_frame_certificates(self, d, j):
        plane = axis_subspace(d, list(range(j)))
        u = np.zeros(d)
        u[0] = 1.0
        frames = haar_frames(d, j, 3, np.arange(400))
        certs = goodness_stack(frames, plane, u)
        assert certs.sigma_min.shape == certs.ell.shape == certs.c.shape == (400,)
        for k, frame in enumerate(frames):
            sigma, ell, jac, c = reference_certificate(frame, plane, u)
            assert certs.sigma_min[k] == sigma
            assert certs.ell[k] == ell
            assert certs.jacobian[k] == jac
            assert certs.c[k] == c
            one = goodness(Subspace(frame), plane, u)
            assert (one.sigma_min, one.ell, one.jacobian, one.c) == (sigma, ell, jac, c)

    def test_degenerate_row_zeroed_alone(self):
        plane = axis_subspace(3, [0, 1])
        u = np.array([1.0, 0.0, 0.0])
        frames = haar_frames(3, 2, 5, np.arange(6))
        mixed = np.concatenate([frames[:3], axis_subspace(3, [1, 2]).basis[None], frames[3:]])
        certs = goodness_stack(mixed, plane, u)
        assert certs.ell[3] == 0.0
        assert certs.jacobian[3] == certs.c[3] == 0.0
        rest = np.arange(7) != 3
        assert np.all(certs.ell[rest] > 0) and np.all(certs.c[rest] > 0)
        assert np.array_equal(certs.c[rest], goodness_stack(frames, plane, u).c)

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
    def test_stacked_completion_equals_one_vector_calls(self, j):
        v = gaussian_rows(29, np.arange(50), 0, j)
        v /= np.linalg.norm(v, axis=1)[:, None]
        v[0] = np.eye(j)[0]  # both signs of the first coordinate, and exact axes
        v[1] = -np.eye(j)[-1]
        comps = complete_to_basis(v)
        assert comps.shape == (50, j, j - 1)
        for row, comp in zip(v, comps):
            assert complete_to_basis(row).shape == (j, j - 1)
            assert np.array_equal(comp, complete_to_basis(row))
            assert np.array_equal(comp, reference_completion(row))

    def test_rejects_non_orthonormal_frames(self):
        plane = axis_subspace(3, [0, 1])
        frames = haar_frames(3, 2, 1, np.arange(5))
        frames[2, :, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="orthonormal"):
            goodness_stack(frames, plane, np.array([1.0, 0.0, 0.0]))

    def test_rejects_off_plane_axis(self):
        plane = axis_subspace(3, [0, 1])
        frames = haar_frames(3, 2, 1, np.arange(5))
        with pytest.raises(ValueError, match="plane"):
            goodness_stack(frames, plane, np.array([0.0, 0.6, 0.8]))
