"""Hemisphere chart: frame fields, metric assembly, quadrature,
derivatives, and the boundary second fundamental form."""

import numpy as np
import pytest

from relyamabe import (
    BergerParams,
    ChartDomainError,
    HopfGrid,
    InputFormatError,
    boundary_second_form,
    chart_metric,
    embedding,
    frame_fields,
    grad_sq,
    integrate,
    partial_derivatives,
)


def real4_dot(u, v):
    """The round inner product of tangent vectors written as C^2 pairs."""
    return np.real(np.sum(u * np.conj(v), axis=-1))


class TestFrameFields:
    def test_reference_point_north(self):
        v = frame_fields(np.array(1.0 + 0j), np.array(0j))
        assert np.allclose(v[0], [1j, 0], atol=1e-15)
        assert np.allclose(v[1], [0, -1], atol=1e-15)
        assert np.allclose(v[2], [0, 1j], atol=1e-15)

    def test_reference_point_equatorial(self):
        v = frame_fields(np.array(0j), np.array(1.0 + 0j))
        assert np.allclose(v[0], [0, 1j], atol=1e-15)

    def test_orthonormal_at_random_points(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(20, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        z = raw[:, 0] + 1j * raw[:, 1]
        w = raw[:, 2] + 1j * raw[:, 3]
        v = frame_fields(z, w)  # (20, 3, 2)
        for i in range(3):
            for j in range(3):
                got = real4_dot(v[:, i], v[:, j])
                assert np.abs(got - (1.0 if i == j else 0.0)).max() <= 1e-12

    def test_off_sphere_rejected(self):
        with pytest.raises(ChartDomainError):
            frame_fields(np.array(1.1 + 0j), np.array(0j))


class TestHopfGrid:
    def test_cube_and_cell_centers(self):
        g = HopfGrid.cube(8)
        assert g.shape == (8, 8, 8)
        assert g.eta[0] > 0.0 and g.eta[-1] < np.pi / 2
        assert g.xi1[0] > 0.0 and g.xi1[-1] < np.pi
        assert g.size == 512

    def test_minimum_resolution(self):
        with pytest.raises(InputFormatError):
            HopfGrid.cube(3)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), -float("inf")])
    def test_non_integer_cell_count_rejected(self, axis, bad):
        counts = [8, 8, 8]
        counts[axis] = bad
        with pytest.raises(InputFormatError):
            HopfGrid(*counts)

    def test_embedding_lies_on_sphere(self, grid16):
        z, w = embedding(grid16)
        assert np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1.0).max() <= 1e-14

    def test_diff_ops_cached(self, grid16):
        assert grid16.diff_ops(3)[0] is grid16.diff_ops(3)[0]
        assert HopfGrid.cube(16).diff_ops(3) is grid16.diff_ops(3)  # keyed by shape

    def test_partial_derivative_exactness_on_linear(self, grid16):
        eta, _, _ = grid16.meshes()
        d = partial_derivatives(eta, grid16)
        assert np.abs(d[..., 0] - 1.0).max() <= 1e-12
        assert np.abs(d[..., 1]).max() <= 1e-12


class TestChartMetric:
    def test_round_closed_form_per_cell(self, grid16, round16):
        eta, _, _ = grid16.meshes()
        expected = np.zeros(grid16.shape + (3, 3))
        expected[..., 0, 0] = 1.0
        expected[..., 1, 1] = np.cos(eta) ** 2
        expected[..., 2, 2] = np.sin(eta) ** 2
        assert np.abs(round16.g - expected).max() <= 1e-10

    @pytest.mark.parametrize("st", [(1.0, 3.0), (2.0, 4.0)])
    def test_determinant_closed_form(self, grid32, st):
        s, t = st
        m = chart_metric(grid32, BergerParams(s, t))
        eta, _, _ = grid32.meshes()
        exact = s * t * np.cos(eta) ** 2 * np.sin(eta) ** 2
        assert (np.abs(m.det - exact) / exact).max() <= 1e-8

    def test_chart_residual_negligible(self, berger13_32):
        assert berger13_32.chart_residual <= 1e-10

    def test_scaled_metric(self, round16):
        doubled = round16.scaled(2.0)
        assert np.allclose(doubled.det, 8.0 * round16.det, rtol=1e-14)
        assert doubled.volume() == pytest.approx(
            2.0**1.5 * round16.volume(), rel=1e-14
        )
        assert doubled.params is None


class TestQuadrature:
    def test_hemisphere_volume_round(self, round32):
        vol = integrate(np.ones(round32.grid.shape), round32)
        assert vol == pytest.approx(np.pi**2, rel=1e-2)

    def test_hemisphere_volume_berger(self, berger13_32):
        vol = integrate(np.ones(berger13_32.grid.shape), berger13_32)
        assert vol == pytest.approx(np.sqrt(3.0) * np.pi**2, rel=1e-2)

    def test_zero_integrand(self, round16):
        assert integrate(np.zeros(round16.grid.shape), round16) == 0.0

    def test_volume_ratio_exact_scaling(self, grid16, round16):
        for s, t in [(1.0, 3.0), (2.0, 4.0)]:
            m = chart_metric(grid16, BergerParams(s, t))
            ratio = m.volume() / round16.volume()
            assert ratio == pytest.approx(np.sqrt(s * t), rel=1e-6)

    def test_refinement_factor(self):
        errs = []
        for n in (8, 16, 32):
            m = chart_metric(HopfGrid.cube(n), BergerParams(1.0, 1.0))
            errs.append(abs(m.volume() - np.pi**2))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0


class TestGradSq:
    def test_constant_has_zero_gradient(self, round16):
        gs = grad_sq(np.full(round16.grid.shape, 4.2), round16)
        assert np.abs(gs).max() == 0.0

    def test_unit_speed_coordinate(self, round32):
        eta, _, _ = round32.grid.meshes()
        gs = grad_sq(eta, round32)
        assert np.abs(gs - 1.0).max() <= 1e-2

    def test_azimuthal_wave(self, round32):
        # |d cos(xi2)|^2 = sin^2(xi2) / sin^2(eta) on the round sphere
        eta, _, xi2 = round32.grid.meshes()
        gs = grad_sq(np.cos(xi2), round32)
        target = np.sin(xi2) ** 2 / np.sin(eta) ** 2
        err = np.abs(gs - target) / target.max(axis=(1, 2), keepdims=True)
        assert err.max() <= 5e-2

    def test_nonnegative_for_random_fields(self, round16, berger13_16):
        rng = np.random.default_rng(9)
        f = rng.normal(size=round16.grid.shape)
        assert grad_sq(f, round16).min() >= 0.0
        assert grad_sq(f, berger13_16).min() >= 0.0


class TestBoundary:
    def test_round_boundary_totally_geodesic(self, round32):
        rep = boundary_second_form(round32)
        assert rep.max_abs_mean_curvature <= 1e-2
        assert rep.max_ii_norm <= 1e-2

    def test_berger_boundary_minimal_not_geodesic(self, berger13_32):
        rep = boundary_second_form(berger13_32)
        assert rep.max_abs_mean_curvature <= 1e-2
        assert rep.max_ii_norm >= 0.05

    def test_mean_curvature_decreases_under_refinement(
        self, berger13_16, berger13_32
    ):
        h16 = boundary_second_form(berger13_16).max_abs_mean_curvature
        h32 = boundary_second_form(berger13_32).max_abs_mean_curvature
        assert h32 < h16

    def test_two_faces_reported(self, berger13_16):
        rep = boundary_second_form(berger13_16)
        assert tuple(f.name for f in rep.faces) == ("xi1=0", "xi1=pi")
        for f in rep.faces:
            assert f.kept_eta.size > 0
            assert f.excluded_cells > 0

    def test_normal_is_orthogonal_to_face_tangents_and_inward(self, berger13_32):
        # the face unit normal n^b = ginv[., xi1, b] / sqrt(ginv[xi1, xi1])
        # is g-orthogonal to the in-face coordinate directions by
        # construction, and points into the domain on both faces
        g = berger13_32.g
        ginv = berger13_32.inv
        for j, inward_sign in ((0, 1.0), (-1, -1.0)):
            gf = g[:, j, :, :, :]
            ginvf = ginv[:, j, :, :, :]
            n = inward_sign * ginvf[..., 1, :] / np.sqrt(ginvf[..., 1, 1:2])
            # unit length
            nn = np.einsum("...a,...ab,...b->...", n, gf, n)
            assert np.abs(nn - 1.0).max() <= 1e-12
            # orthogonal to d/d_eta and d/d_xi2
            for a in (0, 2):
                dot = np.einsum("...b,...b->...", gf[..., a, :], n)
                assert np.abs(dot).max() <= 1e-12
            # inward: positive xi1-component at xi1=0, negative at xi1=pi
            assert (inward_sign * n[..., 1]).min() > 0.0

    def test_serializable(self, berger13_16):
        import json

        payload = boundary_second_form(berger13_16).to_dict()
        assert json.dumps(payload)
