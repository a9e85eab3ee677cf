"""Hemisphere chart: frame fields, metric assembly, quadrature,
derivatives, and the boundary second fundamental form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    ChartDomainError,
    HopfGrid,
    InputFormatError,
    InvalidMetricError,
    MetricField,
    NumericalFailureError,
    boundary_second_form,
    chart_metric,
    integrate,
    su2_structure_constants,
)
from relyamabe.su2_chart import (
    _FRAME_MAPS,
    _level_second_form,
    embedding,
    frame_fields,
    grad_sq,
    partial_derivatives,
)

SETTINGS = dict(deadline=None, derandomize=True, database=None)


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

    def test_frame_maps_equal_frame_fields(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        v = frame_fields(x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3])
        for k in range(3):
            mx = x @ _FRAME_MAPS[k].T
            assert np.abs(mx[:, 0::2] + 1j * mx[:, 1::2] - v[:, k]).max() <= 1e-15

    def test_frame_map_brackets_equal_structure_constants(self):
        # [V_i, V_j] of the linear fields V_i(x) = M_i x is (M_j M_i - M_i M_j) x
        m = _FRAME_MAPS
        brackets = np.einsum("jab,ibc->ijac", m, m) - np.einsum("iab,jbc->ijac", m, m)
        expanded = np.einsum("kij,kac->ijac", su2_structure_constants().c, m)
        assert np.array_equal(brackets, expanded)


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
    @pytest.mark.parametrize("bad", [2.5, 1.5, float("nan"), float("inf"), -float("inf")])
    def test_non_integer_cell_count_rejected(self, axis, bad):
        counts = [8, 8, 8]
        counts[axis] = bad
        with pytest.raises(InputFormatError, match="must be an integer >= 4"):
            HopfGrid(*counts)

    @pytest.mark.parametrize(
        "n", [8.0, np.float64(8.0), np.int64(8)], ids=["float", "float64", "int64"]
    )
    def test_whole_cell_count_behaves_like_the_int(self, grid8, n):
        grid = HopfGrid.cube(n)
        assert grid == grid8 and all(type(k) is int for k in grid.shape)
        params = BergerParams(1.0, 3.0)
        assert np.array_equal(chart_metric(grid, params).g, chart_metric(grid8, params).g)

    def test_embedding_lies_on_sphere(self, grid16):
        z, w = embedding(grid16)
        assert np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1.0).max() <= 1e-14

    def test_diff_ops_cached(self, grid16):
        assert grid16.diff_ops(3)[0] is grid16.diff_ops(3)[0]
        assert HopfGrid.cube(16).diff_ops(3) is grid16.diff_ops(3)  # keyed by shape

    @pytest.mark.parametrize("width", [1, 2, 4, 0, -1, 2.5])
    def test_diff_ops_width_must_be_odd_and_at_least_three(self, grid16, width):
        # width 1 gave all-zero operators and even widths off-centre
        # windows, silently
        with pytest.raises(InputFormatError, match="width must be"):
            grid16.diff_ops(width)

    def test_partial_derivative_exactness_on_linear(self, grid16):
        eta, _, _ = grid16.meshes()
        d = partial_derivatives(eta, grid16)
        assert np.abs(d[0] - 1.0).max() <= 1e-12
        assert np.abs(d[1]).max() <= 1e-12


class TestChartMetric:
    def test_round_closed_form_per_cell(self, grid16, round16):
        eta, _, _ = grid16.meshes()
        expected = np.zeros((3, 3) + grid16.shape)
        expected[0, 0] = 1.0
        expected[1, 1] = np.cos(eta) ** 2
        expected[2, 2] = np.sin(eta) ** 2
        assert np.abs(round16.g - expected).max() <= 1e-10

    @pytest.mark.parametrize("st", [(1.0, 3.0), (2.0, 4.0)])
    def test_determinant_closed_form(self, grid32, st):
        s, t = st
        m = chart_metric(grid32, BergerParams(s, t))
        eta, _, _ = grid32.meshes()
        exact = s * t * np.cos(eta) ** 2 * np.sin(eta) ** 2
        assert (np.abs(m.sqrt_det ** 2 - exact) / exact).max() <= 1e-8

    def test_chart_residual_negligible(self, berger13_32):
        assert berger13_32.chart_residual <= 1e-10

    def test_in_domain_weights_failing_in_floating_point(self):
        # BergerParams accepts (1, 1e10); the cofactor determinant of its
        # chart cells cancels to <= 0, a numerical failure, not bad input
        with pytest.raises(NumericalFailureError, match=r"diag\(1\.0, 1\.0, 10000000000\.0\)"):
            chart_metric(HopfGrid.cube(4), BergerParams(1.0, 1e10))

    def test_old_cells_major_layout_rejected(self, round16):
        with pytest.raises(InvalidMetricError, match="does not match grid"):
            MetricField(grid=round16.grid, g=np.moveaxis(round16.g, (0, 1), (-2, -1)))

    def test_asymmetric_cells_near_overflow_rejected(self):
        # g - g^T of +-1e308 off-diagonals overflows: still "not symmetric",
        # and no RuntimeWarning
        grid = HopfGrid.cube(4)
        g = np.zeros((3, 3) + grid.shape)
        g[0, 0] = g[1, 1] = g[2, 2] = 1e308
        g[0, 1], g[1, 0] = 1e308, -1e308
        with pytest.raises(InvalidMetricError, match="not symmetric at every cell"):
            MetricField(grid, g)

    def test_scaled_metric(self, round16):
        doubled = MetricField(round16.grid, 2.0 * round16.g)
        assert np.allclose(doubled.sqrt_det ** 2, 8.0 * round16.sqrt_det ** 2, rtol=1e-14)
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

    @pytest.mark.parametrize("value", [1e308, np.inf, np.nan])
    def test_overflowing_integral_is_a_numerical_failure(self, grid8, value):
        # the sum of 1e308 against the weights overflows its reduction: a
        # NumericalFailureError, not a RuntimeWarning; so does a
        # non-finite integrand
        metric = chart_metric(grid8, BergerParams(1.0, 1.0))
        with pytest.raises(NumericalFailureError, match="overflows"):
            integrate(np.full(grid8.shape, value), metric)

    @pytest.mark.parametrize("shape", [(8, 8, 1), (3,)])
    def test_field_of_another_shape_rejected(self, grid8, shape):
        # neither broadcast against the weights nor a bare numpy error
        metric = chart_metric(grid8, BergerParams(1.0, 1.0))
        with pytest.raises(InputFormatError, match="does not match grid"):
            integrate(np.ones(shape), metric)

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

    @pytest.mark.parametrize("scale", [1e160, np.inf, np.nan])
    def test_overflowing_density_is_a_numerical_failure(self, grid8, scale):
        # derivatives near 1e160 square past the float range: a
        # NumericalFailureError, not a RuntimeWarning; so does a
        # non-finite field
        metric = chart_metric(grid8, BergerParams(1.0, 1.0))
        _, xi1, _ = grid8.meshes()
        with pytest.raises(NumericalFailureError, match="overflows"):
            grad_sq(scale * np.cos(xi1), metric)


class TestBoundary:
    def test_round_boundary_totally_geodesic(self, round32):
        rep = boundary_second_form(round32)
        assert rep.max_abs_mean_curvature <= 1e-2
        assert rep.max_ii_norm <= 1e-2

    def test_berger_boundary_minimal_not_geodesic(self, berger13_32):
        rep = boundary_second_form(berger13_32)
        assert rep.max_abs_mean_curvature <= 1e-2
        assert rep.max_ii_norm >= 0.05

    @settings(max_examples=40, **SETTINGS)
    @given(st.floats(1.0, 1e4), st.floats(1.0, 100.0), st.integers(0, 2**32 - 1))
    def test_mean_curvature_vanishes_to_roundoff(self, s, ratio, seed):
        # 10^4 random points of the boundary sphere {x2 = 0}: the level
        # xi1 = 0 with eta in (0, pi) covers both faces
        rng = np.random.default_rng(seed)
        eta, xi2 = rng.uniform(0.0, np.pi, 10**4), rng.uniform(0.0, 2 * np.pi, 10**4)
        mean_curv, _ = _level_second_form(BergerParams(s, s * ratio), eta, xi2, 0.0, 1.0)
        assert np.abs(mean_curv).max() <= 1e-13

    def test_round_second_form_vanishes_to_roundoff(self):
        # every level xi1 = c is a great sphere, totally geodesic on round
        rng = np.random.default_rng(11)
        eta, xi2 = rng.uniform(0.0, np.pi, 10**4), rng.uniform(0.0, 2 * np.pi, 10**4)
        for c in (0.0, 0.3, np.pi / 2, np.pi):
            _, ii_norm = _level_second_form(BergerParams(1.0, 1.0), eta, xi2, c, 1.0)
            assert ii_norm.max() <= 1e-13

    def test_needs_berger_weights(self, berger13_16):
        hand_built = MetricField(grid=berger13_16.grid, g=berger13_16.g)
        for metric in (hand_built, MetricField(berger13_16.grid, 2.0 * berger13_16.g)):
            with pytest.raises(InputFormatError, match="Berger weights"):
                boundary_second_form(metric)

    def test_two_faces_reported(self, berger13_16):
        rep = boundary_second_form(berger13_16)
        assert tuple(f.name for f in rep.faces) == ("xi1=0", "xi1=pi")
        grid = berger13_16.grid
        for f in rep.faces:
            assert f.mean_curvature.shape == f.ii_norm.shape == (grid.n_eta, grid.n_xi2)

    @settings(max_examples=30, **SETTINGS)
    @given(
        st.tuples(*[st.integers(4, 40)] * 3),
        st.floats(1.0, 1e3).flatmap(lambda s: st.tuples(st.just(s), st.floats(s, 1e3))),
    )
    def test_every_grid_point_of_both_faces(self, shape, st_pair):
        # the exact form is smooth up to the axes, so even the coarsest
        # grid reports every (eta, xi2) point
        params = BergerParams(*st_pair)
        grid = HopfGrid(*shape)
        rep = boundary_second_form(chart_metric(grid, params))
        for f, c, sign in zip(rep.faces, (0.0, np.pi), (1.0, -1.0)):
            assert f.mean_curvature.shape == f.ii_norm.shape == (grid.n_eta, grid.n_xi2)
            mean_curv, _ = _level_second_form(params, grid.eta[:, None], grid.xi2, c, sign)
            assert np.abs(f.mean_curvature).max() == np.abs(mean_curv).max() <= 1e-13

    def test_normal_is_orthogonal_to_face_tangents_and_inward(self, berger13_32):
        # the face unit normal n^b = ginv[., xi1, b] / sqrt(ginv[xi1, xi1])
        # is g-orthogonal to the in-face coordinate directions by
        # construction, and points into the domain on both faces
        # cells-major views: g[..., a, b]
        g = np.moveaxis(berger13_32.g, (0, 1), (-2, -1))
        ginv = np.moveaxis(berger13_32.inv, (0, 1), (-2, -1))
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
