"""Energy functional, Rayleigh quotient, Laplacian, conformal change,
and boundary flux residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    DegenerateTrialError,
    HopfGrid,
    InputFormatError,
    MetricField,
    NumericalFailureError,
    QuotientInput,
    berger_scalar_closed,
    chart_metric,
    conformal_scalar,
    einstein_hilbert,
    integrate,
    neumann_residual,
    rayleigh_quotient,
    volume_ratio,
)
from relyamabe.conformal_energy import _critical_sum, laplace_beltrami
from relyamabe.su2_chart import _flux, grad_sq, partial_derivatives
from relyamabe.yamabe_estimator import _QuotientWork
from conftest import ROUND_ENERGY, berger_energy


class TestEinsteinHilbert:
    def test_round_hemisphere(self, round32):
        rep = einstein_hilbert(round32, 6.0)
        assert rep.energy == pytest.approx(ROUND_ENERGY, rel=1e-2)
        assert rep.volume == pytest.approx(np.pi**2, rel=1e-2)
        assert rep.total_scalar_integral == pytest.approx(6 * np.pi**2, rel=1e-2)

    def test_berger_1_3(self, berger13_32):
        rep = einstein_hilbert(berger13_32, 2.0)
        assert rep.energy == pytest.approx(berger_energy(1.0, 3.0), rel=1e-2)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, round32, lam):
        base = einstein_hilbert(round32, 6.0).energy
        scaled = einstein_hilbert(MetricField(round32.grid, lam * round32.g), 6.0 / lam).energy
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_field_scalar_accepted(self, round16):
        rep = einstein_hilbert(round16, np.full(round16.grid.shape, 6.0))
        assert rep.energy == pytest.approx(einstein_hilbert(round16, 6.0).energy)

    def test_overflowing_total_is_a_numerical_failure(self, round16):
        # the integral of R = 1e308 overflows its reduction: a
        # NumericalFailureError, not a RuntimeWarning
        with pytest.raises(NumericalFailureError, match="overflows"):
            einstein_hilbert(round16, 1e308)


class TestRayleighQuotient:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([4, 5, 8, 12, 16, 24, 32]),
        s=st.floats(1.0, 4.0),
        dt=st.floats(0.0, 8.0),
        lam=st.floats(0.1, 10.0),
    )
    def test_constant_reproduces_energy_exactly(self, n, s, dt, lam):
        params = BergerParams(s, s + dt)
        base = chart_metric(HopfGrid.cube(n), params)
        metric = MetricField(base.grid, lam * base.g)
        scalar = berger_scalar_closed(params) / lam
        energy = einstein_hilbert(metric, scalar).energy
        q = rayleigh_quotient(QuotientInput(np.ones(metric.grid.shape), metric, scalar))
        assert q == energy  # bitwise: derivatives of a constant are exact zeros

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 10),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
    )
    def test_product_form_critical_norm(self, n, seed, scale):
        # (f^2)^3 against |f|**6 on fields with negative cells, through
        # both users of the product form
        metric = chart_metric(HopfGrid.cube(n), BergerParams(1.0, 2.0))
        rng = np.random.default_rng(seed)
        f = scale * rng.standard_normal(metric.grid.shape)
        assert f.min() < 0.0
        want = np.sum(metric.weight * np.abs(f) ** 6)
        assert _critical_sum(f.reshape(-1), metric.weight.reshape(-1)) == pytest.approx(
            want, rel=1e-14
        )
        work = _QuotientWork(metric, 2.0)
        assert work.norm(f.reshape(-1)) == pytest.approx(want ** (1 / 6), rel=1e-14)
        numer = integrate(8.0 * grad_sq(f, metric) + 2.0 * f * f, metric)
        q = rayleigh_quotient(QuotientInput(f, metric, 2.0))
        assert q == pytest.approx(numer / want ** (1 / 3), rel=1e-14)

    def test_scaling_of_trial(self, round32):
        energy = einstein_hilbert(round32, 6.0).energy
        q2 = rayleigh_quotient(
            QuotientInput(2.0 * np.ones(round32.grid.shape), round32, 6.0)
        )
        assert q2 == pytest.approx(energy, rel=1e-12)

    @pytest.mark.parametrize("c", [-1.0, 3.0])
    def test_homogeneity_degree_zero(self, round16, c):
        eta, _, _ = round16.grid.meshes()
        f = 1.0 + 0.2 * np.cos(eta)
        q1 = rayleigh_quotient(QuotientInput(f, round16, 6.0))
        q2 = rayleigh_quotient(QuotientInput(c * f, round16, 6.0))
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_perturbed_trial_not_below_energy(self, round32):
        eta, _, _ = round32.grid.meshes()
        f = 1.0 + 0.1 * np.cos(eta)
        energy = einstein_hilbert(round32, 6.0).energy
        q = rayleigh_quotient(QuotientInput(f, round32, 6.0))
        assert q >= energy - 1e-6

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, round16, lam):
        eta, _, _ = round16.grid.meshes()
        f = 1.0 + 0.15 * np.cos(eta)
        q = rayleigh_quotient(QuotientInput(f, round16, 6.0))
        q_scaled = rayleigh_quotient(
            QuotientInput(f, MetricField(round16.grid, lam * round16.g), 6.0 / lam)
        )
        assert q_scaled == pytest.approx(q, rel=1e-10)

    def test_degenerate_trial_rejected(self, round16):
        with pytest.raises(DegenerateTrialError):
            rayleigh_quotient(
                QuotientInput(np.zeros(round16.grid.shape), round16, 6.0)
            )

    def test_shape_mismatch_rejected(self, round16):
        with pytest.raises(InputFormatError):
            rayleigh_quotient(QuotientInput(np.ones((4, 4, 4)), round16, 6.0))

    def test_underflowing_trial_rejected(self, round16):
        eta, _, _ = round16.grid.meshes()
        tiny = 1e-45 * (1.0 + 0.1 * np.cos(eta))
        with pytest.raises(DegenerateTrialError):
            rayleigh_quotient(QuotientInput(tiny, round16, 6.0))

    def test_overflowing_trial_rejected(self, round16):
        # Q is scale invariant, but a finite trial whose sum of u^6
        # overflows has no quotient to return: it is not read as 0.0
        eta, _, _ = round16.grid.meshes()
        huge = 1e60 * (1.0 + 0.1 * np.cos(eta))
        with pytest.raises(DegenerateTrialError, match="overflow"):
            rayleigh_quotient(QuotientInput(huge, round16, 6.0))


class TestLaplaceBeltrami:
    def test_constant_maps_to_zero(self, round16):
        lap = laplace_beltrami(np.full(round16.grid.shape, 2.5), round16)
        assert np.abs(lap).max() <= 1e-10

    def test_azimuthal_eigenfunction_row(self, round32):
        # Laplacian of cos(2 xi2) is -4 cos(2 xi2)/sin^2(eta); at the row
        # nearest eta = pi/4 that is -8 cos(2 xi2) up to the cell offset.
        # The width-3 divergence form carries the exact factor
        # (sin x / x)^2 with x = 4 pi / N: 5.04e-2 at N=32, 3.25e-2 at
        # N=40, so the 5e-2 bound is asserted at N=40 and the N=32 value
        # is pinned as a regression guard.
        def row_err(n):
            g = HopfGrid.cube(n)
            m = chart_metric(g, BergerParams(1.0, 1.0))
            _, _, xi2 = g.meshes()
            lap = laplace_beltrami(np.cos(2 * xi2), m)
            k = int(np.argmin(np.abs(g.eta - np.pi / 4)))
            target = -4.0 * np.cos(2 * g.xi2)[None, :] / np.sin(g.eta[k]) ** 2
            return (np.abs(lap[k] - target) / np.abs(target).max()).max()

        assert 4.5e-2 <= row_err(32) <= 6e-2
        assert row_err(40) <= 5e-2

    def test_green_identity(self, round16, round32):
        # f = cos(2 xi1) has vanishing normal flux, so the integration by
        # parts residual must be small and halve under refinement
        def residual(metric):
            _, xi1, _ = metric.grid.meshes()
            f = np.cos(2 * xi1)
            lhs = integrate(f * laplace_beltrami(f, metric), metric)
            from relyamabe.su2_chart import grad_sq

            rhs = integrate(grad_sq(f, metric), metric)
            return abs(lhs + rhs) / rhs

        r16, r32 = residual(round16), residual(round32)
        assert r32 <= 1e-2
        assert r16 / r32 >= 2.0


class TestConformalScalar:
    def test_constant_factor(self, round32):
        u = np.full(round32.grid.shape, 1.3)
        rbar = conformal_scalar(u, round32, 6.0)
        assert np.abs(rbar - 6.0 / 1.3**4).max() <= 1e-10 * 6.0

    def test_identity_factor(self, round32):
        u = np.ones(round32.grid.shape)
        rbar = conformal_scalar(u, round32, 6.0)
        assert np.abs(rbar - 6.0).max() <= 1e-12

    def test_nonpositive_factor_rejected(self, round16):
        u = np.ones(round16.grid.shape)
        u[0, 0, 0] = 0.0
        with pytest.raises(InputFormatError):
            conformal_scalar(u, round16, 6.0)

    def test_overflowing_factor_power_is_a_numerical_failure(self, round16):
        # u^-5 of a factor near 1e-62 overflows: a NumericalFailureError,
        # not a RuntimeWarning
        eta, _, _ = round16.grid.meshes()
        u = 1e-62 * (1.0 + 0.1 * np.cos(eta))
        with pytest.raises(NumericalFailureError, match="overflows"):
            conformal_scalar(u, round16, 2.0)

    def test_two_way_consistency(self, round32):
        # energy of u^4 g computed from the transformed scalar curvature
        # agrees with the Rayleigh quotient of u in the original metric
        eta, _, _ = round32.grid.meshes()
        u = 1.0 + 0.1 * np.cos(eta)
        rbar = conformal_scalar(u, round32, 6.0)
        gbar = MetricField(
            round32.grid,
            round32.g * u**4,
            None,
            round32.chart_residual,
        )
        energy_bar = einstein_hilbert(gbar, rbar).energy
        q = rayleigh_quotient(QuotientInput(u, round32, 6.0))
        assert energy_bar == pytest.approx(q, rel=1e-2)


@pytest.mark.parametrize(
    "helper",
    [
        lambda f, m: partial_derivatives(f, m.grid),
        laplace_beltrami,
        neumann_residual,
    ],
    ids=["partial_derivatives", "laplace_beltrami", "neumann_residual"],
)
def test_overflowing_strong_form_is_a_numerical_failure(grid8, helper):
    # differences of a field near 1.5e308 leave the float range: a
    # NumericalFailureError, not a RuntimeWarning; at 1e306 every helper
    # still returns finite values
    metric = chart_metric(grid8, BergerParams(1.0, 1.0))
    eta, xi1, _ = grid8.meshes()
    assert np.all(np.isfinite(helper(1e306 * np.cos(xi1), metric)))
    with pytest.raises(NumericalFailureError, match="overflows"):
        helper(1.5e308 * np.cos(xi1) * np.cos(2 * eta), metric)


class TestNeumannResidual:
    def test_constant_flux_free(self, round32, berger13_32):
        u = np.ones(round32.grid.shape)
        assert neumann_residual(u, round32) == 0.0
        assert neumann_residual(np.ones(berger13_32.grid.shape), berger13_32) == 0.0

    def test_axially_symmetric_flux_free_on_round(self, round32):
        eta, _, _ = round32.grid.meshes()
        assert neumann_residual(np.cos(eta), round32) <= 1e-2

    def test_same_trial_fluxes_on_berger(self, berger13_32):
        # the inverse metric has eta-xi1 off-diagonal terms when s != t,
        # so an eta-only profile is not flux-free there
        eta, _, _ = berger13_32.grid.meshes()
        assert neumann_residual(np.cos(eta), berger13_32) >= 0.1

    def test_transverse_profile_fluxes(self, round32):
        _, xi1, _ = round32.grid.meshes()
        assert neumann_residual(np.sin(xi1), round32) >= 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("everywhere", [False, True])
    def test_non_finite_fields_rejected(self, round16, bad, everywhere):
        # a NaN cell used to read as a perfect (0.0) residual, even on an
        # all-NaN field, and an inf escaped as a bare RuntimeWarning
        u = np.ones(round16.grid.shape)
        if everywhere:
            u[...] = bad
        else:
            u[3, 0, 5] = bad
        with pytest.raises(InputFormatError, match="non-finite"):
            neumann_residual(u, round16)

    def test_shape_mismatch_rejected(self, round16):
        with pytest.raises(InputFormatError, match="does not match grid"):
            neumann_residual(np.ones((16, 16, 15)), round16)

    @pytest.mark.parametrize(
        "shape", [(n, n + 1, n + 2) for n in (4, 5, 8, 16)] + [(32, 32, 32)]
    )
    @pytest.mark.parametrize("st_pair", [(1.0, 1.0), (1.0, 3.5), (1.7, 4.6), (3.0, 1e4)])
    def test_face_layers_equal_all_layer_derivatives(self, shape, st_pair):
        # the residual differentiates only the two face layers; it equals,
        # bit for bit, the same flux read off derivatives on every layer
        metric = chart_metric(HopfGrid(*shape), BergerParams(*st_pair))
        eta, xi1, xi2 = metric.grid.meshes()
        fields = (
            np.random.default_rng(7).normal(size=shape),
            1.0 + 0.2 * np.cos(xi1) + 0.1 * np.sin(eta) * np.cos(xi2) + 0.05 * np.sin(xi1 + xi2),
            np.full(shape, 2.5),
        )
        for u in fields:
            du = [d[:, [0, -1]] for d in partial_derivatives(u, metric.grid)]
            inv = metric.inv[:, :, :, [0, -1]]
            want = float((np.abs(_flux(inv, du, 1)) / np.sqrt(inv[1, 1])).max())
            assert neumann_residual(u, metric) == want


class TestAdmissibleTrialFamily:
    def test_hundred_random_flux_free_trials_bound_energy(self, round32):
        # trials independent of xi1 are flux-free on the round hemisphere;
        # their quotients must stay above the energy of the round metric,
        # which is the minimizer of its conformal class
        eta, _, xi2 = round32.grid.meshes()
        energy = einstein_hilbert(round32, 6.0).energy
        rng = np.random.default_rng(20260819)
        worst = np.inf
        for _ in range(100):
            a = rng.uniform(-0.3, 0.3, 3)
            p = int(rng.integers(1, 4))
            ph = rng.uniform(0, 2 * np.pi)
            u = (
                1.0
                + a[0] * np.cos(2 * p * eta)
                + a[1] * np.sin(eta) * np.cos(xi2 + ph)
                + a[2] * np.cos(eta)
            )
            assert neumann_residual(u, round32) <= 1e-10
            worst = min(worst, rayleigh_quotient(QuotientInput(u, round32, 6.0)))
        assert worst >= 0.95 * energy


class TestComparisonInequality:
    def test_quotient_chain_fixture(self, round32, berger135_32):
        # Q_h(u) >= gamma^{2/3} (R_h / R_g) E(g) for the (1, 3.5) metric
        # against the round reference, within 1% (equality at u = const)
        gamma = volume_ratio(round32, berger135_32)
        assert gamma == pytest.approx(np.sqrt(3.5), rel=1e-8)
        rhs = gamma ** (2.0 / 3.0) * (1.0 / 6.0) * einstein_hilbert(round32, 6.0).energy
        eta, xi1, xi2 = berger135_32.grid.meshes()
        trials = [
            np.ones(berger135_32.grid.shape),
            1.0 + 0.1 * np.cos(eta),
            1.0 - 0.2 * np.sin(eta) ** 2 * np.cos(2 * xi2 + 0.3),
            1.0 + 0.15 * np.cos(xi1),
            1.0 + 0.2 * np.sin(xi1) ** 2 * np.cos(eta),
        ]
        for u in trials:
            q = rayleigh_quotient(QuotientInput(u, berger135_32, 1.0))
            assert q >= rhs * (1.0 - 0.01)
