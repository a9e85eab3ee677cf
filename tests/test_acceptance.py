"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test prints a single `ACCEPTANCE <n> PASS ...` line on success (visible
with `pytest -v -s` or in captured output), and the test name itself carries
the criterion number for the -v listing."""

import math
import time

import numpy as np
import pytest

from relyamabe import (
    BergerParams,
    FrameMetric,
    HopfGrid,
    MetricField,
    QuotientInput,
    berger_ricci_closed,
    berger_scalar_closed,
    boundary_curve,
    boundary_second_form,
    chart_metric,
    corollary_path_check,
    curvature_report,
    einstein_hilbert,
    estimate,
    integrate,
    rayleigh_quotient,
    scalar_sign_curve,
    su2_structure_constants,
    theorem1_check,
    volume_ratio,
    yamabe_property_probe,
)
from relyamabe.conformal_energy import laplace_beltrami
from relyamabe.su2_chart import grad_sq
from conftest import ROUND_ENERGY, berger_energy


def ok(n, detail):
    print(f"ACCEPTANCE {n:2d} PASS {detail}")


def test_01_engine_matches_closed_curvature(frame):
    start = time.perf_counter()
    vals = np.linspace(1.0, 4.0, 10)
    worst_scalar = worst_eig = 0.0
    for s in vals:
        for t in vals:
            p = BergerParams(min(s, t), max(s, t))
            rep = curvature_report(frame, FrameMetric(np.diag([1.0, s, t])))
            r_exp = berger_scalar_closed(p)
            scale = max(1.0, abs(r_exp))
            worst_scalar = max(worst_scalar, abs(rep.scalar - r_exp) / scale)
            e_exp = np.sort(berger_ricci_closed(p))
            e_scale = max(1.0, np.abs(e_exp).max())
            worst_eig = max(
                worst_eig,
                np.abs(np.sort(rep.ricci_eigenvalues) - e_exp).max() / e_scale,
            )
    elapsed = time.perf_counter() - start
    assert worst_scalar <= 1e-10
    assert worst_eig <= 1e-10
    assert elapsed < 1.0
    ok(1, f"scalar dev {worst_scalar:.2e}, eig dev {worst_eig:.2e}, {elapsed:.3f}s")


def test_02_einstein_locus():
    frame = su2_structure_constants()
    at_locus, *off = (
        curvature_report(frame, BergerParams(s, t).metric()).einstein_deviation
        for s, t in ((1.0, 1.0), (1.0, 1.2), (1.5, 1.5), (1.0, 3.0))
    )
    assert at_locus <= 1e-10
    assert all(v >= 1e-2 for v in off)
    ok(2, f"deviation {at_locus:.1e} at (1,1); off-locus min {min(off):.3f}")


def test_03_bracket_table(frame):
    x1 = np.array([[1j, 0], [0, -1j]])
    x2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    x3 = np.array([[0, 1j], [1j, 0]])
    mats = [x1, x2, x3]
    expected = np.zeros((3, 3, 3))
    for k, i, j in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        comm = mats[i] @ mats[j] - mats[j] @ mats[i]
        assert np.abs(comm - 2 * mats[k]).max() <= 1e-15
        expected[k, i, j] = 2.0
        expected[k, j, i] = -2.0
    dev = np.abs(frame.c - expected).max()
    assert dev <= 1e-12
    ok(3, f"structure constants match commutators to {dev:.1e}")


def test_04_region_boundaries():
    worst_crit = max(
        abs(boundary_curve(s) - (s + math.sqrt(s) + 1.0)) for s in (1.0, 2.25, 4.0)
    )
    worst_sign = max(
        abs(scalar_sign_curve(s) - (1.0 + math.sqrt(s)) ** 2)
        for s in (1.0, 2.25, 4.0)
    )
    assert worst_crit <= 1e-6
    assert worst_sign <= 1e-6
    ok(4, f"criterion curve dev {worst_crit:.1e}, scalar-sign dev {worst_sign:.1e}")


def test_05_criterion_fixtures():
    eye = FrameMetric.round()
    b = theorem1_check(eye, 6.0, FrameMetric.berger(1.0, 3.0), 2.0)
    assert b.verdict == "AppliesBoundary" and abs(b.min_eig) <= 1e-10
    s = theorem1_check(eye, 6.0, FrameMetric.berger(1.0, 3.5), 1.0)
    assert s.verdict == "AppliesStrict"
    assert abs(s.min_eig - 2.5) <= 1e-10
    assert abs(s.gamma - math.sqrt(3.5)) <= 1e-12 * math.sqrt(3.5)
    f = theorem1_check(eye, 6.0, FrameMetric.berger(1.0, 2.0), 4.0)
    assert f.verdict == "Fails"
    # oracle: pencil eigenvalues by hand are 6 - R_h * (1, s, t) in the
    # orthonormal frame: (4,4,0) for t=3, (5,5,2.5) for t=3.5 with R_h=1,
    # and 6 - 4*(1,1,2) = (2,2,-2) for t=2
    assert f.min_eig == pytest.approx(-2.0, abs=1e-10)
    ok(5, "verdicts Boundary/Strict/Fails with min_eig 0, 2.5, -2")


def test_06_corollary_path():
    rep = corollary_path_check(1.0, 3.0, 4.0, 100)
    assert len(rep.samples) == 101
    assert np.all(rep.samples["min_eig"] >= -1e-10)
    assert rep.delta == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.endpoint_scalar) <= 1e-10
    ok(6, f"delta {rep.delta}, endpoint scalar {rep.endpoint_scalar:.1e}")


def test_07_chart_validation(grid16, grid32, round32, berger13_32):
    eta, _, _ = grid32.meshes()
    expected = np.zeros((3, 3) + grid32.shape)
    expected[0, 0] = 1.0
    expected[1, 1] = np.cos(eta) ** 2
    expected[2, 2] = np.sin(eta) ** 2
    round_dev = np.abs(round32.g - expected).max()
    assert round_dev <= 1e-10

    det_exact = 3.0 * np.cos(eta) ** 2 * np.sin(eta) ** 2
    det_dev = (np.abs(berger13_32.sqrt_det ** 2 - det_exact) / det_exact).max()
    assert det_dev <= 1e-8

    vol = berger13_32.volume()
    vol_target = np.pi**2 * math.sqrt(3.0)
    assert vol == pytest.approx(vol_target, rel=1e-2)
    err16 = abs(chart_metric(grid16, BergerParams(1.0, 3.0)).volume() - vol_target)
    err32 = abs(vol - vol_target)
    assert err16 / err32 >= 3.0
    ok(
        7,
        f"metric dev {round_dev:.1e}, det dev {det_dev:.1e}, "
        f"volume ratio gain {err16 / err32:.2f}x",
    )


def test_08_minimal_boundary(round32, berger13_32, berger24_32):
    reports = {}
    for key, m32 in (("1,1", round32), ("1,3", berger13_32), ("2,4", berger24_32)):
        reports[key] = boundary_second_form(m32)
        assert reports[key].max_abs_mean_curvature <= 1e-2
        # the form is exact: H vanishes to roundoff for every (s, t)
        assert reports[key].max_abs_mean_curvature <= 1e-13
    assert reports["1,1"].max_abs_mean_curvature <= 1e-10
    # non-geodesic face: per-point norm of the second form stays finite;
    # 0.8 is half the exact maximum (1.633)
    assert reports["1,3"].max_ii_norm >= 0.8
    ok(
        8,
        f"max|H| {max(r.max_abs_mean_curvature for r in reports.values()):.1e}, "
        f"(1,3) max||II|| {reports['1,3'].max_ii_norm:.3f}",
    )


def test_09_functional_identities(round16, round32):
    base = einstein_hilbert(round32, 6.0).energy
    for lam in (0.5, 2.0, 10.0):
        scaled = einstein_hilbert(MetricField(round32.grid, lam * round32.g), 6.0 / lam).energy
        assert scaled == pytest.approx(base, rel=1e-10)

    q_const = rayleigh_quotient(QuotientInput(np.ones(round32.grid.shape), round32, 6.0))
    assert q_const == base  # exact in the discrete system

    eta, _, _ = round32.grid.meshes()
    f = 1.0 + 0.2 * np.cos(eta)
    q1 = rayleigh_quotient(QuotientInput(f, round32, 6.0))
    for c in (-1.0, 3.0):
        qc = rayleigh_quotient(QuotientInput(c * f, round32, 6.0))
        assert qc == pytest.approx(q1, rel=1e-12)

    def green_residual(metric):
        _, xi1, _ = metric.grid.meshes()
        g = np.cos(2 * xi1)
        lhs = integrate(g * laplace_beltrami(g, metric), metric)
        rhs = integrate(grad_sq(g, metric), metric)
        return abs(lhs + rhs) / rhs

    g16, g32 = green_residual(round16), green_residual(round32)
    assert g32 < 1e-2
    assert g16 / g32 >= 2.0
    ok(9, f"Q(const)=E exact, Green residual {g32:.1e} (halving {g16 / g32:.1f}x)")


def test_10_conformal_consistency(round32):
    eta, _, _ = round32.grid.meshes()
    u = 1.0 + 0.1 * np.cos(eta)
    from relyamabe import conformal_scalar

    rbar = conformal_scalar(u, round32, 6.0)
    gbar = MetricField(round32.grid, round32.g * u**4, None, 0.0)
    lhs = einstein_hilbert(gbar, rbar).energy
    rhs = rayleigh_quotient(QuotientInput(u, round32, 6.0))
    rel = abs(lhs - rhs) / abs(rhs)
    assert rel <= 1e-2
    ok(10, f"conformal-law vs quotient relative gap {rel:.1e}")


def test_11_estimator(round16, est_round16, est_round32, est_berger135_32):
    rel_round = abs(est_round32.value - ROUND_ENERGY) / ROUND_ENERGY
    assert rel_round <= 0.05
    m = est_round32.minimizer
    assert np.std(m) / abs(np.mean(m)) <= 0.05

    target_b = berger_energy(1.0, 3.5)
    rel_b = abs(est_berger135_32.value - target_b) / target_b
    assert rel_b <= 0.05

    trace = np.asarray(est_round32.trace)
    assert (np.diff(trace) <= 1e-12).all()

    again = estimate(round16, 6.0)
    assert again.value == est_round16.value
    assert np.array_equal(again.minimizer, est_round16.minimizer)
    ok(
        11,
        f"round rel err {rel_round:.2e}, berger rel err {rel_b:.2e}, "
        "deterministic reruns bit-identical",
    )


def test_12_inequality_probe(round32, berger135_32):
    gamma = volume_ratio(round32, berger135_32)
    energy_g = einstein_hilbert(round32, 6.0).energy
    bound = gamma ** (2.0 / 3.0) * (1.0 / 6.0) * energy_g
    report = yamabe_property_probe(berger135_32, 1.0, n_trials=100, seed=0)
    assert report.min_over_trials >= bound * (1.0 - 0.01)
    margin = (report.min_over_trials - bound) / bound
    ok(12, f"100-trial min {report.min_over_trials:.6f} >= bound {bound:.6f} ({margin:+.2%})")
