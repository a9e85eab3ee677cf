"""Decision procedures: volume ratio, comparison pencil, Berger-region
classification, boundary curves, deformation paths, and sweeps."""

import json
import math

import numpy as np
import pytest

from relyamabe import (
    BergerParams,
    FrameMetric,
    HypothesisViolationError,
    InvalidMetricError,
    MetricField,
    berger_classify,
    berger_path,
    berger_sweep,
    boundary_curve,
    corollary_path_check,
    scalar_sign_curve,
    theorem1_check,
    volume_ratio,
)

EYE = FrameMetric.round()


class TestVolumeRatio:
    def test_frame_examples(self):
        assert volume_ratio(EYE, FrameMetric.berger(1.0, 3.0)) == pytest.approx(
            math.sqrt(3.0), rel=1e-12
        )
        assert volume_ratio(EYE, EYE) == 1.0
        assert volume_ratio(EYE, FrameMetric.berger(2.0, 5.0)) == pytest.approx(
            math.sqrt(10.0), rel=1e-12
        )

    def test_field_inputs_constant_ratio(self, round32, berger13_32):
        assert volume_ratio(round32, berger13_32) == pytest.approx(
            math.sqrt(3.0), rel=1e-10
        )

    def test_field_inputs_nonconstant_ratio_rejected(self, round32):
        eta, _, _ = round32.grid.meshes()
        u4 = (1.0 + 0.3 * np.cos(eta)) ** 4
        warped = MetricField(
            round32.grid, round32.g * u4[..., None, None], None, 0.0
        )
        with pytest.raises(HypothesisViolationError):
            volume_ratio(round32, warped)


class TestTheorem1Check:
    def test_boundary_fixture_1_3(self):
        rep = theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 3.0), 2.0)
        assert abs(rep.min_eig) <= 1e-10
        assert rep.verdict == "AppliesBoundary"
        assert rep.gamma == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_strict_fixture_1_35(self):
        rep = theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 3.5), 1.0)
        assert rep.min_eig == pytest.approx(2.5, abs=1e-10)
        assert rep.verdict == "AppliesStrict"
        assert rep.gamma == pytest.approx(math.sqrt(3.5), rel=1e-12)
        assert rep.strict_margin > 0.0

    def test_fails_fixture_1_2(self):
        rep = theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 2.0), 4.0)
        assert rep.min_eig == pytest.approx(-2.0, abs=1e-10)
        assert rep.verdict == "Fails"

    def test_self_comparison_is_boundary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            G = FrameMetric(a @ a.T + 3.0 * np.eye(3))
            r = float(rng.uniform(0.5, 8.0))
            rep = theorem1_check(G, r, G, r)
            assert rep.verdict == "AppliesBoundary"
            assert abs(rep.min_eig) <= 1e-12 * r * np.abs(G.matrix).max()

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_joint_rescale_invariance(self, lam):
        cases = [
            (FrameMetric.berger(1.0, 3.0), 2.0),
            (FrameMetric.berger(1.0, 3.5), 1.0),
            (FrameMetric.berger(1.0, 2.0), 4.0),
        ]
        for h, r_h in cases:
            base = theorem1_check(EYE, 6.0, h, r_h)
            # rescale the reference
            g_scaled = FrameMetric(lam * np.eye(3))
            a = theorem1_check(g_scaled, 6.0 / lam, h, r_h)
            assert a.verdict == base.verdict
            assert a.min_eig * lam == pytest.approx(
                base.min_eig, rel=1e-12, abs=1e-12
            )
            # rescale the comparison metric
            h_scaled = FrameMetric(lam * h.matrix)
            b = theorem1_check(EYE, 6.0, h_scaled, r_h / lam)
            assert b.verdict == base.verdict
            assert b.min_eig == pytest.approx(base.min_eig, rel=1e-12, abs=1e-12)

    def test_nonpositive_reference_scalar_not_applicable(self):
        rep = theorem1_check(EYE, -1.0, FrameMetric.berger(1.0, 3.0), 2.0)
        assert rep.verdict == "NotApplicable"

    def test_nonpositive_comparison_scalar_short_circuits(self):
        # eigenvalues would be fine, but R_h <= 0 routes elsewhere
        rep = theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 1.5), -0.5)
        assert rep.verdict == "AutoYamabeNonpositive"

    def test_invalid_metric_rejected(self):
        with pytest.raises(InvalidMetricError):
            theorem1_check(EYE, 6.0, FrameMetric(np.diag([1.0, -1.0, 1.0])), 2.0)

    def test_min_eig_profile_along_s1_line(self):
        # against the round reference the smallest pencil eigenvalue is
        # min(2t-2, 2(t-1)(t-3)): zero at t=1, dips to -2 at t=2, back to
        # zero at t=3, then grows to 6 at t=4 — monotone only on [2, 4]
        def min_eig(t):
            p = BergerParams(1.0, t)
            r = 8.0 - 2.0 * t
            return theorem1_check(EYE, 6.0, p.metric(), r).min_eig

        assert min_eig(1.0) == pytest.approx(0.0, abs=1e-12)
        assert min_eig(2.0) == pytest.approx(-2.0, abs=1e-12)
        assert min_eig(3.0) == pytest.approx(0.0, abs=1e-12)
        assert min_eig(4.0) == pytest.approx(6.0, abs=1e-12)
        ts = np.linspace(2.0, 4.0, 100)
        vals = [min_eig(t) for t in ts]
        assert (np.diff(vals) >= -1e-12).all()

    def test_report_serializable(self):
        rep = theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 3.0), 2.0)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["verdict"] == "AppliesBoundary"
        assert "r_g" in payload["notes"] and "r_h" in payload["notes"]


class TestBergerClassify:
    @pytest.mark.parametrize(
        "st,expected",
        [
            ((1.0, 1.0), "Einstein"),
            ((1.0, 3.0), "Theorem1Boundary"),
            ((1.0, 3.5), "Theorem1Strict"),
            ((1.0, 2.0), "PositiveScalarUnresolved"),
            ((1.0, 4.5), "AutoYamabeNonpositive"),
        ],
    )
    def test_fixtures(self, st, expected):
        cls = berger_classify(BergerParams(*st))
        assert cls.verdict == expected

    def test_strict_case_has_positive_scalar(self):
        cls = berger_classify(BergerParams(1.0, 3.5))
        assert cls.scalar == pytest.approx(1.0, abs=1e-12)
        assert cls.scalar > 0.0

    def test_nonpositive_case_scalar_sign(self):
        cls = berger_classify(BergerParams(1.0, 4.5))
        assert cls.scalar < 0.0

    def test_einstein_has_tiny_deviation(self):
        cls = berger_classify(BergerParams(1.0, 1.0))
        assert cls.einstein_deviation <= 1e-10


class TestBoundaryCurves:
    @pytest.mark.parametrize("s", [1.0, 2.25, 4.0])
    def test_criterion_curve_matches_closed_root(self, s):
        assert abs(boundary_curve(s) - (s + math.sqrt(s) + 1.0)) <= 1e-6

    @pytest.mark.parametrize("s", [1.0, 2.25, 4.0])
    def test_scalar_sign_curve_matches_closed_root(self, s):
        assert abs(scalar_sign_curve(s) - (1.0 + math.sqrt(s)) ** 2) <= 1e-6

    def test_domain_validation(self):
        with pytest.raises(InvalidMetricError):
            boundary_curve(0.5)
        with pytest.raises(InvalidMetricError):
            scalar_sign_curve(0.5)
        with pytest.raises(InvalidMetricError):
            boundary_curve(1.0, tol=0.0)


class TestPathCheck:
    def test_terminal_interval_3_to_4(self):
        rep = corollary_path_check(berger_path(1.0), 3.0, 4.0, 100)
        assert len(rep.samples) == 101
        assert rep.delta == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.endpoint_scalar) <= 1e-10
        assert all(s.min_eig >= -1e-10 for s in rep.samples)
        ts = [s.t for s in rep.samples]
        assert ts == sorted(ts)
        for s in rep.samples[:-1]:
            assert s.verdict in ("AppliesStrict", "AppliesBoundary")

    @pytest.mark.parametrize("steps", [0, 2.5, float("nan"), float("inf")])
    def test_bad_step_count_rejected(self, steps):
        with pytest.raises(InvalidMetricError):
            corollary_path_check(berger_path(1.0), 3.0, 4.0, steps)

    def test_degenerate_path(self):
        rep = corollary_path_check(berger_path(1.0), 3.0, 3.0, 5)
        assert rep.delta == 0.0
        assert rep.samples == ()
        assert rep.endpoint_scalar == pytest.approx(2.0, abs=1e-12)

    def test_longer_interval_2_to_4(self):
        # against the path's own starting metric the pencil eigenvalues
        # are (2(t-2), 2(t-2), (t-2)^2) >= 0, so the criterion holds from
        # the very start: delta spans the whole interval
        rep = corollary_path_check(berger_path(1.0), 2.0, 4.0, 100)
        assert rep.delta == pytest.approx(2.0, abs=1e-12)
        assert rep.samples[0].verdict == "AppliesBoundary"
        assert abs(rep.samples[0].min_eig) <= 1e-12
        for s in rep.samples[1:-1]:
            assert s.verdict in ("AppliesStrict", "AppliesBoundary")

    def test_gamma_tracks_volume_ratio(self):
        rep = corollary_path_check(berger_path(1.0), 3.0, 4.0, 4)
        for s in rep.samples:
            assert s.gamma == pytest.approx(math.sqrt(s.t / 3.0), rel=1e-12)

    def test_positive_scalar_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolationError, match="condition \\(3\\)"):
            corollary_path_check(berger_path(1.0), 3.0, 4.5, 100)

    def test_vanishing_endpoint_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolationError, match="condition \\(4\\)"):
            corollary_path_check(berger_path(1.0), 3.0, 3.9, 100)

    def test_report_serializable(self):
        rep = corollary_path_check(berger_path(1.0), 3.0, 4.0, 4)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["delta"] == pytest.approx(1.0)
        assert len(payload["samples"]) == 5


class TestSweep:
    def test_grid_counts_and_order(self):
        rows = berger_sweep([1.0, 2.0, 3.0, 4.0], np.linspace(1.0, 8.0, 8))
        assert len(rows) == 32
        keys = [(r["s"], r["t"]) for r in rows]
        assert keys == sorted(keys)  # s-major deterministic order

    def test_invalid_cells_flagged(self):
        rows = berger_sweep([2.0], [1.0, 2.0, 3.0])
        assert rows[0]["verdict"] == "invalid"
        assert math.isnan(rows[0]["R"])
        assert rows[1]["verdict"] != "invalid"

    def test_known_rows(self):
        rows = berger_sweep([1.0], [3.0, 3.5])
        assert rows[0]["verdict"] == "Theorem1Boundary"
        assert rows[1]["verdict"] == "Theorem1Strict"
        assert rows[0]["R"] == pytest.approx(2.0, abs=1e-12)
        assert rows[0]["gamma"] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_transitions_isolated_to_curves(self):
        ts = np.linspace(1.0, 5.0, 401)
        rows = berger_sweep([1.0], ts)
        verdicts = [r["verdict"] for r in rows]
        changes = [
            (ts[i], verdicts[i], verdicts[i + 1])
            for i in range(len(ts) - 1)
            if verdicts[i] != verdicts[i + 1]
        ]
        # Einstein point leaves immediately after t=1, then the two curve
        # crossings at t=3 (into the boundary row then strict region) and
        # the scalar sign change at t=4
        step = ts[1] - ts[0]
        assert len(changes) == 4
        assert changes[0][1] == "Einstein"
        assert abs(changes[1][0] - 3.0) <= step
        assert changes[1][2] == "Theorem1Boundary"
        assert changes[2][2] == "Theorem1Strict"
        assert abs(changes[2][0] - 3.0) <= step
        assert abs(changes[3][0] - 4.0) <= step
        assert changes[3][2] == "AutoYamabeNonpositive"
