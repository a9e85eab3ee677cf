"""Decision procedures: volume ratio, comparison pencil, Berger-region
classification, boundary curves, deformation paths, and sweeps."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    FrameMetric,
    HopfGrid,
    HypothesisViolationError,
    InvalidMetricError,
    MetricField,
    NumericalFailureError,
    berger_classify,
    berger_sweep,
    boundary_curve,
    chart_metric,
    corollary_path_check,
    scalar_sign_curve,
    theorem1_check,
    volume_ratio,
)
from relyamabe import criterion
from relyamabe.cli import render_payload

EYE = FrameMetric.round()

#: in-domain Berger queries whose curvature data overflow, each with the
#: parameter its error names
OVERFLOWING = [
    (lambda: berger_classify(BergerParams(1.0, 1e200)), "1e+200"),
    (lambda: berger_sweep([1.0], [2.0, 1e200]), "1e+200"),
    (lambda: berger_sweep([1e155], [1e155]), "1e+155"),
    (lambda: corollary_path_check(1.0, 3.0, 1e200, 3), "3.3333333333333334e+199"),
    (lambda: theorem1_check(EYE, 6.0, FrameMetric.berger(1e155, 1e155), 1.0), "1e+155"),
    (lambda: volume_ratio(FrameMetric.berger(1e155, 1e155), EYE), "1e+155"),
    (
        lambda: theorem1_check(
            FrameMetric(1e-200 * np.eye(3)), 6e200, FrameMetric(1e200 * np.eye(3)), 6e-200
        ),
        "1e+200",
    ),
    (
        lambda: theorem1_check(EYE, 6.0, FrameMetric(np.diag([1e10, 1.0, 1.0])), 1e300),
        "10000000000.0, 1.0, 1.0",
    ),
    (lambda: theorem1_check(FrameMetric.berger(1.0, 1e10), 1e150, EYE, 6.0), "10000000000.0"),
    # entries near the largest float: the frame metric halves before it sums
    (lambda: theorem1_check(EYE, 6.0, FrameMetric.berger(1.0, 1e308), 1.0), "1e+308"),
    (lambda: corollary_path_check(1.0, 1e308, 1e308, 3), "1e+308"),
]


@pytest.mark.parametrize(
    "query, parameter",
    OVERFLOWING,
    ids=[
        "classify", "sweep", "sweep-volume", "path", "check-volume", "ratio-reference",
        "check-pencil-scales", "check-pencil", "check-scale", "check-largest-float",
        "path-degenerate",
    ],
)
def test_overflowing_curvature_raises_naming_the_metric(query, parameter):
    # RuntimeWarning is an error under the test configuration, so this
    # also checks that the overflow warns nowhere on the way
    with pytest.raises(NumericalFailureError, match=rf"diag\(.*{re.escape(parameter)}\)"):
        query()


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

    def test_field_inputs_far_apart_in_scale(self):
        # the sqrt_det ratio of these scalings is 1e300, finite and
        # constant; one more factor of about 1e13 overflows it
        base = chart_metric(HopfGrid.cube(4), BergerParams(1.0, 1.0))
        far = volume_ratio(MetricField(base.grid, 1e-100 * base.g),
                           MetricField(base.grid, 1e100 * base.g))
        assert far == pytest.approx(1e300, rel=1e-12)
        with pytest.raises(NumericalFailureError, match="overflows"):
            volume_ratio(MetricField(base.grid, 1e-107 * base.g),
                         MetricField(base.grid, 1e102 * base.g))

    def test_field_inputs_nonconstant_ratio_rejected(self, round32):
        eta, _, _ = round32.grid.meshes()
        u4 = (1.0 + 0.3 * np.cos(eta)) ** 4
        warped = MetricField(round32.grid, round32.g * u4, None, 0.0)
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
        payload = json.loads(render_payload(vars(rep), "json"))
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

    @pytest.mark.parametrize(
        "s, t_star, t_flat",
        [(1.0, 3.0, 4.0), (2.25, 4.75, 6.25), (4.0, 7.0, 9.0), (9.0, 13.0, 16.0)],
    )
    def test_exact_inputs_give_exact_roots(self, s, t_star, t_flat):
        assert boundary_curve(s) == t_star
        assert scalar_sign_curve(s) == t_flat

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 1e6))
    def test_exact_sign_flips_between_the_neighbours_of_each_root(self, s):
        # (t - 1 - s)^2 - s is (s/2)(6 - R t) and 4s - (t - 1 - s)^2 is
        # (s/2) R t: each changes sign on its curve, exactly
        def boundary(t):
            return (Fraction(t) - 1 - Fraction(s)) ** 2 - Fraction(s)

        def flat(t):
            return 4 * Fraction(s) - (Fraction(t) - 1 - Fraction(s)) ** 2

        for root, closed, sign in (
            (boundary_curve, s + math.sqrt(s) + 1.0, boundary),
            (scalar_sign_curve, s + 2.0 * math.sqrt(s) + 1.0, flat),
        ):
            t = root(s)
            assert t == closed
            below, above = (sign(math.nextafter(t, side)) for side in (-math.inf, math.inf))
            assert below * above < 0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 1e3))
    def test_boundary_curve_splits_the_engine_verdicts(self, s):
        t = boundary_curve(s)
        below = berger_classify(BergerParams(s, t * (1.0 - 1e-6)))
        above = berger_classify(BergerParams(s, t * (1.0 + 1e-6)))
        assert (below.verdict, above.verdict) == ("PositiveScalarUnresolved", "Theorem1Strict")
        assert below.report.verdict == "Fails"

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 1e3))
    def test_scalar_sign_curve_splits_the_engine_sign(self, s):
        t = scalar_sign_curve(s)
        assert berger_classify(BergerParams(s, t * (1.0 - 1e-6))).scalar > 0.0
        assert berger_classify(BergerParams(s, t * (1.0 + 1e-6))).scalar < 0.0

    @pytest.mark.parametrize("s", [9.0, 10.0, 12.25, 13.0, 25.0, 1e6])
    def test_closed_forms_at_large_s(self, s):
        assert boundary_curve(s) == s + math.sqrt(s) + 1.0
        assert scalar_sign_curve(s) == s + 2.0 * math.sqrt(s) + 1.0
        assert abs(scalar_sign_curve(s) - (1.0 + math.sqrt(s)) ** 2) <= 3 * math.ulp(s)

    @pytest.mark.parametrize("root", [boundary_curve, scalar_sign_curve], ids=["boundary", "sign"])
    @pytest.mark.parametrize("s", [1.0, 2.25, 5.5, 8.75])
    def test_roots_make_no_engine_call(self, monkeypatch, root, s):
        calls = []
        engine = criterion._ricci
        monkeypatch.setattr(criterion, "_ricci", lambda *a: calls.append(a) or engine(*a))
        root(s)
        assert calls == []

    def test_domain_validation(self):
        with pytest.raises(InvalidMetricError):
            boundary_curve(0.5)
        with pytest.raises(InvalidMetricError):
            scalar_sign_curve(0.5)
        # the roots are closed forms: there is no tolerance
        for root in (boundary_curve, scalar_sign_curve):
            with pytest.raises(TypeError, match="tol"):
                root(2.0, tol=1e-8)

    @pytest.mark.parametrize("root", [boundary_curve, scalar_sign_curve])
    def test_nan_s_rejected(self, root):
        with pytest.raises(InvalidMetricError, match=r"supports 1 <= s <= 1e\+06, got s=nan"):
            root(float("nan"))

    @pytest.mark.parametrize("root", [boundary_curve, scalar_sign_curve])
    @pytest.mark.parametrize("s", [1e7, 1e17, 1e200])
    def test_s_beyond_the_bracket_growth_rejected(self, root, s):
        # the closed forms were sampled to one ulp up to s = 1e6; from
        # about s = 1e32 the exact check of a root fails outright
        with pytest.raises(InvalidMetricError, match=r"supports 1 <= s <= 1e\+06"):
            root(s)


class TestPathCheck:
    def test_terminal_interval_3_to_4(self):
        rep = corollary_path_check(1.0, 3.0, 4.0, 100)
        assert len(rep.samples) == 101
        assert rep.delta == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.endpoint_scalar) <= 1e-10
        assert not rep.samples.flags.writeable
        assert np.all(rep.samples["min_eig"] >= -1e-10)
        assert np.all(np.diff(rep.samples["t"]) > 0.0)
        assert set(rep.samples["verdict"][:-1]) <= {"AppliesStrict", "AppliesBoundary"}

    @pytest.mark.parametrize(
        "steps", [0, 2.5, 1.5, float("nan"), float("inf"), True, False, np.True_]
    )
    def test_bad_step_count_rejected(self, steps):
        with pytest.raises(InvalidMetricError, match="steps must be a positive integer"):
            corollary_path_check(1.0, 3.0, 4.0, steps)

    @pytest.mark.parametrize(
        "steps", [10.0, np.float64(10.0), np.int64(10)], ids=["float", "float64", "int64"]
    )
    def test_whole_step_count_behaves_like_the_int(self, steps):
        rep = corollary_path_check(1.0, 3.0, 4.0, steps)
        got, ref = dict(vars(rep)), dict(vars(corollary_path_check(1.0, 3.0, 4.0, 10)))
        assert np.array_equal(got.pop("samples"), ref.pop("samples"))
        assert got == ref
        assert type(rep.steps) is int

    def test_degenerate_path(self):
        rep = corollary_path_check(1.0, 3.0, 3.0, 5)
        assert rep.delta == 0.0
        assert len(rep.samples) == 0
        assert rep.samples.dtype.names == ("t", "scalar", "min_eig", "gamma", "verdict")
        assert not rep.samples.flags.writeable
        assert rep.endpoint_scalar == pytest.approx(2.0, abs=1e-12)

    def test_longer_interval_2_to_4(self):
        # against the path's own starting metric the pencil eigenvalues
        # are (2(t-2), 2(t-2), (t-2)^2) >= 0, so the criterion holds from
        # the very start: delta spans the whole interval
        rep = corollary_path_check(1.0, 2.0, 4.0, 100)
        assert rep.delta == pytest.approx(2.0, abs=1e-12)
        assert rep.samples["verdict"][0] == "AppliesBoundary"
        assert abs(rep.samples["min_eig"][0]) <= 1e-12
        assert set(rep.samples["verdict"][1:-1]) <= {"AppliesStrict", "AppliesBoundary"}

    def test_gamma_tracks_volume_ratio(self):
        rep = corollary_path_check(1.0, 3.0, 4.0, 4)
        samples = rep.samples
        assert samples["gamma"] == pytest.approx(np.sqrt(samples["t"] / 3.0), rel=1e-12)

    def test_positive_scalar_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolationError, match="condition \\(3\\)"):
            corollary_path_check(1.0, 3.0, 4.5, 100)

    def test_vanishing_endpoint_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolationError, match="condition \\(4\\)"):
            corollary_path_check(1.0, 3.0, 3.9, 100)

    def test_report_serializable(self):
        rep = corollary_path_check(1.0, 3.0, 4.0, 4)
        payload = json.loads(render_payload(vars(rep), "json"))
        assert payload["delta"] == pytest.approx(1.0)
        assert len(payload["samples"]) == 5


class TestSweep:
    def test_grid_counts_and_order(self):
        rows = berger_sweep([1.0, 2.0, 3.0, 4.0], np.linspace(1.0, 8.0, 8))
        assert len(rows) == 32
        assert rows.dtype.names == ("s", "t", "R", "einstein_dev", "min_eig", "gamma", "verdict")
        keys = list(zip(rows["s"].tolist(), rows["t"].tolist()))
        assert keys == sorted(keys)  # s-major deterministic order

    def test_invalid_cells_flagged(self):
        rows = berger_sweep([2.0], [1.0, 2.0, 3.0])
        assert rows["verdict"][0] == "invalid"
        assert math.isnan(rows["R"][0])
        assert rows["verdict"][1] != "invalid"

    def test_known_rows(self):
        rows = berger_sweep([1.0], [3.0, 3.5])
        assert rows["verdict"].tolist() == ["Theorem1Boundary", "Theorem1Strict"]
        assert rows["R"][0] == pytest.approx(2.0, abs=1e-12)
        assert rows["gamma"][0] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_transitions_isolated_to_curves(self):
        ts = np.linspace(1.0, 5.0, 401)
        rows = berger_sweep([1.0], ts)
        verdicts = rows["verdict"]
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


def select_verdicts(r_g, r_h, min_eig, scale):
    """The comparison verdicts as the np.select cascade that `_compare`
    ran before its first-true lookup."""
    return np.select(
        [r_h <= 0.0, np.full(len(r_h), r_g <= 0.0), min_eig > 1e-10 * scale,
         min_eig >= -(1e-12 * scale)],
        ["AutoYamabeNonpositive", "NotApplicable", "AppliesStrict", "AppliesBoundary"],
        default="Fails",
    )


def select_classes(deviation, check):
    """The Berger classifications as the np.select cascade that
    `_classify_berger` ran before its first-true lookup."""
    return np.select(
        [deviation <= 1e-10, check == "AutoYamabeNonpositive", check == "AppliesStrict",
         check == "AppliesBoundary"],
        ["Einstein", "AutoYamabeNonpositive", "Theorem1Strict", "Theorem1Boundary"],
        default="PositiveScalarUnresolved",
    )


def assert_same_labels(got, want):
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def verdict_inputs(draw):
    """A reference scalar curvature and scale, and rows of candidate
    scalar curvatures and smallest pencil eigenvalues, many of them on
    a tolerance, one ulp either side of it, signed zeros or NaN."""
    scale = draw(st.sampled_from([0.0, 6.0 * math.sqrt(3.0), 1e-300, 1e300])
                 | st.floats(0.0, 1e12))
    strict, psd = 1e-10 * scale, -(1e-12 * scale)
    edges = [x for tol in (strict, psd) for x in (tol, math.nextafter(tol, math.inf),
                                                    math.nextafter(tol, -math.inf))]
    edges += [math.nan, 0.0, -0.0]
    n = draw(st.integers(0, 12))
    min_eig = draw(st.lists(st.sampled_from(edges) | st.floats(), min_size=n, max_size=n))
    r_h = draw(st.lists(st.sampled_from([0.0, -0.0, -1.0, 5e-324, 6.0])
                        | st.floats(allow_nan=False), min_size=n, max_size=n))
    r_g = draw(st.sampled_from([-1.0, -0.0, 0.0, 6.0]) | st.floats(allow_nan=False))
    return r_g, np.array(r_h, dtype=float), np.array(min_eig, dtype=float), scale


class TestFirstTrueVerdicts:
    """The verdicts and classifications are one first-true lookup each,
    with the labels, order and dtype of the np.select cascades they
    replace."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(verdict_inputs())
    def test_verdicts_equal_the_select_cascade(self, inputs):
        assert_same_labels(criterion._verdicts(*inputs), select_verdicts(*inputs))

    def test_cascade_edges(self):
        scale = 6.0 * math.sqrt(3.0)
        strict, psd = 1e-10 * scale, -(1e-12 * scale)
        r_h = np.array([-1.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        min_eig = np.array([1.0, 1.0, math.nan, strict, math.nextafter(strict, math.inf), psd,
                            math.nextafter(psd, -math.inf), 0.0])
        want = ["AutoYamabeNonpositive", "AutoYamabeNonpositive", "Fails", "AppliesBoundary",
                "AppliesStrict", "AppliesBoundary", "Fails", "AppliesBoundary"]
        assert criterion._verdicts(6.0, r_h, min_eig, scale).tolist() == want
        # a nonpositive reference: a nonpositive candidate still wins
        want = ["AutoYamabeNonpositive"] * 2 + ["NotApplicable"] * 6
        for r_g in (0.0, -6.0):
            assert criterion._verdicts(r_g, r_h, min_eig, scale).tolist() == want

    @pytest.mark.parametrize("r_g", [6.0, 0.0, -2.0])
    def test_compare_equals_the_select_cascade(self, r_g):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        G = a @ a.T + np.eye(3)
        H = criterion._berger_metrics(1.0 + 3.0 * rng.random(200), 1.0 + 8.0 * rng.random(200))
        H[0] = G  # a self-comparison lands on the boundary
        r_h = np.where(rng.random(200) < 0.3, -rng.random(200), 6.0 * rng.random(200))
        r_h[1] = 0.0
        col = criterion._compare(G, r_g, H, r_h)
        assert_same_labels(col["check"], select_verdicts(r_g, r_h, col["eigs"][:, 0], col["scale"]))
        assert col["check"][1] == "AutoYamabeNonpositive"

    def test_classify_berger_equals_the_select_cascade(self):
        s, t = (a.ravel() for a in np.meshgrid(np.linspace(1.0, 4.0, 31), np.linspace(1.0, 9.0, 41)))
        keep = s <= t
        s, t = np.append(s[keep], [1.0, 1.0]), np.append(t[keep], [1.0, 3.0])
        col = criterion._classify_berger(s, t)
        assert_same_labels(col["verdict"], select_classes(col["einstein_dev"], col["check"]))
        assert set(col["verdict"].tolist()) == {
            "Einstein", "AutoYamabeNonpositive", "Theorem1Strict", "Theorem1Boundary",
            "PositiveScalarUnresolved",
        }
