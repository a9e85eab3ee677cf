"""Property tests of the stacked curvature engine: batched sweep rows
against the single-point queries, frame-change invariance of the scalar
curvature, scale covariance of the comparison, the Berger closed form,
rotated frames passing the structure-constant checks at every scale,
and the Ricci tensor contracted from the connection against the trace
of the full Riemann tensor and against single-metric calls, bit for
bit.  Example counts are bounded and the search is derandomized, so
the suite stays fast and every run checks the same cases."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    FrameMetric,
    InvalidMetricError,
    LieAlgebraFrame,
    berger_classify,
    berger_scalar_closed,
    berger_sweep,
    curvature_report,
    lie_curvature,
    su2_structure_constants,
    theorem1_check,
    volume_ratio,
)

SETTINGS = dict(deadline=None, derandomize=True, database=None)

# Parameters on both sides of the normalized domain 1 <= s <= t,
# including the non-finite values the sweep must mask.
PARAM = st.one_of(
    st.floats(0.5, 6.0),
    st.sampled_from([1.0, float("nan"), float("inf"), -float("inf")]),
)
UNIT = st.floats(-1.0, 1.0)


def rotation(q) -> np.ndarray:
    """Rotation matrix of the quaternion q (normalized here)."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


QUATERNION = st.tuples(UNIT, UNIT, UNIT, UNIT).filter(lambda q: np.linalg.norm(q) > 0.1)
EIGS = st.tuples(*(st.floats(0.5, 4.0),) * 3)
#: log10 of a metric's overall scale
LOG_SCALE = st.floats(-3.0, 3.0)


def spd(eigs, q) -> np.ndarray:
    o = rotation(q)
    m = o @ np.diag(eigs) @ o.T
    return 0.5 * (m + m.T)


def close(got: float, want: float) -> bool:
    """Within 1e-12 relative, or 1e-14 absolute where |want| < 1."""
    return abs(got - want) <= (1e-12 * abs(want) if abs(want) >= 1.0 else 1e-14)


@settings(max_examples=40, **SETTINGS)
@given(st.lists(PARAM, min_size=1, max_size=5), st.lists(PARAM, min_size=1, max_size=5))
def test_sweep_rows_equal_single_point_queries(s_values, t_values):
    rows = berger_sweep(s_values, t_values)
    want = np.array([(s, t) for s in s_values for t in t_values])
    assert np.array_equal(np.stack([rows["s"], rows["t"]], axis=1), want, equal_nan=True)
    frame = su2_structure_constants()
    for row in rows:
        s, t = row["s"], row["t"]
        try:
            p = BergerParams(s, t)
        except InvalidMetricError:
            assert row["verdict"] == "invalid"
            assert all(math.isnan(row[k]) for k in ("R", "einstein_dev", "min_eig", "gamma"))
            continue
        cls = berger_classify(p)
        rep = curvature_report(frame, p.metric())
        assert row["verdict"] == cls.verdict
        assert close(row["R"], rep.scalar) and close(row["R"], cls.scalar)
        assert close(row["einstein_dev"], rep.einstein_deviation)
        assert close(row["min_eig"], cls.report.min_eig)
        assert close(row["gamma"], cls.report.gamma)
        # the sweep compares against the one round reference, as a single
        # query does, bit for bit
        round_metric = FrameMetric.round()
        check = theorem1_check(round_metric, 6.0, p.metric(), row["R"])
        assert same_bits(row["min_eig"], check.min_eig)
        assert same_bits(row["gamma"], volume_ratio(round_metric, p.metric()))


@settings(max_examples=40, **SETTINGS)
@given(st.floats(1.0, 8.0), st.floats(0.0, 8.0))
def test_scalar_matches_closed_form(s, dt):
    t = s + dt
    (r,) = berger_sweep([s], [t])["R"]
    want = berger_scalar_closed(BergerParams(s, t))
    # roundoff is relative to the largest term of the closed form
    scale = 2.0 * (2.0 * (s + t + s * t) + 1.0 + s * s + t * t) / (s * t)
    assert abs(r - want) <= 1e-13 * scale


@settings(max_examples=40, **SETTINGS)
@given(EIGS, QUATERNION, QUATERNION)
def test_scalar_invariant_under_frame_rotation(eigs, q_metric, q_frame):
    """Rotating the basis by O maps G to O^T G O and c^k_ij to
    O_mk c^m_ab O_ai O_bj; the scalar curvature is a frame invariant."""
    frame = su2_structure_constants()
    G = spd(eigs, q_metric)
    o = rotation(q_frame)
    c_rot = np.einsum("mk,mab,ai,bj->kij", o, frame.c, o, o)
    G_rot = o.T @ G @ o
    base = curvature_report(frame, FrameMetric(G)).scalar
    rotated = curvature_report(
        LieAlgebraFrame(c_rot), FrameMetric(0.5 * (G_rot + G_rot.T))
    ).scalar
    # R = 2 (4 s2 - s1^2) / s3 of the eigenvalues; roundoff is relative
    # to the larger of its two terms
    a, b, c = eigs
    s1, s2, s3 = a + b + c, a * b + b * c + c * a, a * b * c
    scale = 2.0 * (4.0 * s2 + s1 * s1) / s3
    assert abs(rotated - base) <= 1e-13 * scale


@settings(max_examples=40, **SETTINGS)
@given(
    EIGS, QUATERNION, EIGS, QUATERNION,
    st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
    st.floats(0.1, 10.0), st.floats(0.1, 10.0),
)
def test_theorem1_check_is_scale_covariant(eg, qg, eh, qh, r_g, r_h, lam, mu):
    """(lam G, R_g / lam, mu H, R_h / mu) has the pencil of (G, R_g, H,
    R_h) divided by lam and the volume ratio times (mu / lam)^(3/2)."""
    G, H = spd(eg, qg), spd(eh, qh)
    base = theorem1_check(G, r_g, H, r_h)
    scaled = theorem1_check(lam * G, r_g / lam, mu * H, r_h / mu)
    size = abs(r_g) + abs(r_h) * max(eh) / min(eg)  # bounds the pencil entries
    assert abs(scaled.min_eig * lam - base.min_eig) <= 1e-13 * size
    assert math.isclose(scaled.gamma, base.gamma * (mu / lam) ** 1.5, rel_tol=1e-12)
    # the tolerances do not scale with lam, so compare verdicts only
    # where the margin clears them for every lam in [0.1, 10]
    scale = abs(r_g) * np.linalg.norm(G)
    if abs(base.min_eig) > 1e-8 * scale:
        assert scaled.verdict == base.verdict


def same_bits(got, want) -> bool:
    """Equal shapes and bytes: equal values, and signed zeros alike."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def rotated_frame(q) -> LieAlgebraFrame:
    """The su(2) frame in the basis rotated by the rotation of q."""
    o = rotation(q)
    return LieAlgebraFrame(np.einsum("mk,mab,ai,bj->kij", o, su2_structure_constants().c, o, o))


@settings(max_examples=40, **SETTINGS)
@given(QUATERNION, st.floats(-6.0, 6.0))
def test_rotated_frame_accepted_at_any_scale(q, log_scale):
    """The antisymmetry and Jacobi residuals of a rotated su(2) frame grow
    like its constants and their square; the checks, made on the
    constants divided by their largest magnitude, accept it at every
    scale."""
    c = 10.0**log_scale * rotated_frame(q).c
    assert np.array_equal(LieAlgebraFrame(c).c, c)


@settings(max_examples=60, **SETTINGS)
@given(EIGS, QUATERNION, LOG_SCALE, QUATERNION)
def test_ricci_is_the_riemann_trace(eigs, q_metric, log_scale, q_frame):
    """The Ricci tensor contracted from the connection has the bits of
    Ric(X_j, X_k) = sum_i R(X_i, X_j) X_k along X_i, symmetrized, taken
    from the report's full Riemann tensor."""
    rep = curvature_report(
        rotated_frame(q_frame), FrameMetric(spd(eigs, q_metric) * 10.0**log_scale)
    )
    trace = np.einsum("ikij->jk", rep.riemann)
    assert same_bits(rep.ricci, 0.5 * (trace + trace.T))


@settings(max_examples=30, **SETTINGS)
@given(st.sampled_from([2, 7, 64]), st.integers(0, 2**32 - 1), QUATERNION)
def test_stacked_rows_equal_single_metric_calls(n, seed, q_frame):
    """Each row of one stacked call has the bits of curvature_report on
    that row's metric alone: connection, Ricci, scalar curvature and
    Einstein deviation."""
    rng = np.random.default_rng(seed)
    frame = rotated_frame(q_frame)
    G = np.stack([
        spd(rng.uniform(0.5, 4.0, 3), rng.normal(size=4))
        * 10.0 ** rng.uniform(-3.0, 3.0)
        for _ in range(n)
    ])
    gamma, ricci, scalar = lie_curvature._ricci(frame.c, G)
    _, deviation = lie_curvature._einstein_deviation(G, ricci, scalar)
    for k in range(n):
        rep = curvature_report(frame, FrameMetric(G[k]))
        assert same_bits(gamma[k], rep.gamma_coeffs)
        assert same_bits(ricci[k], rep.ricci)
        assert same_bits(scalar[k], rep.scalar)
        assert same_bits(deviation[k], rep.einstein_deviation)
