"""Comparison criterion between two left invariant metrics.

Given a reference metric G with scalar curvature R_g > 0 and a
candidate H with scalar curvature R_h > 0, the criterion asks whether

    R_g * G  -  R_h * H   is positive (semi)definite,

equivalently whether the pencil eigenvalues of R_g I - R_h L^{-1} H L^{-T}
(L the Cholesky factor of G) are all positive.  When it holds, the
candidate inherits a lower bound on its conformal quotient from the
reference, with the volume distortion gamma = sqrt(det H / det G)
entering the bound.  Nonpositive candidate scalar curvature needs no
criterion at all, and nonpositive reference curvature is outside the
statement's hypotheses; both short-circuit.

For the Berger family compared against the round sphere the verdict
boundary is an explicit curve t*(s) = s + sqrt(s) + 1 and the scalar
curvature changes sign on the curve t = (1 + sqrt(s))^2; both are
recovered here by bisection on engine-computed quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    HypothesisViolationError,
    InvalidMetricError,
    NumericalFailureError,
)
from .lie_curvature import (
    BergerParams,
    FrameMetric,
    _curvature,
    _frobenius,
    curvature_report,
    su2_structure_constants,
)
from .su2_chart import MetricField

__all__ = [
    "VERDICT_APPLIES_STRICT",
    "VERDICT_APPLIES_BOUNDARY",
    "VERDICT_FAILS",
    "VERDICT_NOT_APPLICABLE",
    "VERDICT_AUTO_NONPOSITIVE",
    "CLASS_EINSTEIN",
    "CLASS_STRICT",
    "CLASS_BOUNDARY",
    "CLASS_UNRESOLVED",
    "CLASS_AUTO_NONPOSITIVE",
    "CriterionReport",
    "BergerClassification",
    "PathSample",
    "PathReport",
    "volume_ratio",
    "theorem1_check",
    "berger_classify",
    "boundary_curve",
    "scalar_sign_curve",
    "berger_path",
    "corollary_path_check",
    "berger_sweep",
]

# pairwise-comparison verdicts
VERDICT_APPLIES_STRICT = "AppliesStrict"
VERDICT_APPLIES_BOUNDARY = "AppliesBoundary"
VERDICT_FAILS = "Fails"
VERDICT_NOT_APPLICABLE = "NotApplicable"
VERDICT_AUTO_NONPOSITIVE = "AutoYamabeNonpositive"

# Berger-family classification labels
CLASS_EINSTEIN = "Einstein"
CLASS_STRICT = "Theorem1Strict"
CLASS_BOUNDARY = "Theorem1Boundary"
CLASS_UNRESOLVED = "PositiveScalarUnresolved"
CLASS_AUTO_NONPOSITIVE = "AutoYamabeNonpositive"

#: strict positivity threshold, relative to ||R_g G||_F
_STRICT_REL_TOL = 1e-10
#: semidefiniteness slack, relative to ||R_g G||_F
_PSD_REL_TOL = 1e-12
#: Einstein-locus threshold on the engine deviation
_EINSTEIN_TOL = 1e-10
_ROUND_SCALAR = 6.0
_RATIO_REL_TOL = 1e-8


def _as_frame_metric(m) -> FrameMetric:
    return m if isinstance(m, FrameMetric) else FrameMetric(np.asarray(m, dtype=float))


def _volume_ratio(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """sqrt(det H / det G) of stacked (N, 3, 3) metrics."""
    return np.sqrt(np.linalg.det(H) / np.linalg.det(G))


def volume_ratio(g, h) -> float:
    """Volume distortion gamma = sqrt(det h / det g).

    For frame metrics this is a single determinant ratio.  For grid
    fields the pointwise ratio must be constant across cells to within
    a relative 1e-8 (the two fields must be relatively homogeneous);
    its mean is returned.
    """
    if isinstance(g, MetricField) or isinstance(h, MetricField):
        if not (isinstance(g, MetricField) and isinstance(h, MetricField)):
            raise InvalidMetricError("volume_ratio needs two frame metrics or two fields")
        if g.grid.shape != h.grid.shape:
            raise InvalidMetricError("volume_ratio fields live on different grids")
        ratio = np.sqrt(h.det / g.det)
        mean = float(ratio.mean())
        spread = float(np.abs(ratio - mean).max())
        if spread > _RATIO_REL_TOL * abs(mean):
            raise HypothesisViolationError(
                "volume ratio is not constant across cells "
                f"(relative spread {spread / abs(mean):.3e}); "
                "the two fields are not relatively homogeneous"
            )
        return mean
    gm = _as_frame_metric(g)
    hm = _as_frame_metric(h)
    return float(_volume_ratio(gm.matrix[None], hm.matrix[None])[0])


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the pairwise comparison.  min_eig is the smallest
    pencil eigenvalue of R_g G - R_h H (computed in a G-orthonormal
    frame), strict_margin the same normalized by ||R_g G||_F, and notes
    carries the inputs and tolerances that produced the verdict."""

    gamma: float
    min_eig: float
    strict_margin: float
    verdict: str
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "min_eig": self.min_eig,
            "strict_margin": self.strict_margin,
            "verdict": self.verdict,
            "notes": dict(self.notes),
        }


def _pencil(G: np.ndarray, r_g: np.ndarray, H: np.ndarray, r_h: np.ndarray):
    """The comparison for stacked metrics G, H (N, 3, 3) and scalar
    curvatures r_g, r_h (N,): the pencil eigenvalues (N, 3) in a
    G-orthonormal frame, the scales ||R_g G||_F (N,) and the verdicts
    (N,), decided as `theorem1_check` describes."""
    chol = np.linalg.cholesky(G)
    h_on = np.swapaxes(np.linalg.solve(chol, np.swapaxes(np.linalg.solve(chol, H), 1, 2)), 1, 2)
    rg = r_g[:, None, None]
    pencil = rg * np.eye(3) - r_h[:, None, None] * 0.5 * (h_on + np.swapaxes(h_on, 1, 2))
    eigs = np.linalg.eigvalsh(pencil)
    scale = _frobenius(rg * G)
    min_eig = eigs[:, 0]
    verdict = np.select(
        [
            r_h <= 0.0,
            r_g <= 0.0,
            min_eig > _STRICT_REL_TOL * scale,
            min_eig >= -(_PSD_REL_TOL * scale),
        ],
        [
            VERDICT_AUTO_NONPOSITIVE,
            VERDICT_NOT_APPLICABLE,
            VERDICT_APPLIES_STRICT,
            VERDICT_APPLIES_BOUNDARY,
        ],
        default=VERDICT_FAILS,
    )
    return eigs, scale, verdict


def _criterion_report(eigs, scale, verdict, gamma, r_g: float, r_h: float) -> CriterionReport:
    """One row of `_pencil` output as a report."""
    min_eig = float(eigs[0])
    scale = float(scale)
    return CriterionReport(
        gamma=float(gamma),
        min_eig=min_eig,
        strict_margin=min_eig / scale if scale > 0.0 else float("nan"),
        verdict=str(verdict),
        notes={
            "r_g": r_g,
            "r_h": r_h,
            "eigenvalues": eigs.tolist(),
            "tol_strict": _STRICT_REL_TOL * scale,
            "tol_psd": _PSD_REL_TOL * scale,
        },
    )


def theorem1_check(g, r_g: float, h, r_h: float) -> CriterionReport:
    """Decide whether R_g * G - R_h * H is positive (semi)definite.

    The pencil eigenvalues are always computed (callers want them even
    when a short circuit decides the verdict).  Cascade: nonpositive
    R_h means the candidate needs no comparison at all
    (AutoYamabeNonpositive); nonpositive R_g puts the reference outside
    the hypotheses (NotApplicable); otherwise the minimal eigenvalue
    against tolerances scaled by ||R_g G||_F separates strict / boundary
    / failing cases.
    """
    gm = _as_frame_metric(g)
    hm = _as_frame_metric(h)
    r_g = float(r_g)
    r_h = float(r_h)
    if not (np.isfinite(r_g) and np.isfinite(r_h)):
        raise InvalidMetricError(f"scalar curvatures must be finite, got {r_g}, {r_h}")
    eigs, scale, verdict = _pencil(
        gm.matrix[None], np.array([r_g]), hm.matrix[None], np.array([r_h])
    )
    return _criterion_report(eigs[0], scale[0], verdict[0], volume_ratio(gm, hm), r_g, r_h)


@dataclass(frozen=True)
class BergerClassification:
    """Where a Berger metric lands relative to the round reference."""

    params: BergerParams
    verdict: str
    scalar: float
    einstein_deviation: float
    report: CriterionReport

    def to_dict(self) -> dict:
        return {
            "s": self.params.s,
            "t": self.params.t,
            "verdict": self.verdict,
            "scalar": self.scalar,
            "einstein_deviation": self.einstein_deviation,
            "report": self.report.to_dict(),
        }


def _classify_berger(s: np.ndarray, t: np.ndarray) -> dict:
    """Classify diag(1, s, t) for arrays of in-domain parameters (as
    `berger_classify` describes) in one stacked computation.  Returns
    columns: "R", "einstein_dev", "eigs", "scale", "check" (the pairwise
    verdict), "gamma" and "verdict" (the classification)."""
    H = np.zeros((len(s), 3, 3))
    H[:, 0, 0] = 1.0
    H[:, 1, 1] = s
    H[:, 2, 2] = t
    G = np.broadcast_to(np.eye(3), H.shape)
    _, _, _, scalar, _, deviation = _curvature(su2_structure_constants().c, H)
    eigs, scale, check = _pencil(G, np.full(len(s), _ROUND_SCALAR), H, scalar)
    verdict = np.select(
        [
            deviation <= _EINSTEIN_TOL,
            check == VERDICT_AUTO_NONPOSITIVE,
            check == VERDICT_APPLIES_STRICT,
            check == VERDICT_APPLIES_BOUNDARY,
        ],
        [CLASS_EINSTEIN, CLASS_AUTO_NONPOSITIVE, CLASS_STRICT, CLASS_BOUNDARY],
        default=CLASS_UNRESOLVED,
    )
    return {
        "R": scalar,
        "einstein_dev": deviation,
        "eigs": eigs,
        "scale": scale,
        "check": check,
        "gamma": _volume_ratio(G, H),
        "verdict": verdict,
    }


def berger_classify(p: BergerParams) -> BergerClassification:
    """Classify diag(1, s, t) against the round sphere (G = I, R_g = 6).

    Einstein metrics are recognized first (engine deviation at most
    1e-10, which in this family means the round point).  Otherwise the
    verdict translates the pairwise comparison: nonpositive scalar
    curvature resolves automatically, a passing comparison transfers
    the round bound, and a failing one leaves the metric unresolved by
    this criterion.
    """
    col = _classify_berger(np.array([p.s]), np.array([p.t]))
    scalar = float(col["R"][0])
    return BergerClassification(
        params=p,
        verdict=str(col["verdict"][0]),
        scalar=scalar,
        einstein_deviation=float(col["einstein_dev"][0]),
        report=_criterion_report(
            col["eigs"][0], col["scale"][0], col["check"][0], col["gamma"][0],
            _ROUND_SCALAR, scalar,
        ),
    )


def _bisect(fun: Callable[[float], float], lo: float, hi: float, tol: float, what: str) -> float:
    f_lo, f_hi = fun(lo), fun(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        raise HypothesisViolationError(f"{what}: non-finite values at the bracket ends")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise HypothesisViolationError(
            f"{what}: no sign change on [{lo:.6g}, {hi:.6g}] "
            f"(f = {f_lo:.3e} and {f_hi:.3e})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _berger_min_eig(frame, s: float, t: float) -> float:
    metric = BergerParams(s, t).metric()
    scal = curvature_report(frame, metric).scalar
    return theorem1_check(FrameMetric.round(), _ROUND_SCALAR, metric, scal).min_eig


def boundary_curve(s: float, tol: float = 1e-8) -> float:
    """The t at which diag(1, s, t) crosses from failing to passing the
    comparison against the round sphere, located by bisection on the
    minimal pencil eigenvalue over t in (s, s + 4]."""
    s = float(s)
    if not np.isfinite(s) or s < 1.0:
        raise InvalidMetricError(f"boundary_curve needs s >= 1, got {s}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise InvalidMetricError(f"tolerance must be positive, got {tol}")
    frame = su2_structure_constants()
    t_star = _bisect(
        lambda t: _berger_min_eig(frame, s, t), s + 1e-3, s + 4.0, tol, "criterion boundary curve"
    )
    # Self-check against the closed-form root t = s + sqrt(s) + 1; the
    # bisection is the computation, the closed form only guards it.
    expected = s + math.sqrt(s) + 1.0
    if abs(t_star - expected) > 1e-6:
        raise NumericalFailureError(
            f"criterion boundary curve at s={s:g} found t={t_star:.9f}, "
            f"inconsistent with the closed-form root {expected:.9f}"
        )
    return t_star


def scalar_sign_curve(s: float, tol: float = 1e-8) -> float:
    """The t at which the scalar curvature of diag(1, s, t) changes
    sign, located by bisection over t in [s, s + 8]."""
    s = float(s)
    if not np.isfinite(s) or s < 1.0:
        raise InvalidMetricError(f"scalar_sign_curve needs s >= 1, got {s}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise InvalidMetricError(f"tolerance must be positive, got {tol}")

    frame = su2_structure_constants()

    def fun(t: float) -> float:
        return curvature_report(frame, BergerParams(s, t).metric()).scalar

    t_zero = _bisect(fun, s, s + 8.0, tol, "scalar curvature sign curve")
    expected = (1.0 + math.sqrt(s)) ** 2
    if abs(t_zero - expected) > 1e-6:
        raise NumericalFailureError(
            f"scalar sign curve at s={s:g} found t={t_zero:.9f}, "
            f"inconsistent with the closed-form root {expected:.9f}"
        )
    return t_zero


def berger_path(s: float) -> Callable[[float], BergerParams]:
    """The one-parameter family t -> diag(1, s, t) at fixed s."""
    s = float(s)
    return lambda t: BergerParams(s, t)


@dataclass(frozen=True)
class PathSample:
    t: float
    scalar: float
    min_eig: float
    gamma: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "scalar": self.scalar,
            "min_eig": self.min_eig,
            "gamma": self.gamma,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class PathReport:
    """Sampled run of the comparison along a metric path ending at a
    scalar-flat metric.  delta is the length of the terminal parameter
    window on which the comparison holds at every sample (endpoint
    excluded: the endpoint is scalar flat, so the comparison no longer
    speaks there)."""

    t_start: float
    t_end: float
    steps: int
    samples: tuple[PathSample, ...]
    delta: float
    endpoint_scalar: float

    def to_dict(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "steps": self.steps,
            "delta": self.delta,
            "endpoint_scalar": self.endpoint_scalar,
            "samples": [s.to_dict() for s in self.samples],
        }


def corollary_path_check(
    path: Callable[[float], BergerParams],
    t_start: float,
    t_end: float,
    steps: int,
    end_tol: float = 1e-10,
) -> PathReport:
    """Check the path hypotheses and measure the terminal window on
    which the comparison against the path's starting metric holds.

    The path is sampled at steps + 1 uniform parameters and each sample
    is compared against path(t_start) (the start compares against
    itself, landing exactly on the boundary verdict).  Hypotheses:
    scalar curvature must be positive at every sample before the
    endpoint (condition 3) and must vanish to `end_tol` at the endpoint
    (condition 4); violations raise with the violated condition named.
    delta is t_end minus the first parameter of the terminal block of
    samples (endpoint excluded) where the comparison verdict is strict
    or boundary; a degenerate path (t_start = t_end) has empty interior
    and delta 0 with nothing to check.

    The curvature and the comparison of all samples are one stacked
    computation.  Unlike `berger_sweep`, nothing is masked: a sample
    the path rejects (outside the normalized domain) raises
    InvalidMetricError before any of it runs.
    """
    t_start = float(t_start)
    t_end = float(t_end)
    if not (np.isfinite(t_start) and np.isfinite(t_end)) or t_end < t_start:
        raise InvalidMetricError(f"need t_start <= t_end, got [{t_start}, {t_end}]")
    if steps != steps or steps in (np.inf, -np.inf) or int(steps) != steps or steps < 1:
        raise InvalidMetricError(f"steps must be a positive integer, got {steps}")

    if t_end == t_start:
        p = path(t_start)
        rep = curvature_report(su2_structure_constants(), p.metric())
        return PathReport(
            t_start=t_start,
            t_end=t_end,
            steps=int(steps),
            samples=(),
            delta=0.0,
            endpoint_scalar=rep.scalar,
        )

    ts = t_start + (t_end - t_start) * np.arange(steps + 1) / steps
    H = np.stack([path(t).metric().matrix for t in ts.tolist()])
    _, _, _, scalar, _, _ = _curvature(su2_structure_constants().c, H)
    # ts[0] == t_start, so the first sample is the reference metric
    G = np.broadcast_to(H[0], H.shape)
    eigs, _, verdict = _pencil(G, np.full(len(ts), scalar[0]), H, scalar)
    samples = [
        PathSample(t=t, scalar=r, min_eig=m, gamma=g, verdict=v)
        for t, r, m, g, v in zip(
            ts.tolist(),
            scalar.tolist(),
            eigs[:, 0].tolist(),
            _volume_ratio(G, H).tolist(),
            verdict.tolist(),
        )
    ]

    endpoint_scalar = samples[-1].scalar
    for smp in samples[:-1]:
        if smp.scalar <= 0.0:
            raise HypothesisViolationError(
                "condition (3) violated: scalar curvature must be positive "
                f"before the endpoint, got {smp.scalar:.6g} at t = {smp.t:.6g}"
            )
    if abs(endpoint_scalar) > end_tol:
        raise HypothesisViolationError(
            "condition (4) violated: endpoint scalar curvature must vanish, "
            f"got {endpoint_scalar:.6g} at t = {samples[-1].t:.6g} (tol {end_tol:g})"
        )

    # The endpoint sample is scalar-flat by construction, so its verdict is
    # the nonpositive-scalar branch rather than Applies*; the terminal run of
    # Applies verdicts is therefore scanned over the interior samples, and
    # delta measures from the start of that run to t_end.
    holds = [
        smp.verdict in (VERDICT_APPLIES_STRICT, VERDICT_APPLIES_BOUNDARY)
        for smp in samples[:-1]
    ]
    delta = 0.0
    if holds and holds[-1]:
        first = len(holds) - 1
        while first > 0 and holds[first - 1]:
            first -= 1
        delta = t_end - samples[first].t
    return PathReport(
        t_start=t_start,
        t_end=t_end,
        steps=int(steps),
        samples=tuple(samples),
        delta=float(delta),
        endpoint_scalar=endpoint_scalar,
    )


def berger_sweep(s_values, t_values) -> list[dict]:
    """Classify a grid of Berger parameters; one row per (s, t) in
    s-major order.

    The whole grid is one stacked computation.  Pairs outside the
    normalized domain (non-finite, s < 1, or t < s) are masked out of
    it: their rows carry the verdict "invalid" and NaN numeric columns,
    and the remaining rows are exactly what `berger_classify` returns
    for the same parameters.
    """
    s, t = (
        a.ravel()
        for a in np.meshgrid(
            np.asarray(s_values, dtype=float), np.asarray(t_values, dtype=float), indexing="ij"
        )
    )
    valid = np.isfinite(s) & np.isfinite(t) & (1.0 <= s) & (s <= t)
    cols = {
        "s": s,
        "t": t,
        "R": np.full(s.shape, np.nan),
        "einstein_dev": np.full(s.shape, np.nan),
        "min_eig": np.full(s.shape, np.nan),
        "gamma": np.full(s.shape, np.nan),
        "verdict": np.full(s.shape, "invalid", dtype=object),
    }
    classified = _classify_berger(s[valid], t[valid])
    classified["min_eig"] = classified["eigs"][:, 0]
    for key in ("R", "einstein_dev", "min_eig", "gamma", "verdict"):
        cols[key][valid] = classified[key]
    lists = {key: col.tolist() for key, col in cols.items()}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]
