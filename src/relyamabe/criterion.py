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

For the Berger family diag(1, s, t), s <= t, the scalar curvature
obeys R t = 8 - (2/s)(t - 1 - s)^2.  So R changes sign on the curve
t = s + 2 sqrt(s) + 1, and against the round sphere the largest pencil
entry R t reaches R_g = 6, the verdict boundary, on the curve
t*(s) = s + sqrt(s) + 1.  Both are returned in those closed forms, each
proved within one ulp of the true root at every call by the identity's
exact sign at the two neighbouring floats.  The scalar-flat curve is
not evaluated as (1 + sqrt(s))^2: the square of a rounded sum misses
the root by two or three ulps for some s, while s + 2 sqrt(s) + 1,
whose 2 sqrt(s) is exact, passes the one-ulp check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    HypothesisViolationError,
    InvalidMetricError,
    NumericalFailureError,
    _whole,
)
from .lie_curvature import (
    BergerParams,
    FrameMetric,
    _einstein_deviation,
    _frobenius,
    _orthonormal,
    _require_finite,
    _ricci,
    curvature_report,  # not called here: benchmarks/selftest.py reads criterion.curvature_report
    su2_structure_constants,
)

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
    "PathReport",
    "volume_ratio",
    "theorem1_check",
    "berger_classify",
    "boundary_curve",
    "scalar_sign_curve",
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

#: the labels of the verdict and classification cascades, in order,
#: each with its default last
_VERDICTS = np.array([
    VERDICT_AUTO_NONPOSITIVE,
    VERDICT_NOT_APPLICABLE,
    VERDICT_APPLIES_STRICT,
    VERDICT_APPLIES_BOUNDARY,
    VERDICT_FAILS,
])
_CLASSES = np.array(
    [CLASS_EINSTEIN, CLASS_AUTO_NONPOSITIVE, CLASS_STRICT, CLASS_BOUNDARY, CLASS_UNRESOLVED]
)

#: strict positivity threshold, relative to ||R_g G||_F
_STRICT_REL_TOL = 1e-10
#: semidefiniteness slack, relative to ||R_g G||_F
_PSD_REL_TOL = 1e-12
#: Einstein-locus threshold on the engine deviation
_EINSTEIN_TOL = 1e-10
_ROUND_SCALAR = 6.0
_RATIO_REL_TOL = 1e-8
#: how close to zero the path endpoint's scalar curvature must be
_END_TOL = 1e-10
#: largest s the Berger roots accept: the exact check needs the float
#: below each root to lie past the parabola's vertex s + 1, which fails
#: once sqrt(s) nears the float spacing at s (from about s = 1e32), and
#: the closed forms were sampled to one ulp up to 1e6
_ROOT_S_MAX = 1e6

#: the fields, in column order, of a `berger_sweep` row and of a
#: `PathReport` sample
_SWEEP_ROW = np.dtype(
    [(f, "f8") for f in ("s", "t", "R", "einstein_dev", "min_eig", "gamma")] + [("verdict", "O")]
)
_PATH_SAMPLE = np.dtype(
    [(f, "f8") for f in ("t", "scalar", "min_eig", "gamma")] + [("verdict", "O")]
)


def _as_frame_metric(m) -> FrameMetric:
    return m if isinstance(m, FrameMetric) else FrameMetric(np.asarray(m, dtype=float))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _volume_ratio(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """sqrt(det H / det G) of stacked metrics H (N, 3, 3) against one
    reference G (3, 3).  A determinant det G or a ratio that overflows
    raises NumericalFailureError naming its metric."""
    det_g = np.linalg.det(G)
    _require_finite(G[None], det_g[None])
    gamma = np.sqrt(np.linalg.det(H) / det_g)
    _require_finite(H, gamma)
    return gamma


def volume_ratio(g, h) -> float:
    """Volume distortion gamma = sqrt(det h / det g).

    For frame metrics this is `_volume_ratio` of the pair, so a
    determinant or ratio that overflows raises NumericalFailureError.
    For grid fields the pointwise ratio is h.sqrt_det / g.sqrt_det; it
    must be constant across cells to within a relative 1e-8 (the two
    fields must be relatively homogeneous), and its mean is returned.  A
    mean that overflows raises NumericalFailureError.
    """
    if hasattr(g, "sqrt_det") or hasattr(h, "sqrt_det"):
        # a grid field: a frame metric has no sqrt_det and never loads the grid layer
        from .su2_chart import MetricField, _finite

        if not (isinstance(g, MetricField) and isinstance(h, MetricField)):
            raise InvalidMetricError("volume_ratio needs two frame metrics or two fields")
        if g.grid.shape != h.grid.shape:
            raise InvalidMetricError("volume_ratio fields live on different grids")
        with np.errstate(over="ignore"):
            ratio = h.sqrt_det / g.sqrt_det
            mean = float(_finite(ratio.mean(), "the volume ratio of the two fields"))
        spread = float(np.abs(ratio - mean).max())
        if spread > _RATIO_REL_TOL * abs(mean):
            raise HypothesisViolationError(
                "volume ratio is not constant across cells "
                f"(relative spread {spread / abs(mean):.3e}); "
                "the two fields are not relatively homogeneous"
            )
        return mean
    return float(_volume_ratio(_as_frame_metric(g).matrix, _as_frame_metric(h).matrix[None])[0])


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


@np.errstate(over="ignore", invalid="ignore")
def _compare(G: np.ndarray, r_g: float, H: np.ndarray, r_h: np.ndarray) -> dict:
    """The comparison of stacked metrics H (N, 3, 3) with scalar
    curvatures r_h (N,) against one reference G (3, 3) with scalar
    curvature r_g, decided as `theorem1_check` describes.  Returns
    columns: "eigs" (the pencil eigenvalues of R_g G - R_h H in a
    G-orthonormal frame, (N, 3), ascending), "scale" (||R_g G||_F),
    "check" (the verdicts) and "gamma" (the volume ratios).  A pencil,
    scale, determinant or ratio that overflows raises
    NumericalFailureError naming its metric."""
    pencil = r_g * np.eye(3) - r_h[:, None, None] * _orthonormal(G, H)
    _require_finite(H, pencil)
    eigs = np.linalg.eigvalsh(pencil)
    (scale,) = _frobenius(r_g * G[None])
    _require_finite(G[None], scale[None])
    check = _verdicts(r_g, r_h, eigs[:, 0], scale)
    return {"eigs": eigs, "scale": scale, "check": check, "gamma": _volume_ratio(G, H)}


def _first_true(labels: np.ndarray, *conditions) -> np.ndarray:
    """Per row, the label of the first true condition, or labels[-1]
    where none holds: np.select(conditions, labels[:-1], labels[-1]) as
    one lookup, with its dtype.  The first condition is a row array, the
    others row arrays or scalars."""
    table = np.empty((len(labels), len(conditions[0])), bool)
    for row, condition in zip(table, conditions):
        row[...] = condition
    table[-1] = True
    return labels[table.argmax(axis=0)]


def _verdicts(r_g: float, r_h: np.ndarray, min_eig: np.ndarray, scale: float) -> np.ndarray:
    """The comparison verdicts of candidates with scalar curvatures r_h
    and smallest pencil eigenvalues min_eig (N,) against a reference
    with scalar curvature r_g and scale ||R_g G||_F, by the cascade
    `theorem1_check` describes; a NaN min_eig fails."""
    return _first_true(
        _VERDICTS,
        r_h <= 0.0,
        r_g <= 0.0,
        min_eig > _STRICT_REL_TOL * scale,
        min_eig >= -(_PSD_REL_TOL * scale),
    )


def _criterion_report(col: dict, r_g: float, r_h: float) -> CriterionReport:
    """Row 0 of `_compare` columns as a report."""
    eigs = col["eigs"][0]
    min_eig = float(eigs[0])
    scale = float(col["scale"])
    return CriterionReport(
        gamma=float(col["gamma"][0]),
        min_eig=min_eig,
        strict_margin=min_eig / scale if scale > 0.0 else float("nan"),
        verdict=str(col["check"][0]),
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
    G, H = (_as_frame_metric(m).matrix for m in (g, h))
    r_g = float(r_g)
    r_h = float(r_h)
    if not (np.isfinite(r_g) and np.isfinite(r_h)):
        raise InvalidMetricError(f"scalar curvatures must be finite, got {r_g}, {r_h}")
    return _criterion_report(_compare(G, r_g, H[None], np.array([r_h])), r_g, r_h)


@dataclass(frozen=True)
class BergerClassification:
    """Where a Berger metric lands relative to the round reference."""

    params: BergerParams
    verdict: str
    scalar: float
    einstein_deviation: float
    report: CriterionReport


def _berger_metrics(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The stacked metrics diag(1, s, t), shape (N, 3, 3)."""
    H = np.zeros((len(s), 3, 3))
    H[:, 0, 0] = 1.0
    H[:, 1, 1] = s
    H[:, 2, 2] = t
    return H


def _classify_berger(s: np.ndarray, t: np.ndarray) -> dict:
    """Classify diag(1, s, t) for arrays of in-domain parameters (as
    `berger_classify` describes) in one stacked computation.  Returns
    columns: "R", "einstein_dev", "eigs", "scale", "check" (the pairwise
    verdict), "gamma" and "verdict" (the classification).  Parameters
    whose curvature data overflow raise NumericalFailureError."""
    H = _berger_metrics(s, t)
    _, ricci, scalar = _ricci(su2_structure_constants().c, H)
    _, deviation = _einstein_deviation(H, ricci, scalar)
    col = _compare(np.eye(3), _ROUND_SCALAR, H, scalar)
    check = col["check"]
    col["verdict"] = _first_true(
        _CLASSES,
        deviation <= _EINSTEIN_TOL,
        check == VERDICT_AUTO_NONPOSITIVE,
        check == VERDICT_APPLIES_STRICT,
        check == VERDICT_APPLIES_BOUNDARY,
    )
    return {"R": scalar, "einstein_dev": deviation, **col}


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
        report=_criterion_report(col, _ROUND_SCALAR, scalar),
    )


def _berger_root(what: str, s: float, c: float) -> float:
    """The root t = s + c sqrt(s) + 1 of (t - 1 - s)^2 = c^2 s above the
    parabola's vertex s + 1, for 1 <= s <= _ROOT_S_MAX, evaluated in
    floating point in that form (the product c sqrt(s) is exact for
    c = 1 and 2).  By the identity in the module docstring the parabola
    is (s/2)(6 - R t) for c = 1 and -(s/2) R t for c = 2.  Its exact
    sign, in rational arithmetic, must be negative at the float below t
    and positive at the float above it, which proves t within one ulp
    of the true root; otherwise NumericalFailureError.  `what` names
    the root function in errors."""
    s = float(s)
    if not 1.0 <= s <= _ROOT_S_MAX:
        raise InvalidMetricError(f"{what} supports 1 <= s <= {_ROOT_S_MAX:g}, got s={s}")
    t = s + c * math.sqrt(s) + 1.0
    vertex, width = Fraction(s) + 1, Fraction(c) ** 2 * Fraction(s)
    below, above = (
        (Fraction(math.nextafter(t, side)) - vertex) ** 2 - width for side in (-math.inf, math.inf)
    )
    if not below < 0 < above:
        raise NumericalFailureError(
            f"{what} at s={s!r}: the closed form t={t!r} is not within one ulp of the root"
        )
    return t


def boundary_curve(s: float) -> float:
    """The t at which diag(1, s, t) crosses from failing to passing the
    comparison against the round sphere: t*(s) = s + sqrt(s) + 1, within
    one ulp (proved at each call; there is no tolerance argument), for
    1 <= s <= 1e6; other s raise InvalidMetricError."""
    return _berger_root("boundary_curve", s, 1.0)


def scalar_sign_curve(s: float) -> float:
    """The t at which the scalar curvature of diag(1, s, t) changes
    sign: t0(s) = s + 2 sqrt(s) + 1, within one ulp (proved at each call;
    there is no tolerance argument), for 1 <= s <= 1e6; other s raise
    InvalidMetricError."""
    return _berger_root("scalar_sign_curve", s, 2.0)


@dataclass(frozen=True)
class PathReport:
    """Sampled run of the comparison along a metric path ending at a
    scalar-flat metric.  delta is the length of the terminal parameter
    window on which the comparison holds at every sample (endpoint
    excluded: the endpoint is scalar flat, so the comparison no longer
    speaks there).

    samples is a read-only table, a structured array with one row per
    sample and the fields t, scalar, min_eig, gamma and verdict, in that
    order; a degenerate path has no rows."""

    t_start: float
    t_end: float
    steps: int
    samples: np.ndarray
    delta: float
    endpoint_scalar: float

    def __post_init__(self):
        self.samples.flags.writeable = False


def corollary_path_check(s: float, t_start: float, t_end: float, steps: int) -> PathReport:
    """Check the path hypotheses and measure the terminal window on
    which the comparison against the path's starting metric holds.

    The path is t -> diag(1, s, t) at fixed s.  It is sampled at
    steps + 1 uniform parameters and each sample is compared against
    diag(1, s, t_start) (the start compares against itself, landing
    exactly on the boundary verdict).  Hypotheses:
    scalar curvature must be positive at every sample before the
    endpoint (condition 3) and must vanish to _END_TOL at the endpoint
    (condition 4); violations raise with the violated condition named.
    delta is t_end minus the first parameter of the terminal block of
    samples (endpoint excluded) where the comparison verdict is strict
    or boundary; a degenerate path (t_start = t_end) has empty interior
    and delta 0 with nothing to check.

    The curvature and the comparison of all samples are one stacked
    computation on the metrics of the samples' parameters.  Unlike
    `berger_sweep`, nothing is masked: every sample has t >= t_start,
    so the single domain check BergerParams(s, t_start) covers them
    all, and a path outside the normalized domain raises
    InvalidMetricError before any of it runs.  A sample whose curvature
    data overflow raises NumericalFailureError.
    """
    t_start = float(t_start)
    t_end = float(t_end)
    if not (np.isfinite(t_start) and np.isfinite(t_end)) or t_end < t_start:
        raise InvalidMetricError(f"need t_start <= t_end, got [{t_start}, {t_end}]")
    steps = _whole(steps, "steps", 1, InvalidMetricError)
    start = BergerParams(s, t_start)

    if t_end == t_start:
        (scalar,) = _ricci(su2_structure_constants().c, start.metric().matrix[None])[2].tolist()
        samples = np.empty(0, _PATH_SAMPLE)
        return PathReport(t_start, t_end, steps, samples, delta=0.0, endpoint_scalar=scalar)

    with np.errstate(over="ignore", invalid="ignore"):
        ts = t_start + (t_end - t_start) * np.arange(steps + 1) / steps
    H = _berger_metrics(np.full(len(ts), start.s), ts)
    scalar = _ricci(su2_structure_constants().c, H)[2]
    # ts[0] == t_start, so the first sample is the reference metric
    col = _compare(H[0], scalar[0], H, scalar)
    verdict = col["check"]
    samples = np.empty(len(ts), _PATH_SAMPLE)
    samples["t"], samples["scalar"], samples["min_eig"] = ts, scalar, col["eigs"][:, 0]
    samples["gamma"], samples["verdict"] = col["gamma"], verdict

    endpoint_scalar = float(scalar[-1])
    nonpositive = np.flatnonzero(scalar[:-1] <= 0.0)
    if nonpositive.size:
        i = nonpositive[0]
        raise HypothesisViolationError(
            "condition (3) violated: scalar curvature must be positive "
            f"before the endpoint, got {scalar[i]:.6g} at t = {ts[i]:.6g}"
        )
    if abs(endpoint_scalar) > _END_TOL:
        raise HypothesisViolationError(
            "condition (4) violated: endpoint scalar curvature must vanish, "
            f"got {endpoint_scalar:.6g} at t = {ts[-1]:.6g} (tol {_END_TOL:g})"
        )

    # The endpoint sample is scalar-flat by construction, so its verdict is
    # the nonpositive-scalar branch rather than Applies*; the terminal run of
    # Applies verdicts is therefore scanned over the interior samples, and
    # delta measures from the start of that run to t_end.
    holds = np.isin(verdict[:-1], (VERDICT_APPLIES_STRICT, VERDICT_APPLIES_BOUNDARY))
    delta = 0.0
    if holds[-1]:
        fails = np.flatnonzero(~holds)
        first = fails[-1] + 1 if fails.size else 0
        delta = t_end - ts[first]
    return PathReport(
        t_start=t_start,
        t_end=t_end,
        steps=steps,
        samples=samples,
        delta=float(delta),
        endpoint_scalar=endpoint_scalar,
    )


def berger_sweep(s_values, t_values) -> np.ndarray:
    """Classify a grid of Berger parameters: a table, a structured array
    with one row per (s, t) in s-major order and the fields s, t, R,
    einstein_dev, min_eig, gamma and verdict, in that order.

    The whole grid is one stacked computation.  Pairs outside the
    normalized domain (non-finite, s < 1, or t < s) are masked out of
    it: their rows carry the verdict "invalid" and NaN numeric fields,
    and the remaining rows are exactly what `berger_classify` returns
    for the same parameters.  An in-domain pair whose curvature data
    overflow raises NumericalFailureError naming it.
    """
    s, t = (
        a.ravel()
        for a in np.meshgrid(
            np.asarray(s_values, dtype=float), np.asarray(t_values, dtype=float), indexing="ij"
        )
    )
    valid = np.isfinite(s) & np.isfinite(t) & (1.0 <= s) & (s <= t)
    rows = np.empty(len(s), _SWEEP_ROW)
    rows[...] = (np.nan,) * 6 + ("invalid",)
    rows["s"], rows["t"] = s, t
    classified = _classify_berger(s[valid], t[valid])
    classified["min_eig"] = classified["eigs"][:, 0]
    for key in ("R", "einstein_dev", "min_eig", "gamma", "verdict"):
        rows[key][valid] = classified[key]
    return rows
