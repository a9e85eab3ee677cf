"""Descent estimate of the conformal quotient infimum.

The Rayleigh-type quotient Q(u) = N(u) / ||u||_6^2 from the conformal
energy module, with N(u) = a u^T A u + sum(w R u^2) and A the stiffness
operator, is minimized over grid fields by normalized descent
with a backtracking line search.  The search direction g is the
quadrature-weighted L^2 gradient of the numerator N alone; it is
neither the gradient of Q nor its projection onto the constraint
sphere ||u||_6 = 1, which normalization after each step enforces
instead; on that sphere Q = N, so the loop evaluates N alone.  Steps
are only accepted when they do not increase Q, so the objective trace
is non-increasing by construction.

Each iteration makes one stiffness product, A g.  Along a trial
x = f - s g the product A x is A f - s A g, so every backtracking trial
forms its candidate's product by linearity, and the accepted
candidate's product is carried forward as the next iteration's A f.
A is `su2_chart._stiffness`, never assembled: a product takes the
three difference-form derivatives of its field, contracts them with the
six per-cell fields w g^{ij} formed once per estimate, and applies each
transposed derivative as a dense n x n axis matrix.  At n = 32 (32,768
cells) on one thread of a 2-core x86 VM, the product takes about 0.8 ms,
the gradient 0.07 ms and each trial 0.25 ms, 0.05 ms of it the
critical-norm sum.  An estimate makes 5 to 7 trials in its 5
iterations on round and Berger backgrounds at n = 8 to 32 (26 once),
and takes about 10 ms at n = 32.

The descent runs once, from the constant, for at most `_MAX_ITERS`
iterations; it has no options and is reproducible bit for bit.  For
constant R the constant is an exact critical point of the discrete
quotient (A 1 == 0, so the gradient at a constant u is 2 R u): the
descent never leaves it, stops after `_CONSECUTIVE` steps that move Q
by roundoff, and the estimate is Q(1) to rounding with a Neumann
residual of exactly 0.0.  So it cannot see a lower minimum: on round
at n = 8 the constant is a saddle, the estimate reads 27.7256 and a
perturbed start reaches 27.7056 (unconverged after 400 iterations); of
12 round and Berger metrics, a perturbed start ended lower only at
n <= 8.  An estimate that does not depend on its start is ROADMAP item
1b.  The descent is logged on the `relyamabe` logger at DEBUG.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .conformal_energy import (
    CONFORMAL_COEFF,
    QuotientInput,
    _LP_EXP,
    _VOL_EXP,
    _critical_sum,
    _scalar_field,
    einstein_hilbert,
    neumann_residual,
    rayleigh_quotient,
)
from .errors import NumericalFailureError, _whole
from .su2_chart import HopfGrid, MetricField, _stiffness

__all__ = [
    "QuotientEstimate",
    "ProbeReport",
    "estimate",
    "yamabe_property_probe",
]

#: descent iterations at most
_MAX_ITERS = 400
#: initial line-search step
_STEP = 0.02
#: relative decrease below which an accepted step counts as small
_TOL = 1e-9
#: accepted steps with relative decrease below _TOL required to declare convergence
_CONSECUTIVE = 5
#: maximum step halvings per line search
_BACKTRACKS = 40
#: step growth factor after an accepted step
_GROWTH = 1.3

_log = logging.getLogger("relyamabe")


@dataclass(frozen=True)
class QuotientEstimate:
    """Result of the minimization.  value equals the Rayleigh quotient
    of `minimizer` (recomputed through the same code path every caller
    uses); trace is the non-increasing objective history of the
    descent."""

    value: float
    minimizer: np.ndarray = field(repr=False)
    iterations_used: int
    converged: bool
    neumann_residual_of_minimizer: float
    trace: tuple[float, ...] = field(repr=False)


class _QuotientWork:
    """Flattened-array quotient, search direction and trial steps used
    inside the descent loop, and by the probe for its span form; R is
    parsed as the public quotient parses it.  `stiffness` is the
    matrix-free operator A of `su2_chart._stiffness`, applied as
    `stiffness @ f`.  The methods take stiffness products from the
    caller and form none; the loop decides which ones it makes."""

    def __init__(self, metric: MetricField, scalar):
        self.r = _scalar_field(scalar, metric.grid.shape).reshape(-1)
        self.stiffness = _stiffness(metric)
        self.w = metric.weight.reshape(-1)
        self.wr = self.w * self.r

    def norm(self, f: np.ndarray) -> float:
        """Critical norm ||f||_6 under the grid quadrature."""
        return _critical_sum(f, self.w) ** (1.0 / _LP_EXP)

    def quotient(self, f: np.ndarray, af: np.ndarray) -> float:
        """Q(f) = N(f) = a f^T A f + sum(w R f^2) of a candidate that
        `norm` has brought to ||f||_6 = 1, given af = A f."""
        return CONFORMAL_COEFF * (f @ af) + np.sum(self.wr * f * f)

    def gradient(self, f: np.ndarray, af: np.ndarray) -> np.ndarray:
        """L^2 gradient of the numerator N(f) = a f^T A f + sum(w R f^2)
        against the quadrature inner product, given af = A f.  It
        ignores the denominator of Q; the descent renormalizes instead.
        With A 1 == 0 and the term 2 R f formed from R itself, a constant
        f under constant R has an exactly constant gradient."""
        return 2.0 * CONFORMAL_COEFF * af / self.w + 2.0 * self.r * f

    def trial(
        self, f: np.ndarray, af: np.ndarray, g: np.ndarray, ag: np.ndarray, s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The normalized candidate of the step f - s g and its stiffness
        product, formed by linearity from af = A f and ag = A g; NaN
        arrays when the step's critical norm overflows."""
        x = f - s * g
        nrm = self.norm(x)
        if not np.isfinite(nrm):
            nrm = np.nan
        return x / nrm, (af - s * ag) / nrm


@np.errstate(over="ignore", invalid="ignore")
def _minimize_one(work: _QuotientWork, f0: np.ndarray):
    """Backtracking normalized descent from one start.

    Returns (f, q, trace, reason), reason being why the loop stopped:
    "tol" (`_CONSECUTIVE` accepted steps with relative decrease below
    _TOL), "stationary" (no finite non-increasing trial in `_BACKTRACKS`
    halvings: the iterate is stationary to machine precision) or
    "max_iters", the one reason that does not count as converged.  The
    loop makes one stiffness product per iteration plus one at the
    start.  Overflow warns nowhere: a non-finite start quotient raises
    NumericalFailureError and a non-finite trial is rejected.
    """
    f = f0 / work.norm(f0)
    af = work.stiffness @ f
    q = work.quotient(f, af)
    trace = [q]
    if not np.isfinite(q):
        raise NumericalFailureError(
            f"quotient is non-finite at the start ({q})", trace=trace
        )
    step = _STEP
    n_small = 0
    for _ in range(_MAX_ITERS):
        g = work.gradient(f, af)
        ag = work.stiffness @ g
        for _ in range(_BACKTRACKS):
            cand, acand = work.trial(f, af, g, ag, step)
            qc = work.quotient(cand, acand)
            if np.isfinite(qc) and qc <= q:
                break
            step *= 0.5
        else:
            return f, q, trace, "stationary"
        rel = abs(q - qc) / max(abs(q), 1e-30)
        f, af, q = cand, acand, qc
        trace.append(q)
        step *= _GROWTH
        n_small = n_small + 1 if rel < _TOL else 0
        if n_small >= _CONSECUTIVE:
            return f, q, trace, "tol"
    return f, q, trace, "max_iters"


def estimate(metric: MetricField, scalar) -> QuotientEstimate:
    """Estimate inf Q over the conformal class of `metric` (scalar
    curvature `scalar`, constant or per-cell).  A non-finite or
    mis-shaped `scalar` raises InputFormatError before any work.

    The descent starts from the constant.  The reported value is the
    Rayleigh quotient of its minimizer, recomputed through the public
    quotient so the two are identical by construction.
    """
    work = _QuotientWork(metric, scalar)
    f, q, trace, reason = _minimize_one(work, np.ones(metric.grid.size))
    converged = reason != "max_iters"
    _log.debug(
        "descent from the constant: %d iterations, stopped on %s, Q = %.17g, converged = %s",
        len(trace) - 1, reason, q, converged,
    )
    minimizer = f.reshape(metric.grid.shape)
    value = rayleigh_quotient(QuotientInput(f=minimizer, metric=metric, scalar_curvature=scalar))
    if not np.isfinite(value):
        raise NumericalFailureError(
            f"final quotient is non-finite ({value})", trace=trace
        )
    return QuotientEstimate(
        value=value,
        minimizer=minimizer,
        iterations_used=len(trace) - 1,
        converged=converged,
        neumann_residual_of_minimizer=neumann_residual(minimizer, metric),
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Spot check of the quotient against the background energy over a
    family of admissible trials.  gap_to_energy = min_over_trials -
    energy; with the constant among the trials the gap is never
    positive, and a large negative gap flags trials dipping far below
    the background energy."""

    min_over_trials: float
    energy: float
    gap_to_energy: float
    n_trials: int
    argmin_trial: int


#: entries of trial-by-cell values formed at once by the probe's denominator
_PROBE_BLOCK = 1 << 18


def _probe_span(grid: HopfGrid) -> np.ndarray:
    """The probe's seven span fields (see `yamabe_property_probe`),
    stacked as a (7, *grid.shape) array."""
    e = grid.eta[:, None, None]
    x1 = grid.xi1[None, :, None]
    x2 = grid.xi2[None, None, :]
    sin2 = np.sin(x1) ** 2
    fields = (
        np.ones((1, 1, 1)), np.cos(x1), np.cos(2 * x1), sin2 * np.cos(2 * e),
        sin2 * np.cos(4 * e), sin2 * np.cos(x2), sin2 * np.sin(x2),
    )
    return np.stack([np.broadcast_to(f, grid.shape) for f in fields])


def _span_form(flat: np.ndarray, work: _QuotientWork) -> np.ndarray:
    """The quotient's numerator as a matrix on the span of the flat
    fields `flat`: M_ba = phi_a . (8 A phi_b + w R phi_b) with the
    descent's stiffness operator A, one product per field, so c^T M c
    is the numerator of the field sum_a c_a phi_a."""
    rows = [CONFORMAL_COEFF * (work.stiffness @ phi) + work.wr * phi for phi in flat]
    return np.stack(rows) @ flat.T


def _probe_coefficients(n: int, seed: int) -> np.ndarray:
    """Span coefficients of the n seeded trials that follow the constant,
    drawn from the generator in the family's order (a, m, p, ph per
    trial)."""
    rng = np.random.default_rng(seed)
    c = np.zeros((n, 7))
    c[:, 0] = 1.0
    for row in c:
        a = rng.uniform(-0.25, 0.25, size=3)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        row[m] = a[0]
        row[2 + p] = a[1]
        row[5], row[6] = a[2] * np.cos(ph), -a[2] * np.sin(ph)
    return c


def yamabe_property_probe(
    metric: MetricField, scalar, n_trials: int = 100, seed: int = 0
) -> ProbeReport:
    """Evaluate the quotient on a deterministic family of admissible
    trials: the constant, then positive low-frequency fields

        u = 1 + a0 cos(m xi1) + sin^2(xi1) (a1 cos(2 p eta) + a2 cos(xi2 + ph)),

    m, p in {1, 2}, drawn from `seed`.  Every trial has zero normal
    derivative at the faces xi1 in {0, pi}; the sin^2 part also vanishes
    there quadratically, the a0 cos(m xi1) part does not.

    Every trial is u = sum_a c_a phi_a over the fixed span

        phi = (1, cos xi1, cos 2xi1, sin^2 xi1 cos 2eta, sin^2 xi1 cos 4eta,
               sin^2 xi1 cos xi2, sin^2 xi1 sin xi2)

    with c = (1, a0 [m = 1], a0 [m = 2], a1 [p = 1], a1 [p = 2],
    a2 cos ph, -a2 sin ph).  The numerator of Q is c^T M c with M the
    7x7 numerator matrix of the span, formed once per call from seven
    products with the descent's stiffness operator; only the denominator
    sum w u^6 is formed on the grid, for all trials at once in blocks of
    cells.  Trial 0, the constant, is not evaluated: its quotient is the
    energy E (Q(1) = E, see `rayleigh_quotient`)."""
    n_trials = _whole(n_trials, "n_trials", 1)
    seed = _whole(seed, "seed", 0)
    energy = einstein_hilbert(metric, scalar).energy
    q = np.full(n_trials, energy)
    if n_trials > 1:
        work = _QuotientWork(metric, scalar)
        flat = _probe_span(metric.grid).reshape(7, -1)
        c = _probe_coefficients(n_trials - 1, seed)
        numer = np.einsum("ka,ab,kb->k", c, _span_form(flat, work), c)
        denom = np.zeros(len(c))
        step = max(1, _PROBE_BLOCK // len(c))
        for lo in range(0, work.w.size, step):
            # a named block lives until the next one is formed, so the
            # allocator reuses its pages instead of returning them and
            # faulting them in again on every block
            block = c @ flat[:, lo:lo + step]
            denom += _critical_sum(block, work.w[lo:lo + step])
        q[1:] = numer / denom ** _VOL_EXP
    best_k = int(np.argmin(q))
    return ProbeReport(
        min_over_trials=float(q[best_k]),
        energy=energy,
        gap_to_energy=float(q[best_k] - energy),
        n_trials=n_trials,
        argmin_trial=best_k,
    )
