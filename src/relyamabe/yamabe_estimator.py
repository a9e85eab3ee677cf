"""Descent estimate of the conformal quotient infimum.

The Rayleigh-type quotient Q(u) = N(u) / ||u||_6^2 from the conformal
energy module, with N(u) = a u^T A u + sum(w R u^2) and A the sparse
stiffness matrix, is minimized over grid fields by normalized descent
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

The landscape is benign — on round and Berger backgrounds the known
minimizers are low-frequency — so a deterministic multistart (the
constant plus a few seeded low-frequency perturbations) suffices; the
whole procedure is reproducible bit for bit from the seed.  Each start
is logged on the `relyamabe` logger at DEBUG.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .conformal_energy import (
    CONFORMAL_COEFF,
    QuotientInput,
    _LP_EXP,
    _VOL_EXP,
    _scalar_field,
    einstein_hilbert,
    neumann_residual,
    rayleigh_quotient,
)
from .errors import InputFormatError, NumericalFailureError
from .su2_chart import HopfGrid, MetricField, _derivatives

if TYPE_CHECKING:
    import scipy.sparse as sps

__all__ = [
    "EstimatorOptions",
    "QuotientEstimate",
    "ProbeReport",
    "estimate",
    "yamabe_property_probe",
]

#: accepted steps with relative decrease below tol required to declare convergence
_CONSECUTIVE = 5
#: maximum step halvings per line search
_BACKTRACKS = 40
#: step growth factor after an accepted step
_GROWTH = 1.3

_log = logging.getLogger("relyamabe")


def _not_whole(x) -> bool:
    """True unless x is a finite whole number; nan and inf are caught
    before int(), which would raise on them."""
    return x != x or x in (np.inf, -np.inf) or int(x) != x


@dataclass(frozen=True)
class EstimatorOptions:
    """Tuning knobs of the minimizer.  restarts counts the random
    starts tried in addition to the constant start."""

    max_iters: int = 400
    step: float = 0.02
    tol: float = 1e-9
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if _not_whole(self.max_iters) or self.max_iters < 1:
            raise InputFormatError(f"max_iters must be a positive integer, got {self.max_iters}")
        if not np.isfinite(self.step) or self.step <= 0.0:
            raise InputFormatError(f"step must be positive, got {self.step}")
        if not np.isfinite(self.tol) or self.tol <= 0.0:
            raise InputFormatError(f"tol must be positive, got {self.tol}")
        if _not_whole(self.restarts) or self.restarts < 1:
            raise InputFormatError(f"restarts must be a positive integer, got {self.restarts}")
        if _not_whole(self.seed) or self.seed < 0:
            raise InputFormatError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class QuotientEstimate:
    """Result of the minimization.  value equals the Rayleigh quotient
    of `minimizer` (recomputed through the same code path every caller
    uses); trace is the non-increasing objective history of the best
    start."""

    value: float
    minimizer: np.ndarray = field(repr=False)
    iterations_used: int
    converged: bool
    neumann_residual_of_minimizer: float
    trace: tuple[float, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations_used,
            "neumann_residual": self.neumann_residual_of_minimizer,
            "trace": list(self.trace),
        }


def _stiffness(metric: MetricField) -> sps.csr_matrix:
    """Sparse form of the Dirichlet energy: f^T A f = integral |df|^2 dV
    under the grid quadrature."""
    import scipy.sparse as sps

    ops = metric.grid.diff_ops()
    wf = metric.weight.reshape(-1)
    acc = None
    for i in range(3):
        for j in range(3):
            block = ops[i].T @ sps.diags(wf * metric.inv[..., i, j].reshape(-1)) @ ops[j]
            acc = block if acc is None else acc + block
    return acc.tocsr()


class _QuotientWork:
    """Flattened-array quotient, search direction and trial steps used
    inside the descent loop; R is parsed as the public quotient parses
    it.  The methods take stiffness products from the caller and form
    none; the loop decides which ones it makes."""

    def __init__(self, metric: MetricField, scalar):
        self.a = CONFORMAL_COEFF
        self.r = _scalar_field(scalar, metric.grid.shape).reshape(-1)
        self.stiffness = _stiffness(metric)
        self.w = metric.weight.reshape(-1)

    def norm(self, f: np.ndarray) -> float:
        """Critical norm ||f||_6 under the grid quadrature."""
        return np.sum(self.w * np.abs(f) ** _LP_EXP) ** (1.0 / _LP_EXP)

    def quotient(self, f: np.ndarray, af: np.ndarray) -> float:
        """Q(f) = N(f) = a f^T A f + sum(w R f^2) of a candidate that
        `norm` has brought to ||f||_6 = 1, given af = A f."""
        return self.a * (f @ af) + np.sum(self.w * self.r * f * f)

    def gradient(self, f: np.ndarray, af: np.ndarray) -> np.ndarray:
        """L^2 gradient of the numerator N(f) = a f^T A f + sum(w R f^2)
        against the quadrature inner product, given af = A f.  It
        ignores the denominator of Q; the descent renormalizes instead."""
        return (2.0 * self.a * af + 2.0 * self.w * self.r * f) / self.w

    def trial(
        self, f: np.ndarray, af: np.ndarray, g: np.ndarray, ag: np.ndarray, s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The normalized candidate of the step f - s g and its stiffness
        product, formed by linearity from af = A f and ag = A g."""
        x = f - s * g
        nrm = self.norm(x)
        return x / nrm, (af - s * ag) / nrm


def _minimize_one(work: _QuotientWork, f0: np.ndarray, opts: EstimatorOptions):
    """Backtracking normalized descent from one start.

    Returns (f, q, trace, converged, reason), reason being why the loop
    stopped: "tol" (`_CONSECUTIVE` accepted steps with relative decrease
    below tol), "stationary" (a line search exhausted its halvings
    without a non-increasing step: the iterate is stationary to machine
    precision, which also counts as converged) or "max_iters".  The
    loop makes one stiffness product per iteration plus one at the
    start.
    """
    f = f0 / work.norm(f0)
    af = work.stiffness @ f
    q = work.quotient(f, af)
    trace = [q]
    if not np.isfinite(q):
        raise NumericalFailureError(
            f"quotient is non-finite at the start ({q})", trace=trace
        )
    step = opts.step
    n_small = 0
    for _ in range(opts.max_iters):
        g = work.gradient(f, af)
        ag = work.stiffness @ g
        accepted = False
        for _ in range(_BACKTRACKS):
            cand, acand = work.trial(f, af, g, ag, step)
            qc = work.quotient(cand, acand)
            if not np.isfinite(qc):
                step *= 0.5
                continue
            if qc <= q:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return f, q, trace, True, "stationary"
        rel = abs(q - qc) / max(abs(q), 1e-30)
        f, af, q = cand, acand, qc
        trace.append(q)
        step *= _GROWTH
        n_small = n_small + 1 if rel < opts.tol else 0
        if n_small >= _CONSECUTIVE:
            return f, q, trace, True, "tol"
    return f, q, trace, False, "max_iters"


def _random_start(rng: np.random.Generator, meshes) -> np.ndarray:
    """A positive low-frequency perturbation of the constant."""
    e, x1, x2 = meshes
    amp = rng.uniform(0.05, 0.3, size=4)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (
        1.0
        + amp[0] * np.cos(x1)
        + amp[1] * np.cos(2.0 * e)
        + amp[2] * np.sin(x1) * np.cos(x2 + ph[0])
        + amp[3] * np.cos(2.0 * x2 + ph[1]) * np.sin(e)
    ).reshape(-1)


def estimate(metric: MetricField, scalar, options: EstimatorOptions | None = None) -> QuotientEstimate:
    """Estimate inf Q over the conformal class of `metric` (scalar
    curvature `scalar`, constant or per-cell).  A non-finite or
    mis-shaped `scalar` raises InputFormatError before any work.

    Starts: the constant, then `restarts` seeded low-frequency fields.
    The reported value is the Rayleigh quotient of the best minimizer,
    recomputed through the public quotient so the two are identical by
    construction.
    """
    opts = options or EstimatorOptions()
    work = _QuotientWork(metric, scalar)
    rng = np.random.default_rng(opts.seed)
    meshes = metric.grid.meshes()
    starts = [np.ones(metric.grid.size)]
    for _ in range(opts.restarts):
        starts.append(_random_start(rng, meshes))

    best = None
    for k, f0 in enumerate(starts):
        f, q, trace, conv, reason = _minimize_one(work, f0, opts)
        _log.debug(
            "start %s: %d iterations, stopped on %s, Q = %.17g, converged = %s",
            "constant" if k == 0 else f"seeded {k}", len(trace) - 1, reason, q, conv,
        )
        if not np.isfinite(q):
            raise NumericalFailureError(
                f"minimization produced a non-finite quotient ({q})", trace=trace
            )
        if best is None or q < best[1]:
            best = (f, q, trace, conv)
    f, _, trace, conv = best
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
        converged=conv,
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

    def to_dict(self) -> dict:
        return {
            "min_over_trials": self.min_over_trials,
            "energy": self.energy,
            "gap_to_energy": self.gap_to_energy,
            "n_trials": self.n_trials,
            "argmin_trial": self.argmin_trial,
        }


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


def _span_form(phi: np.ndarray, metric: MetricField, r: np.ndarray) -> np.ndarray:
    """The quotient's numerator as a matrix on the span of `phi`:
    M_ab = sum w (8 g^ij d_i phi_a d_j phi_b + R phi_a phi_b), with the
    width-3 axis stencils of `grad_sq`, so c^T M c is the numerator of
    the field sum_a c_a phi_a."""
    k = len(phi)
    dphi = np.empty((3, k) + metric.grid.shape)  # dphi[i, a] = d_i phi_a
    for a, f in enumerate(phi):
        dphi[:, a] = _derivatives(f, metric.grid)
    flat = phi.reshape(k, -1)
    form = (flat * (metric.weight * r).reshape(-1)) @ flat.T
    inv = metric._inv_ij
    for i in range(3):
        flux = metric.weight * (inv[i][0] * dphi[0] + inv[i][1] * dphi[1] + inv[i][2] * dphi[2])
        form += CONFORMAL_COEFF * (dphi[i].reshape(k, -1) @ flux.reshape(k, -1).T)
    return form


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
    7x7 numerator matrix of the span, assembled once per call; only the
    denominator sum w u^6 is formed on the grid, for all trials at once
    in blocks of cells.  Trial 0, the constant, is not evaluated: its
    quotient is the energy E (Q(1) = E, see `rayleigh_quotient`)."""
    if _not_whole(n_trials) or n_trials < 1:
        raise InputFormatError(f"n_trials must be a positive integer, got {n_trials}")
    energy = einstein_hilbert(metric, scalar).energy
    q = np.full(int(n_trials), energy)
    if n_trials > 1:
        r = _scalar_field(scalar, metric.grid.shape)
        phi = _probe_span(metric.grid)
        c = _probe_coefficients(int(n_trials) - 1, seed)
        numer = np.einsum("ka,ab,kb->k", c, _span_form(phi, metric, r), c)
        flat = phi.reshape(len(phi), -1)
        w = metric.weight.reshape(-1)
        denom = np.zeros(len(c))
        step = max(1, _PROBE_BLOCK // len(c))
        for lo in range(0, w.size, step):
            u2 = np.square(c @ flat[:, lo:lo + step])
            u6 = u2 * u2
            u6 *= u2
            denom += u6 @ w[lo:lo + step]
        q[1:] = numer / denom ** _VOL_EXP
    best_k = int(np.argmin(q))
    return ProbeReport(
        min_over_trials=float(q[best_k]),
        energy=energy,
        gap_to_energy=float(q[best_k] - energy),
        n_trials=int(n_trials),
        argmin_trial=best_k,
    )
