"""Conformal energy functionals on the discretized hemisphere.

For a 3-manifold the normalized total-scalar-curvature energy of a
metric g is

    E(g) = integral(R_g dV) / Vol(g)^{1/3},

scale invariant by construction.  Restricting to the conformal class
g_u = u^4 g (dimension 3 exponents) turns E into the Rayleigh-type
quotient

    Q(u) = ( integral(a |du|^2 + R u^2 dV) ) / ( integral |u|^6 dV )^{1/3},

with a = 4(n-1)/(n-2) = 8, whose infimum over the class is the
quantity the minimization module estimates.  The conformal scalar
curvature law R_{g_u} = u^{-5} (-a Laplace(u) + R u) connects the two
and provides an independent consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTrialError,
    InputFormatError,
    InvalidMetricError,
)
from .su2_chart import MetricField, _axis_derivative, grad_sq, integrate, partial_derivatives

__all__ = [
    "DIM",
    "CONFORMAL_COEFF",
    "EnergyReport",
    "QuotientInput",
    "einstein_hilbert",
    "rayleigh_quotient",
    "laplace_beltrami",
    "conformal_scalar",
    "neumann_residual",
]

DIM = 3
#: coefficient of the gradient term, 4 (n - 1) / (n - 2) at n = 3
CONFORMAL_COEFF = 4.0 * (DIM - 1) / (DIM - 2)
#: volume normalization exponent (n - 2) / n
_VOL_EXP = (DIM - 2) / DIM
#: critical Lebesgue exponent 2 n / (n - 2)
_LP_EXP = 2 * DIM // (DIM - 2)
#: conformal-factor exponent (n + 2) / (n - 2) in the scalar curvature law
_SCALAR_EXP = (DIM + 2) // (DIM - 2)
_UNDERFLOW = 1e-30


@dataclass(frozen=True)
class EnergyReport:
    """Normalized total scalar curvature of a metric field: energy is
    total_scalar_integral / volume^{1/3}."""

    total_scalar_integral: float
    volume: float
    energy: float

    def to_dict(self) -> dict:
        return {
            "total_scalar_integral": self.total_scalar_integral,
            "volume": self.volume,
            "energy": self.energy,
        }


def _scalar_field(scalar, grid_shape) -> np.ndarray:
    arr = np.asarray(scalar, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid_shape, float(arr))
    if arr.shape != grid_shape:
        raise InputFormatError(
            f"scalar curvature shape {arr.shape} does not match grid {grid_shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputFormatError("scalar curvature has non-finite entries")
    return arr


def einstein_hilbert(metric: MetricField, scalar) -> EnergyReport:
    """Normalized total scalar curvature E = integral(R) / Vol^{1/3}.

    `scalar` may be a constant (homogeneous metrics) or a per-cell
    field.  E is invariant under g -> lam g: the integral scales by
    lam^{1/2} (R by 1/lam, dV by lam^{3/2}) and Vol^{1/3} matches it.
    """
    r = _scalar_field(scalar, metric.grid.shape)
    volume = metric.volume()
    if not np.isfinite(volume) or volume <= 0.0:
        raise InvalidMetricError(f"metric volume must be positive, got {volume}")
    total = integrate(r, metric)
    return EnergyReport(
        total_scalar_integral=total,
        volume=volume,
        energy=total / volume ** _VOL_EXP,
    )


@dataclass(frozen=True)
class QuotientInput:
    """A trial function together with the background data the quotient
    needs.  f must be a finite grid field that is not identically zero."""

    f: np.ndarray = field(repr=False)
    metric: MetricField
    scalar_curvature: np.ndarray = field(repr=False)
    a: float = CONFORMAL_COEFF

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != self.metric.grid.shape:
            raise InputFormatError(
                f"trial shape {f.shape} does not match grid {self.metric.grid.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise InputFormatError("trial function has non-finite entries")
        if np.abs(f).max() <= 0.0:
            raise DegenerateTrialError("trial function is identically zero")
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise InputFormatError(f"gradient coefficient must be positive, got {self.a}")
        object.__setattr__(self, "f", f)
        object.__setattr__(
            self, "scalar_curvature", _scalar_field(self.scalar_curvature, f.shape)
        )


def rayleigh_quotient(qi: QuotientInput) -> float:
    """Q(f) = (a |df|^2 + R f^2 integrated) / (integral |f|^6)^{1/3}.

    A constant trial short-circuits to the background energy: for
    constant f the gradient term vanishes identically and the quotient
    collapses to E(g), so returning einstein_hilbert makes the algebraic
    identity Q(const) = E hold bit for bit rather than to roundoff.
    """
    f, metric = qi.f, qi.metric
    if np.ptp(f) == 0.0:
        return einstein_hilbert(metric, qi.scalar_curvature).energy
    denom_int = integrate(np.abs(f) ** _LP_EXP, metric)
    if denom_int ** (1.0 / _LP_EXP) < _UNDERFLOW:
        raise DegenerateTrialError(
            f"critical norm underflow: ||f||_{_LP_EXP} = {denom_int ** (1.0 / _LP_EXP):.3e}"
        )
    numer = integrate(qi.a * grad_sq(f, metric) + qi.scalar_curvature * f * f, metric)
    return numer / denom_int ** _VOL_EXP


def laplace_beltrami(f: np.ndarray, metric: MetricField) -> np.ndarray:
    """Laplace-Beltrami operator in divergence form:
    Delta f = det^{-1/2} d_i ( det^{1/2} g^{ij} d_j f )."""
    df = partial_derivatives(f, metric.grid)
    flux = metric.sqrt_det[..., None] * np.einsum("...ij,...j->...i", metric.inv, df)
    out = np.zeros(metric.grid.shape)
    for i in range(3):
        out += _axis_derivative(flux[..., i], metric.grid, i)
    return out / metric.sqrt_det


def conformal_scalar(u: np.ndarray, metric: MetricField, scalar) -> np.ndarray:
    """Scalar curvature of the conformal metric u^4 g:
    R_u = u^{-5} ( -8 Laplace(u) + R u ).  u must be strictly positive."""
    u = np.asarray(u, dtype=float)
    if u.shape != metric.grid.shape:
        raise InputFormatError(
            f"conformal factor shape {u.shape} does not match grid {metric.grid.shape}"
        )
    if not np.all(np.isfinite(u)) or u.min() <= 0.0:
        raise InputFormatError("conformal factor must be strictly positive")
    r = _scalar_field(scalar, metric.grid.shape)
    return u ** (-float(_SCALAR_EXP)) * (
        -CONFORMAL_COEFF * laplace_beltrami(u, metric) + r * u
    )


def neumann_residual(u: np.ndarray, metric: MetricField) -> float:
    """Max |du(n)| over the two boundary faces, n the inward unit normal
    n^i = +/- g^{i xi1} / sqrt(g^{xi1 xi1}), sampled at the cell layer
    adjacent to each face."""
    du = partial_derivatives(np.asarray(u, dtype=float), metric.grid)
    normal = metric.inv[..., :, 1] / np.sqrt(metric.inv[..., 1, 1])[..., None]
    flux = np.einsum("...i,...i->...", normal, du)
    worst = 0.0
    for j, sign in ((0, 1.0), (metric.grid.n_xi1 - 1, -1.0)):
        worst = max(worst, float(np.abs(sign * flux[:, j, :]).max()))
    return worst
