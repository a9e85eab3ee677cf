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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTrialError, InputFormatError, InvalidMetricError
from .su2_chart import (
    MetricField, _axis_derivative, _derivatives, _end_layers, _finite, _flux, grad_sq, integrate,
)

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


def _scalar_field(scalar, grid_shape) -> np.ndarray:
    arr = np.asarray(scalar, dtype=float)
    if arr.ndim == 0:
        value = float(arr)
        if not math.isfinite(value):
            raise InputFormatError("scalar curvature has non-finite entries")
        return np.full(grid_shape, value)
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
    An integral or energy that overflows raises NumericalFailureError.
    """
    r = _scalar_field(scalar, metric.grid.shape)
    volume = metric.volume()
    if not np.isfinite(volume) or volume <= 0.0:
        raise InvalidMetricError(f"metric volume must be positive, got {volume}")
    total = integrate(r, metric)
    energy = _finite(total / volume ** _VOL_EXP, "the normalized total scalar curvature")
    return EnergyReport(total_scalar_integral=total, volume=volume, energy=energy)


@dataclass(frozen=True)
class QuotientInput:
    """A trial function together with the background data the quotient
    needs.  f must be a finite grid field that is not identically zero."""

    f: np.ndarray = field(repr=False)
    metric: MetricField
    scalar_curvature: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != self.metric.grid.shape:
            raise InputFormatError(
                f"trial shape {f.shape} does not match grid {self.metric.grid.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise InputFormatError("trial function has non-finite entries")
        if not f.any():
            raise DegenerateTrialError("trial function is identically zero")
        object.__setattr__(self, "f", f)
        object.__setattr__(
            self, "scalar_curvature", _scalar_field(self.scalar_curvature, f.shape)
        )


def _critical_sum(f: np.ndarray, w: np.ndarray):
    """sum(w |f|^6) over the last axis, the critical-norm integral under
    quadrature weights w of a flat field or of each row of a block of
    them, with |f|^6 formed as (f^2)^3 by two products: no abs, no pow."""
    f2 = np.square(f)
    u = f2 * f2
    u *= f2
    u *= w
    return np.sum(u, axis=-1)


def rayleigh_quotient(qi: QuotientInput) -> float:
    """Q(f) = (8 |df|^2 + R f^2 integrated) / (integral |f|^6)^{1/3}.

    Q(1) equals einstein_hilbert(...).energy bit for bit: the
    difference-form derivatives of a constant are exact zeros, so the
    numerator integrates R cell by cell and the denominator integrates
    the weights, which is the metric volume.
    """
    f, metric = qi.f, qi.metric
    with np.errstate(over="ignore"):
        denom_int = float(_critical_sum(f.reshape(-1), metric.weight.reshape(-1)))
    if not np.isfinite(denom_int):
        raise DegenerateTrialError("critical norm overflow")
    if denom_int ** (1.0 / _LP_EXP) < _UNDERFLOW:
        raise DegenerateTrialError(
            f"critical norm underflow: ||f||_{_LP_EXP} = {denom_int ** (1.0 / _LP_EXP):.3e}"
        )
    density = grad_sq(f, metric)
    density *= CONFORMAL_COEFF
    r_f2 = qi.scalar_curvature * f
    r_f2 *= f
    density += r_f2
    return integrate(density, metric) / denom_int ** _VOL_EXP


@np.errstate(over="ignore", invalid="ignore")
def laplace_beltrami(f: np.ndarray, metric: MetricField) -> np.ndarray:
    """Laplace-Beltrami operator in divergence form:
    Delta f = det^{-1/2} d_i ( det^{1/2} g^{ij} d_j f ).  A Laplacian
    that is not finite raises NumericalFailureError (`_finite`)."""
    df, root = _derivatives(f, metric.grid), metric.sqrt_det
    div = sum(_axis_derivative(root * _flux(metric.inv, df, i), metric.grid, i) for i in range(3))
    return _finite(div / root, "the Laplacian")


@np.errstate(over="ignore", invalid="ignore")
def conformal_scalar(u: np.ndarray, metric: MetricField, scalar) -> np.ndarray:
    """Scalar curvature of the conformal metric u^4 g:
    R_u = u^{-5} ( -8 Laplace(u) + R u ).  u must be strictly positive;
    an R_u that overflows raises NumericalFailureError."""
    u = np.asarray(u, dtype=float)
    if u.shape != metric.grid.shape:
        raise InputFormatError(
            f"conformal factor shape {u.shape} does not match grid {metric.grid.shape}"
        )
    if not np.all(np.isfinite(u)) or u.min() <= 0.0:
        raise InputFormatError("conformal factor must be strictly positive")
    r = _scalar_field(scalar, metric.grid.shape)
    r_u = u ** (-float(_SCALAR_EXP)) * (-CONFORMAL_COEFF * laplace_beltrami(u, metric) + r * u)
    return _finite(r_u, "the conformal scalar curvature")


@np.errstate(over="ignore", invalid="ignore")
def neumann_residual(u: np.ndarray, metric: MetricField) -> float:
    """Max |du(n)| over the two boundary faces, sampled at the cell layer
    adjacent to each face: n^i = +/- g^{i xi1} / sqrt(g^{xi1 xi1}) is the
    inward unit normal, so |du(n)| = |g^{xi1 j} d_j u| / sqrt(g^{xi1 xi1}).
    u must be finite: a NaN cell would read as a zero residual.  A
    residual that overflows raises NumericalFailureError (`_finite`)."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InputFormatError("conformal factor has non-finite entries")
    grid = metric.grid
    if u.shape != grid.shape:
        raise InputFormatError(f"field shape {u.shape} does not match grid {grid.shape}")
    faces = u[:, [0, -1]]
    du = [_axis_derivative(faces, grid, 0), np.empty(faces.shape), _axis_derivative(faces, grid, 2)]
    _end_layers(u, grid, 1, du[1])  # the face windows read layers 0-2 and n-3..n-1 alone
    inv = metric.inv[:, :, :, [0, -1]]
    residual = (np.abs(_flux(inv, du, 1)) / np.sqrt(inv[1, 1])).max()
    return float(_finite(residual, "the Neumann residual"))
