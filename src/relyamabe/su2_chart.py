"""Coordinate realization of Berger metrics on a hemisphere domain.

S^3 sits in C^2 as |z|^2 + |w|^2 = 1 and is covered (up to measure
zero) by the torus-fibration chart

    z = cos(eta) e^{i xi1},  w = sin(eta) e^{i xi2},
    eta in (0, pi/2), xi1 in (0, 2 pi), xi2 in (0, 2 pi).

The domain used throughout is the closed half given by xi1 in [0, pi]
(a hemisphere bounded by two faces), discretized by a cell-centered
grid so no node lands on the coordinate axes eta in {0, pi/2} or on
the faces themselves.

The invariant frame is realized as the tangent fields

    V1 = (iz, iw),  V2 = (conj(w), -conj(z)),  V3 = (-i conj(w), i conj(z)),

orthonormal for the round metric.  A Berger metric with weights
(1, s, t) is evaluated in chart coordinates by expanding the
coordinate tangent vectors over this frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ChartConsistencyError,
    ChartDomainError,
    InputFormatError,
    InvalidMetricError,
)
from .lie_curvature import BergerParams

if TYPE_CHECKING:
    import scipy.sparse as sps

__all__ = [
    "HopfGrid",
    "MetricField",
    "FaceSecondForm",
    "BoundaryReport",
    "frame_fields",
    "embedding",
    "chart_metric",
    "partial_derivatives",
    "integrate",
    "grad_sq",
    "boundary_second_form",
]

_MIN_CELLS = 4
_CHART_TOL = 1e-10
_SPHERE_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
# Collar excluded near the coordinate axes when evaluating boundary
# quantities: the chart degenerates at eta in {0, pi/2}, so one-sided
# stencils there see the (harmless) coordinate singularity.
_COLLAR_FLOOR = 0.15


@dataclass(frozen=True)
class HopfGrid:
    """Cell-centered grid on eta in [0, pi/2], xi1 in [0, pi],
    xi2 in [0, 2 pi]; xi2 is periodic, the other two axes are not."""

    n_eta: int
    n_xi1: int
    n_xi2: int

    def __post_init__(self):
        for name, n in (("n_eta", self.n_eta), ("n_xi1", self.n_xi1), ("n_xi2", self.n_xi2)):
            if n != n or n in (np.inf, -np.inf) or int(n) != n or n < _MIN_CELLS:
                raise InputFormatError(f"{name} must be an integer >= {_MIN_CELLS}, got {n}")

    @classmethod
    def cube(cls, n: int) -> "HopfGrid":
        return cls(n, n, n)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_eta, self.n_xi1, self.n_xi2)

    @property
    def spacings(self) -> tuple[float, float, float]:
        return (
            (np.pi / 2) / self.n_eta,
            np.pi / self.n_xi1,
            (2 * np.pi) / self.n_xi2,
        )

    @property
    def eta(self) -> np.ndarray:
        return (np.arange(self.n_eta) + 0.5) * self.spacings[0]

    @property
    def xi1(self) -> np.ndarray:
        return (np.arange(self.n_xi1) + 0.5) * self.spacings[1]

    @property
    def xi2(self) -> np.ndarray:
        return (np.arange(self.n_xi2) + 0.5) * self.spacings[2]

    @property
    def cell_volume(self) -> float:
        de, d1, d2 = self.spacings
        return de * d1 * d2

    @property
    def size(self) -> int:
        return self.n_eta * self.n_xi1 * self.n_xi2

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(self.eta, self.xi1, self.xi2, indexing="ij")

    def diff_ops(self, width: int = 3) -> tuple[sps.csr_matrix, ...]:
        """Sparse d/d_eta, d/d_xi1, d/d_xi2 acting on flattened fields,
        shared by every grid of the same shape."""
        return _stencils(self.shape, width)


@functools.lru_cache(maxsize=16)
def _axis_stencil(n: int, h: float, periodic: bool, width: int) -> tuple[np.ndarray, np.ndarray]:
    """First-derivative stencil on n points with spacing h as two
    read-only (k, n) tables: wts[j, i] is the weight of the j-th entry
    of point i's window and idx[j, i] its point, each window's entries
    in ascending point order (the order a CSR matrix stores a row in).

    Each window has k = width points (fewer on a short periodic axis),
    centered where possible and shifted at the ends of a non-periodic
    axis; the weights come from solving the Vandermonde moment system,
    so the rule is exact on polynomials of degree < k.
    """
    k = min(width, n if n % 2 == 1 or not periodic else n - 1)
    half = k // 2
    rhs = np.eye(k)[1]
    wts = np.empty((k, n))
    idx = np.empty((k, n), dtype=np.int32)
    for i in range(n):
        lo = i - half if periodic else min(max(i - half, 0), n - k)
        cols = np.arange(lo, lo + k)
        w = np.linalg.solve(np.vander((cols - i) * h, k, increasing=True).T, rhs)
        # re-center the zeroth moment (best effort on the weights; exact
        # annihilation of constants is enforced at application time by
        # _axis_derivative's difference form)
        w -= w.mean()
        cols %= n
        order = np.argsort(cols)
        wts[:, i], idx[:, i] = w[order], cols[order]
    wts.setflags(write=False)
    idx.setflags(write=False)
    return wts, idx


@functools.lru_cache(maxsize=4)
def _stencils(shape: tuple[int, int, int], width: int) -> tuple[sps.csr_matrix, ...]:
    """The derivative operators of a grid of `shape`, built on first use
    as Kronecker products of each axis table's CSR form with identities;
    scipy.sparse is imported here so the axis tables need numpy alone."""
    import scipy.sparse as sps

    grid = HopfGrid(*shape)
    ops = []
    for n, h, periodic in zip(shape, grid.spacings, (False, False, True)):
        wts, idx = _axis_stencil(n, h, periodic, width)
        indptr = np.arange(0, wts.size + 1, len(wts))
        ops.append(sps.csr_matrix((wts.T.ravel(), idx.T.ravel(), indptr), shape=(n, n)))
    i1, i2, i3 = (sps.identity(n) for n in shape)
    return (
        sps.kron(sps.kron(ops[0], i2), i3).tocsr(),
        sps.kron(sps.kron(i1, ops[1]), i3).tocsr(),
        sps.kron(sps.kron(i1, i2), ops[2]).tocsr(),
    )


def frame_fields(z, w) -> np.ndarray:
    """Invariant frame at points (z, w) of S^3 in C^2.

    Returns an array of shape broadcast(z, w).shape + (3, 2): the three
    frame vectors V1 = (iz, iw), V2 = (conj w, -conj z),
    V3 = (-i conj w, i conj z) as complex tangent pairs.  Points must
    lie on the unit sphere to within 1e-12.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    z, w = np.broadcast_arrays(z, w)
    off = np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1.0)
    if off.size == 0 or not np.all(np.isfinite(off)) or off.max() > _SPHERE_TOL:
        worst = float(off.max()) if off.size else float("nan")
        raise ChartDomainError(
            f"point not on the unit sphere: | |z|^2 + |w|^2 - 1 | = {worst:.3e} > {_SPHERE_TOL}"
        )
    v1 = np.stack([1j * z, 1j * w], axis=-1)
    v2 = np.stack([np.conj(w), -np.conj(z)], axis=-1)
    v3 = np.stack([-1j * np.conj(w), 1j * np.conj(z)], axis=-1)
    return np.stack([v1, v2, v3], axis=-2)


def embedding(grid: HopfGrid) -> tuple[np.ndarray, np.ndarray]:
    """Chart embedding (z, w) at every cell center."""
    e, x1, x2 = grid.meshes()
    return np.cos(e) * np.exp(1j * x1), np.sin(e) * np.exp(1j * x2)


def _real4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """View a C^2 vector (a, b) as the real 4-vector (Re a, Im a, Re b, Im b)."""
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


@dataclass(frozen=True)
class MetricField:
    """A Berger metric evaluated on a grid: g[..., a, b] in chart
    coordinates (eta, xi1, xi2) at every cell center, plus the derived
    volume data.  `params` records the Berger weights when the field
    came from one (rescaled fields drop it).

    Every cell must be finite, symmetric to 1e-12 relative to its
    largest entry, and positive definite (all leading minors positive);
    otherwise InvalidMetricError.  det and inv come from the 3x3
    cofactors of the symmetrized cells."""

    grid: HopfGrid
    g: np.ndarray = field(repr=False)
    params: BergerParams | None = None
    chart_residual: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != self.grid.shape + (3, 3):
            raise InvalidMetricError(
                f"metric field shape {g.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise InvalidMetricError("metric field has non-finite entries")
        # component-major copy: gc[a, b] is the contiguous field g_ab
        gc = np.ascontiguousarray(np.moveaxis(g, (-2, -1), (0, 1)))
        gct = gc.swapaxes(0, 1)
        if np.any(np.abs(gc - gct).max(axis=(0, 1)) > _SYMMETRY_TOL * np.abs(gc).max(axis=(0, 1))):
            raise InvalidMetricError("metric field is not symmetric at every cell")
        # cofactors of the symmetric 3x3 cells; det and the leading
        # minors g_00 and c_22 decide positive definiteness (Sylvester).
        # Entries far from 1 can overflow det or the inverse; such cells
        # are rejected below rather than warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            gc = 0.5 * (gc + gct)
            (g00, g01, g02), (_, g11, g12), (_, _, g22) = gc
            cof = {
                (0, 0): g11 * g22 - g12 * g12,
                (0, 1): g02 * g12 - g01 * g22,
                (0, 2): g01 * g12 - g02 * g11,
                (1, 1): g00 * g22 - g02 * g02,
                (1, 2): g01 * g02 - g00 * g12,
                (2, 2): g00 * g11 - g01 * g01,
            }
            det = g00 * cof[0, 0] + g01 * cof[0, 1] + g02 * cof[0, 2]
            if not (np.all(g00 > 0.0) and np.all(cof[2, 2] > 0.0) and np.all(det > 0.0)):
                raise InvalidMetricError("metric field is not positive definite at every cell")
            # the components g^{ij} stay contiguous: grad_sq reads them
            # on every call
            inv_of = {ij: c / det for ij, c in cof.items()}
        if not all(np.all(np.isfinite(a)) for a in (det, *inv_of.values())):
            raise InvalidMetricError("metric field determinant or inverse is not finite")
        inv_ij = tuple(tuple(inv_of[min(i, j), max(i, j)] for j in range(3)) for i in range(3))
        g = np.ascontiguousarray(np.moveaxis(gc, (0, 1), (-2, -1)))
        inv = np.ascontiguousarray(np.moveaxis(np.array(inv_ij), (0, 1), (-2, -1)))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "_inv_ij", inv_ij)
        object.__setattr__(self, "sqrt_det", np.sqrt(det))
        object.__setattr__(self, "weight", self.sqrt_det * self.grid.cell_volume)

    def volume(self) -> float:
        return float(np.sum(self.weight))

    def scaled(self, lam: float) -> "MetricField":
        """The homothetic metric lam * g on the same grid."""
        if not np.isfinite(lam) or lam <= 0.0:
            raise InvalidMetricError(f"scale factor must be positive, got {lam}")
        return MetricField(
            grid=self.grid, g=lam * self.g, params=None, chart_residual=self.chart_residual
        )


def chart_metric(grid: HopfGrid, params: BergerParams) -> MetricField:
    """Berger metric with weights (1, s, t) in chart coordinates.

    The coordinate tangent vectors dE/d(eta, xi1, xi2) expand over the
    invariant frame as dE_a = sum_k em_ak V_k with, for
    theta = xi1 + xi2,

        em[eta] = (0,       -cos theta,                 sin theta),
        em[xi1] = (cos^2 eta, -cos eta sin eta sin theta, -cos eta sin eta cos theta),
        em[xi2] = (sin^2 eta,  cos eta sin eta sin theta,  cos eta sin eta cos theta),

    and the metric is g_ab = sum_k weight_k em_ak em_bk.  The expansion
    is checked on every cell against `frame_fields(embedding(grid))`:
    it must reproduce the coordinate vectors to 1e-10 (the frame spans
    the tangent space at interior cells).
    """
    e = grid.eta[:, None, None]
    x1 = grid.xi1[None, :, None]
    x2 = grid.xi2[None, None, :]
    ce, se = np.cos(e), np.sin(e)
    ct, st = np.cos(x1 + x2), np.sin(x1 + x2)
    cs = ce * se
    zero = np.zeros((1, 1, 1))
    em = (
        (zero, -ct, st),
        (ce * ce, -cs * st, -cs * ct),
        (se * se, cs * st, cs * ct),
    )
    c1, s1, c2, s2 = np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2)
    de = (  # (Re z, Im z, Re w, Im w) parts of d/d_eta, d/d_xi1, d/d_xi2
        (-se * c1, -se * s1, ce * c2, ce * s2),
        (-ce * s1, ce * c1, zero, zero),
        (zero, zero, -se * s2, se * c2),
    )
    v = frame_fields(*embedding(grid))
    frame = np.moveaxis(_real4(v[..., 0], v[..., 1]), (-2, -1), (0, 1)).copy()  # (3, 4, ...)
    resid = max(
        float(np.abs(de[a][c] - em[a][0] * frame[0, c] - em[a][1] * frame[1, c]
                     - em[a][2] * frame[2, c]).max())
        for a in range(3)
        for c in range(4)
    )
    if resid > _CHART_TOL:
        raise ChartConsistencyError(
            f"coordinate vectors are not spanned by the frame (residual {resid:.3e})"
        )
    s, t = params.s, params.t
    g = np.empty(grid.shape + (3, 3))
    for a in range(3):
        for b in range(a, 3):
            g[..., a, b] = g[..., b, a] = (
                em[a][0] * em[b][0] + s * em[a][1] * em[b][1] + t * em[a][2] * em[b][2]
            )
    return MetricField(grid=grid, g=g, params=params, chart_residual=resid)


def _axis_derivative(f: np.ndarray, grid: HopfGrid, axis: int, width: int = 3) -> np.ndarray:
    """d f / d x_axis in difference form: out_i = sum_j w_ij (f_j - f_i),
    the window's entries summed in stored order from 0.0.  f is a grid
    field, or any block of it that keeps whole lines along `axis`.

    Algebraically this equals the matvec with the axis operator of
    `HopfGrid.diff_ops` (the stencil weights sum to zero), but every
    term is an exact floating-point zero on constant fields, so
    derivatives of constants come out as 0.0 rather than accumulated
    roundoff — an identity downstream quadratures rely on.
    """
    n = grid.shape[axis]
    wts, idx = _axis_stencil(n, grid.spacings[axis], axis == 2, width)
    bcast = [1, 1, 1]
    bcast[axis] = n
    out = np.zeros(f.shape)
    for w, j in zip(wts, idx):
        out += w.reshape(bcast) * (np.take(f, j, axis=axis) - f)
    return out


def _derivatives(f: np.ndarray, grid: HopfGrid, width: int = 3) -> list[np.ndarray]:
    """[d_eta f, d_xi1 f, d_xi2 f] of a grid field."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise InputFormatError(f"field shape {f.shape} does not match grid {grid.shape}")
    return [_axis_derivative(f, grid, i, width) for i in range(3)]


def partial_derivatives(f: np.ndarray, grid: HopfGrid, width: int = 3) -> np.ndarray:
    """Stacked coordinate derivatives df[..., i] = d_i f at every cell."""
    return np.stack(_derivatives(f, grid, width), axis=-1)


def integrate(f, metric: MetricField) -> float:
    """Integral of f against the Riemannian volume element."""
    return float(np.sum(np.asarray(f, dtype=float) * metric.weight))


def grad_sq(f: np.ndarray, metric: MetricField) -> np.ndarray:
    """|df|^2_g = g^{ij} d_i f d_j f at every cell (clamped at zero:
    the form is positive semidefinite, negatives are pure roundoff)."""
    df = _derivatives(f, metric.grid)
    # term by term, in the order and with the products of
    # einsum("...ij,...i,...j->...", inv, df, df)
    acc = np.zeros(metric.grid.shape)
    for i in range(3):
        for j in range(3):
            acc += metric._inv_ij[i][j] * df[i] * df[j]
    return np.maximum(acc, 0.0)


# === boundary geometry of the faces xi1 = 0 and xi1 = pi ================


@dataclass(frozen=True)
class FaceSecondForm:
    """Second fundamental form data of one face, sampled at the face's
    adjacent cell layer, restricted to cells outside the axis collar."""

    name: str
    kept_eta: np.ndarray
    mean_curvature: np.ndarray = field(repr=False)
    ii_norm: np.ndarray = field(repr=False)
    max_abs_mean_curvature: float
    max_ii_norm: float
    min_ii_norm: float
    excluded_cells: int


@dataclass(frozen=True)
class BoundaryReport:
    faces: tuple[FaceSecondForm, ...]
    margin: float

    @property
    def max_abs_mean_curvature(self) -> float:
        return max(f.max_abs_mean_curvature for f in self.faces)

    @property
    def max_ii_norm(self) -> float:
        return max(f.max_ii_norm for f in self.faces)

    def to_dict(self) -> dict:
        return {
            "margin": self.margin,
            "faces": [
                {
                    "name": f.name,
                    "max_abs_mean_curvature": f.max_abs_mean_curvature,
                    "max_ii_norm": f.max_ii_norm,
                    "min_ii_norm": f.min_ii_norm,
                    "excluded_cells": f.excluded_cells,
                }
                for f in self.faces
            ],
        }


def boundary_second_form(metric: MetricField, margin: float | None = None) -> BoundaryReport:
    """Second fundamental form of the faces xi1 = 0 and xi1 = pi.

    The faces are level sets of xi1, with inward unit normal
    n^i = +/- g^{i xi1} / sqrt(g^{xi1 xi1}) (plus at xi1 = 0, minus at
    xi1 = pi).  Writing the face as a level set of phi (phi = xi1,
    respectively -xi1) with d phi the inward conormal,

        II_ab = Hessian(phi)_ab / |d phi|
              = -/+ Gamma^{xi1}_ab / sqrt(g^{xi1 xi1})

    restricted to the tangential block (eta, xi2).  The mean curvature
    is the trace against the induced metric and |II| the Frobenius norm
    of the shape operator.  Cells within `margin` of the coordinate
    axes eta in {0, pi/2} are excluded (the chart, not the geometry,
    degenerates there); the default margin is max(2 * d_eta, 0.15).
    Derivatives use 5-point windows so the boundary data converges
    visibly under refinement.
    """
    grid = metric.grid
    d_eta = grid.spacings[0]
    if margin is None:
        margin = max(2.0 * d_eta, _COLLAR_FLOOR)

    # Only the cell layers next to the faces are read, and of the
    # Christoffel symbols only Gamma^{xi1}_ab.
    layers = [0, grid.n_xi1 - 1]
    dg = np.empty((grid.n_eta, 2, grid.n_xi2, 3, 3, 3))  # [..., c, a, b] = d_c g_ab
    for a in range(3):
        for b in range(3):
            gab = np.ascontiguousarray(metric.g[..., a, b])
            face = gab[:, layers]
            dg[..., 0, a, b] = _axis_derivative(face, grid, 0, width=5)
            dg[..., 1, a, b] = _axis_derivative(gab, grid, 1, width=5)[:, layers]
            dg[..., 2, a, b] = _axis_derivative(face, grid, 2, width=5)
    inv = metric.inv[:, layers]
    row = inv[..., 1, :]
    gamma1 = 0.5 * (
        np.einsum("...m,...amb->...ab", row, dg)
        + np.einsum("...m,...bma->...ab", row, dg)
        - np.einsum("...m,...mab->...ab", row, dg)
    )
    inv_dphi = 1.0 / np.sqrt(inv[..., 1, 1])
    tang = [0, 2]
    hess = -gamma1[..., tang, :][..., :, tang] * inv_dphi[..., None, None]
    # ghat is inverted on the whole grid, not on the face layers alone:
    # einsum's summation order below follows its operands' memory
    # layout, and this one keeps the face data bit-identical to the
    # formula with all Christoffel symbols on the whole grid
    ghat = metric.g[..., tang, :][..., :, tang]
    ghat_inv = np.linalg.inv(ghat)

    keep = (grid.eta > margin) & (grid.eta < np.pi / 2 - margin)
    if not keep.any():
        raise InvalidMetricError(
            f"collar margin {margin:.3f} excludes every cell; refine the grid"
        )
    faces = []
    for j, name, sign in ((0, "xi1=0", 1.0), (1, "xi1=pi", -1.0)):
        ii = sign * hess[:, j, :, :, :]
        ghi = ghat_inv[:, layers[j], :, :, :]
        mean_curv = np.einsum("...ab,...ab->...", ghi, ii)
        shape_op = np.einsum("...ac,...cb->...ab", ghi, ii)
        ii_norm = np.sqrt(np.maximum(np.einsum("...ab,...ba->...", shape_op, shape_op), 0.0))
        faces.append(
            FaceSecondForm(
                name=name,
                kept_eta=grid.eta[keep],
                mean_curvature=mean_curv[keep],
                ii_norm=ii_norm[keep],
                max_abs_mean_curvature=float(np.abs(mean_curv[keep]).max()),
                max_ii_norm=float(ii_norm[keep].max()),
                min_ii_norm=float(ii_norm[keep].min()),
                excluded_cells=int((~keep).sum() * grid.n_xi2),
            )
        )
    return BoundaryReport(faces=tuple(faces), margin=float(margin))
