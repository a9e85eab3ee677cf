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

import numpy as np
import scipy.sparse as sps

from .errors import (
    ChartConsistencyError,
    ChartDomainError,
    InputFormatError,
    InvalidMetricError,
)
from .lie_curvature import BergerParams

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
# Collar excluded near the coordinate axes when evaluating boundary
# quantities: the chart degenerates at eta in {0, pi/2}, so one-sided
# stencils there see the (harmless) coordinate singularity.
_COLLAR_FLOOR = 0.15


def _d1_matrix(n: int, h: float, periodic: bool, width: int) -> sps.csr_matrix:
    """First-derivative matrix on n points with spacing h.

    Each row uses a `width`-point window (centered where possible,
    shifted at the ends of a non-periodic axis); the weights come from
    solving the Vandermonde moment system, so the rule is exact on
    polynomials of degree < width.
    """
    width = min(width, n if n % 2 == 1 or not periodic else n - 1)
    half = width // 2
    rows, cols, vals = [], [], []
    for i in range(n):
        if periodic:
            offs = np.arange(-half, half + 1)
            idx = (i + offs) % n
        else:
            lo = min(max(i - half, 0), n - width)
            idx = np.arange(lo, lo + width)
            offs = idx - i
        a = np.vander(offs * h, width, increasing=True).T
        rhs = np.zeros(width)
        rhs[1] = 1.0
        wts = np.linalg.solve(a, rhs)
        # re-center the zeroth moment (best effort at the matrix level;
        # exact annihilation of constants is enforced at application
        # time by _axis_derivative's difference form)
        wts -= wts.mean()
        rows.extend([i] * width)
        cols.extend(idx.tolist())
        vals.extend(wts.tolist())
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, n))


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


@functools.lru_cache(maxsize=4)
def _stencils(shape: tuple[int, int, int], width: int) -> tuple[sps.csr_matrix, ...]:
    """The derivative operators of a grid of `shape`, built on first use."""
    grid = HopfGrid(*shape)
    de, d1, d2 = grid.spacings
    i1 = sps.identity(grid.n_eta)
    i2 = sps.identity(grid.n_xi1)
    i3 = sps.identity(grid.n_xi2)
    return (
        sps.kron(sps.kron(_d1_matrix(grid.n_eta, de, False, width), i2), i3).tocsr(),
        sps.kron(sps.kron(i1, _d1_matrix(grid.n_xi1, d1, False, width)), i3).tocsr(),
        sps.kron(sps.kron(i1, i2), _d1_matrix(grid.n_xi2, d2, True, width)).tocsr(),
    )


@functools.lru_cache(maxsize=16)
def _axis_stencil(n: int, h: float, periodic: bool, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `_d1_matrix` as two read-only (k, n) tables, k the
    window length: wts[j, i] is the weight of the j-th stored entry of
    row i and idx[j, i] its column, in the matrix's stored order."""
    d = _d1_matrix(n, h, periodic, width)
    k = d.indptr[1]
    wts = d.data.reshape(n, k).T.copy()
    idx = d.indices.reshape(n, k).T.copy()
    wts.setflags(write=False)
    idx.setflags(write=False)
    return wts, idx


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
    came from one (rescaled fields drop it)."""

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
        det = np.linalg.det(g)
        if not np.all(np.isfinite(g)) or det.min() <= 0.0:
            raise InvalidMetricError("metric field is not positive definite at every cell")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "det", det)
        inv = np.linalg.inv(g)
        object.__setattr__(self, "inv", inv)
        # contiguous copies of the components g^{ij}, which grad_sq reads
        # on every call
        inv_ij = tuple(
            tuple(np.ascontiguousarray(inv[..., i, j]) for j in range(3)) for i in range(3)
        )
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

    The coordinate tangent vectors dE/d(eta, xi1, xi2) are expanded
    over the invariant frame; the expansion must reproduce them to
    1e-10 (the frame spans the tangent space at interior cells), and
    the metric is then sum_k weight_k em_ak em_bk.
    """
    e, x1, x2 = grid.meshes()
    z, w = embedding(grid)
    v = frame_fields(z, w)
    frame4 = _real4(v[..., 0], v[..., 1])  # (..., 3, 4)
    zero = np.zeros_like(z)
    de = np.stack(
        [
            _real4(-np.sin(e) * np.exp(1j * x1), np.cos(e) * np.exp(1j * x2)),
            _real4(1j * z, zero),
            _real4(zero, 1j * w),
        ],
        axis=-2,
    )  # (..., 3, 4): rows are d/d_eta, d/d_xi1, d/d_xi2
    em = np.einsum("...ak,...bk->...ab", de, frame4)
    resid = float(np.abs(de - np.einsum("...ab,...bk->...ak", em, frame4)).max())
    if resid > _CHART_TOL:
        raise ChartConsistencyError(
            f"coordinate vectors are not spanned by the frame (residual {resid:.3e})"
        )
    wts = np.array([1.0, params.s, params.t])
    g = np.einsum("...ak,k,...bk->...ab", em, wts, em)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
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
