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

orthonormal for the round metric.  The frame is defined in
`lie_curvature` (`_FRAME_MAPS`, the fields as linear maps on R^4), whose
structure constants are the brackets of these same fields.  A Berger
metric with weights (1, s, t) is evaluated in chart coordinates by
expanding the coordinate tangent vectors over this frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ChartConsistencyError,
    ChartDomainError,
    InputFormatError,
    InvalidMetricError,
    NumericalFailureError,
    _whole,
)
from .lie_curvature import _FRAME_MAPS, BergerParams, levi_civita, su2_structure_constants

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


@dataclass(frozen=True)
class HopfGrid:
    """Cell-centered grid on eta in [0, pi/2], xi1 in [0, pi],
    xi2 in [0, 2 pi]; xi2 is periodic, the other two axes are not."""

    n_eta: int
    n_xi1: int
    n_xi2: int

    def __post_init__(self):
        for name in ("n_eta", "n_xi1", "n_xi2"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, _MIN_CELLS))

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
        on windows of `width` points, an odd whole number >= 3 (every
        other derivative here uses 3), shared by every grid of the same
        shape.  Any other width raises InputFormatError."""
        width = _whole(width, "width", 3)
        if width % 2 == 0:
            raise InputFormatError(f"width must be odd, got {width}")
        return _stencils(self.shape, width)


def _slopes(offsets: tuple[int, ...]) -> list[Fraction]:
    """Exact first-derivative weights at 0 of the window of integer
    `offsets` (0 among them) on unit spacing, the slopes at 0 of its
    Lagrange basis: offset o != 0 weighs (1/o) prod l/(l - o) over the
    other nonzero offsets l, and offset 0 weighs -sum 1/l."""
    return [
        Fraction(1, o) * math.prod(Fraction(l, l - o) for l in offsets if l not in (0, o))
        if o else -sum(Fraction(1, l) for l in offsets if l)
        for o in offsets
    ]


@functools.lru_cache(maxsize=16)
def _axis_stencil(n: int, h: float, periodic: bool, width: int) -> tuple[np.ndarray, np.ndarray]:
    """First-derivative stencil on n points with spacing h as two
    read-only (k, n) tables: wts[j, i] is the weight of the j-th entry
    of point i's window and idx[j, i] its point.  Row 0 is each point's
    own entry (idx[0] == arange(n)); the other rows follow in offset
    order.

    Each window has k = width points (fewer on a short periodic axis),
    centered where possible and shifted at the ends of a non-periodic
    axis.  Each weight is the exact rational weight of `_slopes` divided
    by h and rounded once, once per offset pattern, so a centered window
    has exactly antisymmetric weights and a +0.0 center weight.
    """
    k = min(width, n if n % 2 == 1 or not periodic else n - 1)
    half = k // 2
    rounded = {}
    wts = np.empty((k, n))
    idx = np.empty((k, n), dtype=np.int32)
    for i in range(n):
        lo = i - half if periodic else min(max(i - half, 0), n - k)
        offs = (0,) + tuple(o for o in range(lo - i, lo - i + k) if o)
        if offs not in rounded:
            rounded[offs] = [float(w / Fraction(h)) for w in _slopes(offs)]
        wts[:, i] = rounded[offs]
        idx[:, i] = [(i + o) % n for o in offs]
    wts.setflags(write=False)
    idx.setflags(write=False)
    return wts, idx


@functools.lru_cache(maxsize=4)
def _stencils(shape: tuple[int, int, int], width: int) -> tuple[sps.csr_matrix, ...]:
    """The derivative operators of a grid of `shape`, built on first use
    as Kronecker products of each axis table's CSR form with identities;
    scipy.sparse is imported here so the axis tables need numpy alone.
    No operator stores a zero: the tables' 0.0 center weights and the
    zero-filled blocks `sps.kron` keeps on short axes are dropped."""
    import scipy.sparse as sps

    grid = HopfGrid(*shape)
    ops = []
    for n, h, periodic in zip(shape, grid.spacings, (False, False, True)):
        wts, idx = _axis_stencil(n, h, periodic, width)
        rows = np.tile(idx[0], len(idx))  # row 0 of idx is each point itself
        ops.append(sps.csr_matrix((wts.ravel(), (rows, idx.ravel())), shape=(n, n)))
    i1, i2, i3 = (sps.identity(n) for n in shape)
    out = (
        sps.kron(sps.kron(ops[0], i2), i3).tocsr(),
        sps.kron(sps.kron(i1, ops[1]), i3).tocsr(),
        sps.kron(sps.kron(i1, i2), ops[2]).tocsr(),
    )
    for op in out:
        op.eliminate_zeros()
    return out


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


@dataclass(frozen=True)
class MetricField:
    """A Berger metric evaluated on a grid: g[a, b] is the contiguous
    field of the chart component g_ab, (a, b) over (eta, xi1, xi2), at
    every cell center; inv[i, j] holds g^{ij} the same way, sqrt_det the
    volume density sqrt(det g) and weight the quadrature weights
    sqrt_det * cell_volume.  `params` records the Berger weights when the
    field came from one (a hand-built field, a rescaled one say, has none).

    Every cell must be finite, symmetric to 1e-12 relative to its
    largest entry, and positive definite (all leading minors positive);
    otherwise InvalidMetricError.  inv and sqrt_det come from the 3x3
    cofactors of the symmetrized cells."""

    grid: HopfGrid
    g: np.ndarray = field(repr=False)
    params: BergerParams | None = None
    chart_residual: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float, order="C")
        if g.shape != (3, 3) + self.grid.shape:
            raise InvalidMetricError(
                f"metric field shape {g.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise InvalidMetricError("metric field has non-finite entries")
        # inv first holds the cofactors of the symmetric 3x3 cells; det
        # and the leading minors g_00 and c_22 decide positive
        # definiteness (Sylvester).  Entries far from 1 can overflow det
        # or the inverse; such cells are rejected below rather than
        # warned about.
        inv = np.empty(g.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            # a difference that overflows is inf, and fails the test; the
            # diagonal differences of a finite field are 0 and decide nothing
            asym = np.abs(g[0, 1] - g[1, 0])
            for a, b in ((0, 2), (1, 2)):
                np.maximum(asym, np.abs(g[a, b] - g[b, a]), out=asym)
            if np.any(asym > _SYMMETRY_TOL * np.abs(g).max(axis=(0, 1))):
                raise InvalidMetricError("metric field is not symmetric at every cell")
            g = g + g.swapaxes(0, 1)
            g *= 0.5
            (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
            inv[0, 0] = g11 * g22 - g12 * g12
            inv[0, 1] = inv[1, 0] = g02 * g12 - g01 * g22
            inv[0, 2] = inv[2, 0] = g01 * g12 - g02 * g11
            inv[1, 1] = g00 * g22 - g02 * g02
            inv[1, 2] = inv[2, 1] = g01 * g02 - g00 * g12
            inv[2, 2] = g00 * g11 - g01 * g01
            det = g00 * inv[0, 0] + g01 * inv[0, 1] + g02 * inv[0, 2]
            if not (np.all(g00 > 0.0) and np.all(inv[2, 2] > 0.0) and np.all(det > 0.0)):
                raise InvalidMetricError("metric field is not positive definite at every cell")
            inv /= det
        if not (np.all(np.isfinite(det)) and np.all(np.isfinite(inv))):
            raise InvalidMetricError("metric field determinant or inverse is not finite")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "sqrt_det", np.sqrt(det))
        object.__setattr__(self, "weight", self.sqrt_det * self.grid.cell_volume)

    def volume(self) -> float:
        return float(np.sum(self.weight))


def chart_metric(grid: HopfGrid, params: BergerParams) -> MetricField:
    """Berger metric with weights (1, s, t) in chart coordinates.

    The coordinate tangent vectors dE/d(eta, xi1, xi2) expand over the
    invariant frame as dE_a = sum_k em_ak V_k with, for
    theta = xi1 + xi2,

        em[eta] = (0,       -cos theta,                 sin theta),
        em[xi1] = (cos^2 eta, -cos eta sin eta sin theta, -cos eta sin eta cos theta),
        em[xi2] = (sin^2 eta,  cos eta sin eta sin theta,  cos eta sin eta cos theta),

    and the metric is g_ab = sum_k weight_k em_ak em_bk.  The expansion
    is checked on every cell against the frame `_FRAME_MAPS` at the
    embedded point x = (cos eta cos xi1, cos eta sin xi1, sin eta cos xi2,
    sin eta sin xi2): it must reproduce the coordinate vectors to 1e-10
    (the frame spans the tangent space at interior cells).  A field that
    fails MetricField's checks in floating point raises NumericalFailureError.
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
    x = (ce * c1, ce * s1, se * c2, se * s2)
    # each frame component _FRAME_MAPS[k, c] @ x is one signed coordinate of x
    frame = [[x[d] if m[c, d] > 0 else -x[d] for c, d in enumerate(np.abs(m).argmax(axis=1))]
             for m in _FRAME_MAPS]
    # each residual de - em_0 frame_0 - em_1 frame_1 - em_2 frame_2, in
    # that order, formed in two grid buffers
    diff, term = np.empty(grid.shape), np.empty(grid.shape)
    resids = []
    for a in range(3):
        for c in range(4):
            np.subtract(de[a][c], np.multiply(em[a][0], frame[0][c], out=term), out=diff)
            for k in (1, 2):
                diff -= np.multiply(em[a][k], frame[k][c], out=term)
            resids.append(float(np.abs(diff, out=diff).max()))
    resid = max(resids)
    if resid > _CHART_TOL:
        raise ChartConsistencyError(
            f"coordinate vectors are not spanned by the frame (residual {resid:.3e})"
        )
    s, t = params.s, params.t
    g = np.empty((3, 3) + grid.shape)
    for a in range(3):
        for b in range(a, 3):
            g[a, b] = g[b, a] = (
                em[a][0] * em[b][0] + s * em[a][1] * em[b][1] + t * em[a][2] * em[b][2]
            )
    try:
        return MetricField(grid=grid, g=g, params=params, chart_residual=resid)
    except InvalidMetricError as exc:  # in-domain weights: cancellation or overflow
        raise NumericalFailureError(
            f"the chart field of the metric diag(1.0, {s!r}, {t!r}) on the {grid.shape} grid "
            f"fails in floating point: {exc}"
        ) from exc


@np.errstate(over="ignore", invalid="ignore")
def _axis_derivative(f: np.ndarray, grid: HopfGrid, axis: int) -> np.ndarray:
    """d f / d x_axis in difference form: out_i = sum_j w_ij (f_j - f_i)
    over the width-3 windows of `_axis_stencil`, the window's other
    entries (rows 1: of its tables) summed in offset order from 0.0, f a
    grid field or a block of one that spans the whole `axis`.

    Algebraically this equals the matvec with the axis operator of
    `HopfGrid.diff_ops` (the stencil weights sum to zero), but every
    term is an exact floating-point zero on constant fields, so
    derivatives of constants come out as 0.0 rather than accumulated
    roundoff — an identity downstream quadratures rely on.

    The sum skips each point's own entry, row 0: on a finite field its term
    w_ii (f_i - f_i) is a signed zero, and adding a signed zero to a sum
    that starts at +0.0 changes no bit.  A non-finite cell still gives a
    non-finite derivative, but where the full sum reads NaN (inf - inf in
    the own term) this one may read +/-inf.

    Nothing is gathered.  The centered windows (the interior of eta and
    xi1, all of the periodic xi2) weigh their neighbours by the same two
    floats -w, +w, so their terms are w d_{i-1} and w d_i of one forward
    difference d_i = f_{i+1} - f_i, taken over the flattened field with
    the neighbour one axis stride away (xi2 writes its wrap
    d_{n-1} = f_0 - f_{n-1} apart): f_{i-1} - f_i is exactly -d_{i-1} but
    for the sign of a zero, which the 0.0 the sum starts from removes.
    Differences across two rows or eta slabs are overwritten by that wrap
    or by the one-sided end layers (`_end_layers`); they may overflow, so
    the kernel runs with overflow ignored, as its callers do.
    """
    shape = f.shape
    n, step = shape[axis], math.prod(shape[axis + 1:])
    w = float(_axis_stencil(n, grid.spacings[axis], axis == 2, 3)[0][2, 1])
    flat = np.ravel(f)
    d = np.empty(flat.size)
    np.subtract(flat[step:], flat[:-step], out=d[:-step])
    out = np.empty(shape)
    if axis == 2:
        dv = d.reshape(shape)
        np.subtract(f[..., :1], f[..., -1:], out=dv[..., -1:])
        d *= w
        np.add(d[:-1], 0.0, out=out.reshape(-1)[1:])
        np.add(dv[..., -1:], 0.0, out=out[..., :1])
        out += dv
        return out
    d[:-step] *= w
    mid = out.reshape(-1)[step:-step]
    np.add(d[:-2 * step], 0.0, out=mid)
    mid += d[step:-step]
    _end_layers(f, grid, axis, out[(slice(None),) * axis + (slice(None, None, n - 1),)])
    return out


def _end_layers(f: np.ndarray, grid: HopfGrid, axis: int, out: np.ndarray) -> None:
    """Write into `out` (two layers along `axis`) the derivative of f on
    the end layers 0 and n-1 of the non-periodic `axis` (0 or 1):
    (0.0 + w_a (f_a - f_end)) + w_b (f_b - f_end), summed as
    `_axis_derivative` sums, over the one-sided windows' other layers a,
    b in offset order, 1, 2 and n-3, n-2.  On n = 4 both windows read
    layers 1 and 2, which then broadcast."""
    n = f.shape[axis]
    wts = _axis_stencil(n, grid.spacings[axis], False, 3)[0]
    lay = (slice(None),) * axis
    own = f[lay + (slice(None, None, n - 1),)]
    w_a, w_b = wts[1:, ::n - 1].reshape((2, 2) + (1,) * (f.ndim - 1 - axis))
    t = f[lay + (slice(1, n - 2, n - 4 or None),)] - own
    t *= w_a
    t += 0.0
    u = f[lay + (slice(2, n - 1, n - 4 or None),)] - own
    u *= w_b
    np.add(t, u, out=out)


def _derivatives(f: np.ndarray, grid: HopfGrid) -> list[np.ndarray]:
    """[d_eta f, d_xi1 f, d_xi2 f] of a grid field."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise InputFormatError(f"field shape {f.shape} does not match grid {grid.shape}")
    return [_axis_derivative(f, grid, i) for i in range(3)]


def _finite(x, what: str):
    """Return x when every entry is finite, else raise NumericalFailureError
    saying `what` overflows: the one overflow rule of the grid quantities,
    which compute under np.errstate(over="ignore") and return through here."""
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"{what} overflows or is not finite")
    return x


@np.errstate(over="ignore", invalid="ignore")
def partial_derivatives(f: np.ndarray, grid: HopfGrid) -> np.ndarray:
    """Stacked coordinate derivatives df[i] = d_i f at every cell.  A
    derivative that is not finite raises NumericalFailureError (`_finite`)."""
    return _finite(np.stack(_derivatives(f, grid)), "a partial derivative")


@np.errstate(over="ignore", invalid="ignore")
def integrate(f, metric: MetricField) -> float:
    """Integral of the grid field f against the Riemannian volume
    element.  An integral that is not finite raises NumericalFailureError
    (`_finite`); a field of another shape, InputFormatError."""
    f = np.asarray(f, dtype=float)
    if f.shape != metric.grid.shape:
        raise InputFormatError(f"field shape {f.shape} does not match grid {metric.grid.shape}")
    return float(_finite(np.sum(f * metric.weight), "the integral"))


def _flux(c, df, i: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row i of the per-cell coefficients c (g^{ij}, or w g^{ij})
    contracted with the derivatives df: sum_j c[i][j] df[j], summed in
    the order numpy's einsum sums three terms, (j = 0 + j = 2) + j = 1,
    into `out` when given.  Every operator of the Dirichlet form
    contracts through here."""
    out = np.multiply(c[i][0], df[0], out=out)
    t = c[i][2] * df[2]
    out += t
    out += np.multiply(c[i][1], df[1], out=t)
    return out


@np.errstate(over="ignore", invalid="ignore")
def grad_sq(f: np.ndarray, metric: MetricField) -> np.ndarray:
    """|df|^2_g = d_i f g^{ij} d_j f at every cell, the three products
    summed in `_flux`'s order (clamped at zero: the form is positive
    semidefinite, negatives are pure roundoff).  A density that is not
    finite raises NumericalFailureError (`_finite`)."""
    df = _derivatives(f, metric.grid)
    terms = [_flux(metric.inv, df, i) for i in range(3)]
    for term, d in zip(terms, df):
        term *= d
    out = terms[0]
    out += terms[2]
    out += terms[1]
    return _finite(np.maximum(out, 0.0, out=out), "the gradient density |df|^2")


@dataclass(frozen=True)
class _Stiffness:
    """The Dirichlet energy operator A, f^T A f = integral |df|^2 dV
    under the grid quadrature, applied without assembly:
    A f = sum_i D_i^T `_flux`(coef, D f, i).  D_j is the
    difference-form derivative of `grad_sq`, so A 1 == 0 bit for bit;
    `axes[i]` is D_i^T for axis i, a dense n x n matrix filled from the
    same width-3 `_axis_stencil` table.  The descent and the probe of
    `yamabe_estimator` apply it through `_QuotientWork`."""

    grid: HopfGrid
    coef: tuple = field(repr=False)
    axes: tuple = field(repr=False)

    def __matmul__(self, f: np.ndarray) -> np.ndarray:
        shape = self.grid.shape
        d = _derivatives(f.reshape(shape), self.grid)
        t0, t1, t2 = self.axes
        flux = _flux(self.coef, d, 0)
        out = (t0 @ flux.reshape(shape[0], -1)).reshape(shape)
        out += np.matmul(t1, _flux(self.coef, d, 1, flux))
        out += _flux(self.coef, d, 2, flux) @ t2.T
        return out.reshape(-1)


def _stiffness(metric: MetricField) -> _Stiffness:
    """The stiffness operator of `metric`, with its six distinct
    per-cell coefficients w g^{ij} (g is symmetric) formed once."""
    grid = metric.grid
    c = {(i, j): metric.weight * metric.inv[i, j] for i in range(3) for j in range(i, 3)}
    coef = tuple(tuple(c[min(i, j), max(i, j)] for j in range(3)) for i in range(3))
    axes = []
    for n, h, periodic in zip(grid.shape, grid.spacings, (False, False, True)):
        wts, idx = _axis_stencil(n, h, periodic, 3)
        axes.append(np.zeros((n, n)))
        axes[-1][idx, idx[0]] = wts  # row 0 of idx is each point itself
    return _Stiffness(grid, coef, tuple(axes))


# === boundary geometry of the faces xi1 = 0 and xi1 = pi ================


@dataclass(frozen=True)
class FaceSecondForm:
    """Second fundamental form data of one face at the grid's (eta, xi2)
    points: the arrays have shape (n_eta, n_xi2)."""

    name: str
    mean_curvature: np.ndarray = field(repr=False)
    ii_norm: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BoundaryReport:
    faces: tuple[FaceSecondForm, ...]

    @property
    def max_abs_mean_curvature(self) -> float:
        return max(float(np.abs(f.mean_curvature).max()) for f in self.faces)

    @property
    def max_ii_norm(self) -> float:
        return max(float(f.ii_norm.max()) for f in self.faces)


def _level_second_form(
    params: BergerParams, eta: np.ndarray, xi2: np.ndarray, c: float, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean curvature and |II| of the level xi1 = c, the great sphere
    f = cos(c) x2 - sin(c) x1 = 0, at the points (eta, c, xi2) (eta and
    xi2 broadcast), for the normal toward increasing (sign = +1) or
    decreasing (sign = -1) xi1.  V_i f and Hess f(V_i, V_j) =
    V_i(V_j f) - Gamma^k_ij V_k f are linear in x; in the orthonormal
    frame V_i / sqrt(w_i), II = sign P Hess(f) P / |df| with P the
    projection orthogonal to the unit normal."""
    w = np.array([1.0, params.s, params.t])
    gamma = levi_civita(su2_structure_constants(), params.metric())
    a = np.array([-np.sin(c), np.cos(c), 0.0, 0.0])
    ell = a @ _FRAME_MAPS  # ell[k] @ x = V_k f
    hess = np.einsum("p,jpq,iqr->ijr", a, _FRAME_MAPS, _FRAME_MAPS)  # V_i (V_j f)
    hess -= np.einsum("kij,kr->ijr", gamma, ell)
    r = 1.0 / np.sqrt(w)
    eta, xi2 = np.broadcast_arrays(eta, xi2)
    ce, se = np.cos(eta), np.sin(eta)
    x = np.stack([ce * np.cos(c), ce * np.sin(c), se * np.cos(xi2), se * np.sin(xi2)], axis=-1)
    grad = x @ (ell * r[:, None]).T
    n = np.linalg.norm(grad, axis=-1)
    nu = grad / n[..., None]
    proj = np.eye(3) - nu[..., :, None] * nu[..., None, :]
    h = np.tensordot(x, hess * np.outer(r, r)[..., None], axes=(-1, -1))
    ii = (sign / n)[..., None, None] * (proj @ h @ proj)
    return np.trace(ii, axis1=-2, axis2=-1), np.sqrt(np.einsum("...ab,...ab->...", ii, ii))


def boundary_second_form(metric: MetricField) -> BoundaryReport:
    """Exact second fundamental form of the faces xi1 = 0 and xi1 = pi,
    halves of the great sphere {x2 = 0}, for the inward normals, at every
    (eta, xi2) point of the grid.  It is computed from the Berger weights
    `metric.params`; a field without them (hand-built, or rescaled)
    raises InputFormatError.

    H = 0 for every (s, t).  For f = x2, ell = (V_i f) = (x1, -x4, -x3),
    N^2 = x1^2 + x4^2/s + x3^2/t and nu = sum_i ell_i V_i / (w_i N).  The
    frame fields are divergence free, so H = div nu = sum_i V_i(ell_i)
    / (w_i N) - sum_ij ell_i ell_j V_i(ell_j) / (w_i w_j N^3).  Each
    V_i(ell_i) = -x2 vanishes on the face, and V_i(ell_j) = -V_j(ell_i)
    for i != j.  |II| vanishes only at s = t = 1.  N^2 >= 1/t on the
    face, so the form is smooth up to the axes eta in {0, pi/2}.
    """
    if metric.params is None:
        raise InputFormatError(
            "the exact boundary second form needs the Berger weights of the metric field"
        )
    eta, xi2 = metric.grid.eta[:, None], metric.grid.xi2
    faces = []
    for name, c, sign in (("xi1=0", 0.0, 1.0), ("xi1=pi", np.pi, -1.0)):
        faces.append(FaceSecondForm(name, *_level_second_form(metric.params, eta, xi2, c, sign)))
    return BoundaryReport(faces=tuple(faces))
