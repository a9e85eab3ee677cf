"""Curvature of left invariant metrics on SU(2).

A left invariant metric is a symmetric positive definite 3x3 matrix G
expressed in a fixed frame X1, X2, X3 of su(2).  The frame is realized
once, as the invariant vector fields V1, V2, V3 on S^3 in R^4 = C^2,
each a linear map `_FRAME_MAPS[k]`; the hemisphere chart uses the same
maps.  Everything downstream (Levi-Civita connection, Riemann tensor,
Ricci, scalar curvature) is finite dimensional linear algebra driven by
the structure constants [X_i, X_j] = c^k_{ij} X_k, which are computed
from the brackets of those fields rather than hard coded.

The stacked kernels work on N metrics at once.  `_ricci` contracts the
Ricci tensor straight from the connection, forming only the diagonal
of the Riemann tensor that the trace reads; the sweep, the root
searches, the path check and the CLI comparison need nothing more.
The whole Riemann tensor and the Ricci eigenvalues are formed only by
`curvature_report`, whose fields they are; it traces its Ricci tensor
from its own Riemann tensor, and `_ricci`, whose diagonal sums its
terms in the same order, has the same bits.  Both end in one tail,
`_contract`: symmetrize the trace, contract the scalar curvature,
guard.  The Einstein deviation (the trace-free part of the Ricci
tensor in a G-orthonormal frame) has one step, `_einstein_deviation`,
which forms and guards it for `curvature_report` and the Berger
classification alike.

The Berger family is G = diag(1, s, t) with 1 <= s <= t.  Its scalar
and Ricci curvature admit closed forms, provided here as independent
oracles for the engine; the engine itself never consults them.

Sign conventions: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z and Ric(Y,Z) = trace(X -> R(X,Y)Z), so the round
3-sphere has scalar curvature +6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, InvalidMetricError, NumericalFailureError

__all__ = [
    "LieAlgebraFrame",
    "FrameMetric",
    "BergerParams",
    "CurvatureReport",
    "su2_structure_constants",
    "levi_civita",
    "curvature_report",
    "berger_scalar_closed",
    "berger_ricci_closed",
]

# The su(2) frame as linear fields on R^4: the invariant field V_k at
# x = (Re z, Im z, Re w, Im w) is _FRAME_MAPS[k] @ x.
_FRAME_MAPS = np.array([
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],  # V1 x = (-x2, x1, -x4, x3)
    [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],  # V2 x = (x3, -x4, -x1, x2)
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],  # V3 x = (-x4, -x3, x2, x1)
], dtype=float)
_FRAME_MAPS.setflags(write=False)

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraFrame:
    """A 3-dimensional Lie algebra presented by its structure constants:
    c[k, i, j] is the X_k coefficient of [X_i, X_j].  The array is a
    private read-only copy, so a frame shared between callers (the
    cached su(2) frame) cannot be altered through it.  The constants must
    be finite, and antisymmetric and satisfy the Jacobi identity to
    1e-12 once divided by their largest magnitude (at any scale).
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise InputFormatError(f"structure constants must be (3, 3, 3), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InputFormatError("structure constants have non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        # both identities are checked on c / max|c|, so no product
        # overflows and the tolerance is relative at every scale; a
        # residual that is not <= the tolerance (NaN included) fails
        u = c / (np.abs(c).max() or 1.0)
        anti = np.abs(u + np.swapaxes(u, 1, 2)).max()
        if not anti <= _IDENTITY_TOL:
            raise InputFormatError(
                f"structure constants not antisymmetric (residual {anti:.3e})"
            )
        # Jacobi: cyclic sum of [[X_i, X_j], X_k] vanishes.
        t1 = np.einsum("mij,lmk->lijk", u, u)
        t2 = np.einsum("mjk,lmi->lijk", u, u)
        t3 = np.einsum("mki,lmj->lijk", u, u)
        jac = np.abs(t1 + t2 + t3).max()
        if not jac <= _IDENTITY_TOL:
            raise InputFormatError(
                f"structure constants violate the Jacobi identity (residual {jac:.3e})"
            )


@functools.cache
def su2_structure_constants() -> LieAlgebraFrame:
    """The su(2) frame, with structure constants computed from the
    brackets of the frame fields (the cyclic factor-2 table is an output
    here, never an input).  For the linear fields V_i x = M_i x the
    bracket is [V_i, V_j] x = (M_j M_i - M_i M_j) x; it is expanded over
    the maps with the pairing <A, B> = tr(A B^T), under which they are
    orthogonal, and the expansion is checked to reproduce every bracket
    to 1e-12.  Built on the first call and shared by every later one;
    the frame is immutable."""
    m = _FRAME_MAPS
    brackets = np.einsum("jab,ibc->ijac", m, m) - np.einsum("iab,jbc->ijac", m, m)
    c = np.einsum("ijab,kab->kij", brackets, m) / np.einsum("kab,kab->k", m, m)[:, None, None]
    resid = np.abs(brackets - np.einsum("kij,kab->ijab", c, m)).max()
    if resid > _IDENTITY_TOL:
        raise InputFormatError(
            f"bracket expansion residual {resid:.3e}: the frame maps are not "
            "closed under brackets or not orthogonal"
        )
    return LieAlgebraFrame(c)


@dataclass(frozen=True)
class FrameMetric:
    """A left invariant metric: symmetric positive definite 3x3 matrix
    of inner products g(X_i, X_j) in the frame.  The matrix must be
    symmetric to 1e-12 relative to its largest entry (at any scale) and
    is stored symmetrized, as a read-only array of its own, so a metric
    shared between callers (the round metric) cannot be altered through
    it."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidMetricError(f"frame metric must be 3x3, got {m.shape}")
        # the nine entries are checked as Python floats, which costs less
        # than a numpy call each; the stored matrix and its positivity
        # test stay in numpy
        entries = m.tolist()
        flat = entries[0] + entries[1] + entries[2]
        if not all(map(math.isfinite, flat)):
            raise InvalidMetricError("frame metric has non-finite entries")
        # halved first: the sum or difference of two entries near 1e308 overflows
        _, m01, m02, m10, _, m12, m20, m21, _ = flat
        asymmetry = max(abs(0.5 * m01 - 0.5 * m10), abs(0.5 * m02 - 0.5 * m20),
                        abs(0.5 * m12 - 0.5 * m21))
        if asymmetry > 1e-12 * (0.5 * max(map(abs, flat))):
            raise InvalidMetricError("frame metric must be symmetric")
        h = 0.5 * m
        m = h + h.T
        if np.linalg.eigvalsh(m).min() <= 0.0:
            raise InvalidMetricError("frame metric must be positive definite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    @functools.cache
    def round(cls) -> "FrameMetric":
        """The round metric of the unit 3-sphere (identity in this frame).
        Built on the first call and shared by every later one; the metric
        is immutable."""
        return cls(np.eye(3))

    @classmethod
    def berger(cls, s: float, t: float) -> "FrameMetric":
        return cls(np.diag([1.0, float(s), float(t)]))


@dataclass(frozen=True)
class BergerParams:
    """Normalized Berger weights (1, s, t) with 1 <= s <= t."""

    s: float
    t: float

    def __post_init__(self):
        s, t = float(self.s), float(self.t)
        if not (np.isfinite(s) and np.isfinite(t)) or not (1.0 <= s <= t):
            raise InvalidMetricError(
                f"Berger parameters must satisfy 1 <= s <= t, got s={self.s}, t={self.t}"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    def metric(self) -> FrameMetric:
        return FrameMetric.berger(self.s, self.t)


def _connection(c: np.ndarray, G: np.ndarray, G_inv: np.ndarray) -> np.ndarray:
    """Connection coefficients of stacked metrics G (N, 3, 3) with
    inverses G_inv, shape (N, 3, 3, 3); see `levi_civita`."""
    c_low = np.einsum("mij,nmk->nijk", c, G)
    # indices: c_low[n, i, j, k] = <[X_i, X_j], X_k>, so the Koszul cyclic
    # terms are -c_low[n, j, k, i] and +c_low[n, k, i, j]
    gamma_low = 0.5 * (
        c_low - np.transpose(c_low, (0, 3, 1, 2)) + np.transpose(c_low, (0, 2, 3, 1))
    )
    return np.einsum("nijk,nkl->nlij", gamma_low, G_inv)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of stacked 3x3 matrices, summed in the same order
    as np.linalg.norm of a single matrix."""
    flat = np.ascontiguousarray(x).reshape(len(x), 1, 9)
    return np.sqrt((flat @ np.swapaxes(flat, 1, 2))[:, 0, 0])


@np.errstate(over="ignore", invalid="ignore")
def _ricci(c: np.ndarray, G: np.ndarray):
    """Connection, Ricci tensor and scalar curvature of stacked left
    invariant metrics G (N, 3, 3), all in the frame with structure
    constants c; shapes (N, 3, 3, 3), (N, 3, 3) and (N,).

    Ric(X_j, X_k) is the trace over i of R(X_i, X_j) X_k along X_i, with
    R(X_i, X_j) X_k = nabla_i nabla_j X_k - nabla_j nabla_i X_k
    - nabla_{[X_i, X_j]} X_k.  Only that diagonal of the Riemann tensor
    is formed, term by term in the order `curvature_report` forms the
    whole tensor before tracing it, so the Ricci tensor and the scalar
    curvature have the bits of the report's at 1/9 of its products.  No
    closed form is assumed anywhere.  A metric whose Ricci tensor
    overflows raises NumericalFailureError naming it: its scalar
    curvature, which contracts every entry (0 * inf is nan), is then not
    finite either.
    """
    G_inv = np.linalg.inv(G)
    gamma = _connection(c, G, G_inv)
    # r[n, i, k, j] = riemann[n, i, k, i, j]; d[n, i, m] = gamma[n, i, i, m]
    r = np.einsum("nmjk,nim->nikj", gamma, np.einsum("niim->nim", gamma))
    r -= np.einsum("nmik,nijm->nikj", gamma, gamma)
    r -= np.einsum("mij,nimk->nikj", c, gamma)
    ricci, scalar = _contract(G, G_inv, np.einsum("nikj->njk", r))
    return gamma, ricci, scalar


def _contract(G: np.ndarray, G_inv: np.ndarray, ricci: np.ndarray, *guarded: np.ndarray):
    """The tail shared by `_ricci` and `curvature_report`: the traced
    Ricci tensors `ricci` (N, 3, 3) of stacked metrics G with inverses
    G_inv, symmetrized, and their scalar curvatures (N,).  The scalars
    and the further curvature data in `guarded` must be finite."""
    ricci = 0.5 * (ricci + np.swapaxes(ricci, 1, 2))
    scalar = np.einsum("njk,njk->n", G_inv, ricci)
    _require_finite(G, scalar, *guarded)
    return ricci, scalar


def _require_finite(G: np.ndarray, *arrays: np.ndarray) -> None:
    """Raise NumericalFailureError naming the first of the stacked
    metrics G (N, 3, 3) whose curvature data in `arrays` (each of
    leading length N) are not all finite: floating-point overflow."""
    if all(np.count_nonzero(np.isfinite(a)) == a.size for a in arrays):
        return
    finite = np.logical_and.reduce(
        [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in arrays]
    )
    m = G[np.argmin(finite)]
    diagonal = np.array_equal(m, np.diag(np.diag(m)))
    name = f"diag{tuple(np.diag(m).tolist())}" if diagonal else str(m.tolist())
    raise NumericalFailureError(f"curvature data of the metric {name} overflow to non-finite values")


def _orthonormal(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked symmetric tensors x (N, 3, 3) in G-orthonormal frames:
    L^-1 x L^-T with the Cholesky factor G = L L^T, symmetrized.  G is
    one 3x3 metric, or a stack (N, 3, 3) of them, one per tensor; one
    metric's factor solves for every tensor at once, its 3N right-hand
    sides side by side as one 3 x 3N matrix."""
    L = np.linalg.cholesky(G)
    if G.ndim == 2:
        n = len(x)
        y = np.linalg.solve(L, x.transpose(1, 0, 2).reshape(3, 3 * n))  # [L^-1 x_k]_k
        y = y.reshape(3, n, 3).transpose(2, 1, 0).reshape(3, 3 * n)  # [(L^-1 x_k)^T]_k
        x_on = np.linalg.solve(L, y).reshape(3, n, 3).transpose(1, 2, 0)
    else:
        x_on = np.swapaxes(np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, x), 1, 2)), 1, 2)
    return 0.5 * (x_on + np.swapaxes(x_on, 1, 2))


@np.errstate(over="ignore", invalid="ignore")
def _einstein_deviation(G: np.ndarray, ricci: np.ndarray, scalar: np.ndarray):
    """The Ricci tensors `ricci` of stacked metrics G (N, 3, 3) in
    G-orthonormal frames, and the Frobenius norms of their trace-free
    parts given the scalar curvatures `scalar`: shapes (N, 3, 3) and
    (N,).  A metric for which either overflows raises
    NumericalFailureError naming it: the deviation sums the squares of
    every entry, so it is finite only where the tensor is."""
    ric_on = _orthonormal(G, ricci)
    deviation = _frobenius(ric_on - (scalar / 3.0)[:, None, None] * np.eye(3))
    _require_finite(G, deviation)
    return ric_on, deviation


def levi_civita(frame: LieAlgebraFrame, metric: FrameMetric) -> np.ndarray:
    """Connection coefficients gamma[k, i, j] with
    nabla_{X_i} X_j = gamma[k, i, j] X_k.

    For left invariant fields all derivatives of inner products vanish
    and the Koszul formula reduces to
    Gamma_{ij,k} = (c_{ijk} - c_{jki} + c_{kij}) / 2 with
    c_{ijk} = c^m_{ij} G_{mk}, raised by G^{-1}.
    """
    G = metric.matrix[None]
    return _connection(frame.c, G, np.linalg.inv(G))[0]


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data of a left invariant metric.

    gamma_coeffs[k, i, j] are the connection coefficients,
    riemann[l, k, i, j] is R(X_i, X_j) X_k expanded along X_l, ricci is
    the Ricci tensor in the frame, ricci_eigenvalues its eigenvalues in
    a G-orthonormal frame, and einstein_deviation the Frobenius norm of
    the trace-free part of the orthonormal-frame Ricci tensor (zero
    exactly when Ric is proportional to G).
    """

    metric: FrameMetric
    gamma_coeffs: np.ndarray = field(repr=False)
    riemann: np.ndarray = field(repr=False)
    ricci: np.ndarray
    scalar: float
    ricci_eigenvalues: np.ndarray
    einstein_deviation: float


@np.errstate(over="ignore", invalid="ignore")
def curvature_report(frame: LieAlgebraFrame, metric: FrameMetric) -> CurvatureReport:
    """Full curvature computation for one left invariant metric: the
    single-metric case of the stacked kernels, and the one place the
    whole Riemann tensor is formed.  The Ricci tensor is its trace, with
    the bits of `_ricci`'s.  Curvature data that overflow raise
    NumericalFailureError."""
    c, G = frame.c, metric.matrix[None]
    G_inv = np.linalg.inv(G)
    gamma = _connection(c, G, G_inv)
    riemann = np.einsum("nmjk,nlim->nlkij", gamma, gamma)
    riemann -= np.einsum("nmik,nljm->nlkij", gamma, gamma)
    riemann -= np.einsum("mij,nlmk->nlkij", c, gamma)
    ricci, scalar = _contract(G, G_inv, np.einsum("nikij->njk", riemann), riemann)
    ric_on, deviation = _einstein_deviation(G, ricci, scalar)
    return CurvatureReport(
        metric=metric,
        gamma_coeffs=gamma[0],
        riemann=riemann[0],
        ricci=ricci[0],
        scalar=float(scalar[0]),
        ricci_eigenvalues=np.linalg.eigvalsh(ric_on)[0],
        einstein_deviation=float(deviation[0]),
    )


# === closed forms for the Berger family =================================


def berger_scalar_closed(p: BergerParams) -> float:
    """Scalar curvature of diag(1, s, t): (2/st)(2(s+t+st) - (1+s^2+t^2))."""
    s, t = p.s, p.t
    return 2.0 / (s * t) * (2.0 * (s + t + s * t) - (1.0 + s * s + t * t))


def berger_ricci_closed(p: BergerParams) -> np.ndarray:
    """Ricci eigenvalues of diag(1, s, t) in the orthonormal frame
    {X1, X2/sqrt(s), X3/sqrt(t)}, in that direction order."""
    s, t = p.s, p.t
    st = s * t
    return np.array(
        [
            -(1.0 / st) * (-2.0 + 2.0 * t * t + 2.0 * s * s - 4.0 * st),
            -(1.0 / st) * (2.0 + 2.0 * t * t - 2.0 * s * s - 4.0 * t),
            -(1.0 / st) * (2.0 - 2.0 * t * t + 2.0 * s * s - 4.0 * s),
        ]
    )
