"""Curvature of left invariant metrics on SU(2).

A left invariant metric is a symmetric positive definite 3x3 matrix G
expressed in a fixed basis X1, X2, X3 of su(2).  Everything downstream
(Levi-Civita connection, Riemann tensor, Ricci, scalar curvature) is
finite dimensional linear algebra driven by the structure constants
[X_i, X_j] = c^k_{ij} X_k, which are computed from actual matrix
commutators rather than hard coded.

The Berger family is G = diag(1, s, t) with 1 <= s <= t.  Its scalar
and Ricci curvature admit closed forms, provided here as independent
oracles for the engine; the engine itself never consults them.

Sign conventions: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z and Ric(Y,Z) = trace(X -> R(X,Y)Z), so the round
3-sphere has scalar curvature +6.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, InvalidMetricError

__all__ = [
    "LieAlgebraFrame",
    "FrameMetric",
    "BergerParams",
    "CurvatureReport",
    "su2_structure_constants",
    "frame_from_matrices",
    "levi_civita",
    "curvature_report",
    "berger_scalar_closed",
    "berger_ricci_closed",
    "einstein_locus_check",
]

# Basis of su(2): X1 = [[i,0],[0,-i]], X2 = [[0,1],[-1,0]], X3 = [[0,i],[i,0]].
# They satisfy [X1,X2] = 2 X3 cyclically; the factor 2 falls out of the
# commutators computed below, it is never assumed.
_X1 = np.array([[1j, 0.0], [0.0, -1j]])
_X2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_X3 = np.array([[0.0, 1j], [1j, 0.0]])

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraFrame:
    """A 3-dimensional Lie algebra presented by structure constants.

    c[k, i, j] is the X_k coefficient of [X_i, X_j].  `matrices` holds
    the concrete 2x2 basis when the frame came from one (it is None
    for frames loaded from bare structure constants).  Both arrays are
    private read-only copies, so a frame shared between callers (the
    cached su(2) frame) cannot be altered through them.
    """

    c: np.ndarray
    matrices: np.ndarray | None = None

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise InputFormatError(f"structure constants must be (3, 3, 3), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InputFormatError("structure constants have non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if self.matrices is not None:
            mats = np.array(self.matrices, dtype=complex)
            mats.setflags(write=False)
            object.__setattr__(self, "matrices", mats)
        anti = np.abs(c + np.swapaxes(c, 1, 2)).max()
        if anti > _IDENTITY_TOL:
            raise InputFormatError(
                f"structure constants not antisymmetric (residual {anti:.3e})"
            )
        # Jacobi: cyclic sum of [[X_i, X_j], X_k] vanishes.
        t1 = np.einsum("mij,lmk->lijk", c, c)
        t2 = np.einsum("mjk,lmi->lijk", c, c)
        t3 = np.einsum("mki,lmj->lijk", c, c)
        jac = np.abs(t1 + t2 + t3).max()
        if jac > _IDENTITY_TOL:
            raise InputFormatError(
                f"structure constants violate the Jacobi identity (residual {jac:.3e})"
            )

    def bracket_residual(self) -> float:
        """Max norm of [X_i, X_j] - c^k_{ij} X_k over all pairs (requires
        concrete matrices)."""
        if self.matrices is None:
            raise InputFormatError("frame has no matrix realization to check against")
        worst = 0.0
        for i in range(3):
            for j in range(3):
                comm = self.matrices[i] @ self.matrices[j] - self.matrices[j] @ self.matrices[i]
                recon = np.einsum("k,kab->ab", self.c[:, i, j], self.matrices)
                worst = max(worst, float(np.abs(comm - recon).max()))
        return worst


def frame_from_matrices(mats) -> LieAlgebraFrame:
    """Build a frame from three 2x2 complex matrices.

    The bracket [X_i, X_j] is expanded over the basis using the real
    Frobenius pairing <A, B> = Re tr(A B^H); the basis must be
    orthogonal under it (true for anti-Hermitian su(2) bases).  The
    expansion is verified to reproduce the commutators to 1e-12.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape != (3, 2, 2):
        raise InputFormatError(f"expected three 2x2 matrices, got shape {mats.shape}")
    norms2 = np.real(np.einsum("kab,kab->k", mats, mats.conj()))
    if norms2.min() <= 0.0:
        raise InputFormatError("degenerate basis matrix")
    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            for k in range(3):
                c[k, i, j] = np.real(np.trace(comm @ mats[k].conj().T)) / norms2[k]
    frame = LieAlgebraFrame(c=c, matrices=mats)
    resid = frame.bracket_residual()
    if resid > _IDENTITY_TOL:
        raise InputFormatError(
            f"bracket expansion residual {resid:.3e}: basis is not closed "
            "under commutators or not Frobenius-orthogonal"
        )
    return frame


@functools.cache
def su2_structure_constants() -> LieAlgebraFrame:
    """The su(2) frame, with structure constants computed from the 2x2
    matrix commutators (the cyclic factor-2 table is an output here,
    never an input).  Built on the first call and shared by every later
    one; the frame is immutable."""
    return frame_from_matrices(np.stack([_X1, _X2, _X3]))


@dataclass(frozen=True)
class FrameMetric:
    """A left invariant metric: symmetric positive definite 3x3 matrix
    of inner products g(X_i, X_j) in the frame."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidMetricError(f"frame metric must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidMetricError("frame metric has non-finite entries")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise InvalidMetricError("frame metric must be symmetric")
        m = 0.5 * (m + m.T)
        if np.linalg.eigvalsh(m).min() <= 0.0:
            raise InvalidMetricError("frame metric must be positive definite")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def round(cls) -> "FrameMetric":
        """The round metric of the unit 3-sphere (identity in this frame)."""
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


def _curvature(c: np.ndarray, G: np.ndarray):
    """Curvature of stacked left invariant metrics G (N, 3, 3), all in
    the frame with structure constants c.

    Returns (gamma, riemann, ricci, scalar, ricci_eigenvalues,
    einstein_deviation) with a leading axis of length N, each entry as
    described on `CurvatureReport`.  R(X_i, X_j) X_k = nabla_i nabla_j
    X_k - nabla_j nabla_i X_k - nabla_{[X_i, X_j]} X_k; no closed form
    is assumed anywhere.
    """
    G_inv = np.linalg.inv(G)
    gamma = _connection(c, G, G_inv)
    riemann = np.einsum("nmjk,nlim->nlkij", gamma, gamma)
    riemann -= np.einsum("nmik,nljm->nlkij", gamma, gamma)
    riemann -= np.einsum("mij,nlmk->nlkij", c, gamma)
    ricci = np.einsum("nikij->njk", riemann)
    ricci = 0.5 * (ricci + np.swapaxes(ricci, 1, 2))
    scalar = np.einsum("njk,njk->n", G_inv, ricci)

    # Ricci in a G-orthonormal frame via the Cholesky factor G = L L^T.
    L = np.linalg.cholesky(G)
    ric_on = np.swapaxes(np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, ricci), 1, 2)), 1, 2)
    ric_on = 0.5 * (ric_on + np.swapaxes(ric_on, 1, 2))
    deviation = _frobenius(ric_on - (scalar / 3.0)[:, None, None] * np.eye(3))
    return gamma, riemann, ricci, scalar, np.linalg.eigvalsh(ric_on), deviation


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

    def to_dict(self) -> dict:
        return {
            "metric": self.metric.matrix.tolist(),
            "ricci": self.ricci.tolist(),
            "scalar": self.scalar,
            "ricci_eigenvalues": self.ricci_eigenvalues.tolist(),
            "einstein_deviation": self.einstein_deviation,
        }


def curvature_report(frame: LieAlgebraFrame, metric: FrameMetric) -> CurvatureReport:
    """Full curvature computation for one left invariant metric (the
    single-metric case of the stacked engine)."""
    gamma, riemann, ricci, scalar, eigs, deviation = _curvature(frame.c, metric.matrix[None])
    return CurvatureReport(
        metric=metric,
        gamma_coeffs=gamma[0],
        riemann=riemann[0],
        ricci=ricci[0],
        scalar=float(scalar[0]),
        ricci_eigenvalues=eigs[0],
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


def einstein_locus_check(p: BergerParams) -> float:
    """Einstein deviation of diag(1, s, t), computed by the engine.

    Zero (to roundoff) exactly at s = t = 1, strictly positive
    elsewhere in the normalized family; this is a computation, not an
    assumption.
    """
    return curvature_report(su2_structure_constants(), p.metric()).einstein_deviation
