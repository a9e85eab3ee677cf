"""Property tests of the axis-stencil derivatives and their callers.

Each result must equal, bit for bit, a reference written here in the
form the operators were first applied in: the difference form gathered
over the flattened `HopfGrid.diff_ops` matrices with `np.bincount`, the
three-operand `einsum` for |df|^2, the full Christoffel symbols for the
face second form and the nine-derivative divergence.  The axis tables
and the diff_ops matrices share one source, so both are first checked
against a copy of the COO matrix construction they replaced.  Both
sides run in one process, so the checks hold with any libm.

The probe is the exception: it evaluates its trials as a quadratic form
on their 7-field span, which sums in another order than the per-trial
quotient of trials built on full meshes, so the two agree to 1e-12
relative, not bitwise.  Example counts are bounded and the search is
derandomized."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    HopfGrid,
    MetricField,
    QuotientInput,
    boundary_second_form,
    chart_metric,
    grad_sq,
    laplace_beltrami,
    partial_derivatives,
    rayleigh_quotient,
    yamabe_property_probe,
)
from relyamabe.conformal_energy import CONFORMAL_COEFF
from relyamabe.su2_chart import _axis_stencil
from relyamabe.yamabe_estimator import _probe_coefficients, _probe_span, _span_form

SETTINGS = dict(deadline=None, derandomize=True, database=None)

SHAPE = st.tuples(*(st.integers(4, 10),) * 3)
SEED = st.integers(0, 2**32 - 1)
WIDTH = st.sampled_from([3, 5])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes and bytes: equal values, and signed zeros alike."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def coo_d1_matrix(n: int, h: float, periodic: bool, width: int) -> sps.csr_matrix:
    """First-derivative matrix on n points, assembled row by row as COO
    triples and converted to CSR: the construction the axis tables
    replaced."""
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
        wts -= wts.mean()
        rows.extend([i] * width)
        cols.extend(idx.tolist())
        vals.extend(wts.tolist())
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, n))


def kron_operators(shape, width):
    """The grid operators as Kronecker products of the COO matrices."""
    de, d1, d2 = HopfGrid(*shape).spacings
    i1, i2, i3 = (sps.identity(n) for n in shape)
    return (
        sps.kron(sps.kron(coo_d1_matrix(shape[0], de, False, width), i2), i3).tocsr(),
        sps.kron(sps.kron(i1, coo_d1_matrix(shape[1], d1, False, width)), i3).tocsr(),
        sps.kron(sps.kron(i1, i2), coo_d1_matrix(shape[2], d2, True, width)).tocsr(),
    )


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("periodic", [False, True])
def test_axis_tables_equal_coo_matrix_rows(periodic, width):
    # every spacing a grid axis of n cells can have
    for n in range(4, 41):
        for h in ((np.pi / 2) / n, np.pi / n, (2 * np.pi) / n):
            d = coo_d1_matrix(n, h, periodic, width)
            k = d.indptr[1]
            wts, idx = _axis_stencil(n, h, periodic, width)
            assert same_bits(wts, d.data.reshape(n, k).T)
            assert same_bits(idx, d.indices.reshape(n, k).T)
            assert not wts.flags.writeable and not idx.flags.writeable


@settings(max_examples=30, **SETTINGS)
@given(st.tuples(*(st.integers(4, 24),) * 3), WIDTH)
def test_diff_ops_equal_kron_of_coo_matrices(shape, width):
    for got, want in zip(HopfGrid(*shape).diff_ops(width), kron_operators(shape, width)):
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, name), getattr(want, name))


def gathered_derivatives(f: np.ndarray, grid: HopfGrid, width: int) -> np.ndarray:
    """out_i = sum_j w_ij (f_j - f_i) over the stored entries of each
    diff_ops matrix, accumulated per row by np.bincount."""
    flat = f.reshape(-1)
    out = []
    for op in grid.diff_ops(width):
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        contrib = op.data * (flat[op.indices] - flat[rows])
        out.append(np.bincount(rows, weights=contrib, minlength=op.shape[0]).reshape(grid.shape))
    return np.stack(out, axis=-1)


def metric_field(grid: HopfGrid, seed: int, berger: bool) -> MetricField:
    """A Berger chart metric, or a random positive definite field."""
    rng = np.random.default_rng(seed)
    if berger:
        s = rng.uniform(1.0, 3.0)
        return chart_metric(grid, BergerParams(s, s + rng.uniform(0.0, 3.0)))
    a = rng.standard_normal(grid.shape + (3, 3))
    return MetricField(grid=grid, g=a @ np.swapaxes(a, -1, -2) + np.eye(3))


@settings(max_examples=40, **SETTINGS)
@given(SHAPE, SEED, WIDTH)
def test_axis_kernel_equals_gathered_difference_form(shape, seed, width):
    grid = HopfGrid(*shape)
    f = np.random.default_rng(seed).standard_normal(shape)
    assert same_bits(partial_derivatives(f, grid, width), gathered_derivatives(f, grid, width))


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, st.floats(-1e6, 1e6, allow_subnormal=False), WIDTH)
def test_constants_have_exact_zero_derivatives(shape, c, width):
    grid = HopfGrid(*shape)
    d = partial_derivatives(np.full(shape, c), grid, width)
    # every axis, the periodic xi2 wrap included, and no -0.0
    assert same_bits(d, np.zeros(shape + (3,)))


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_grad_sq_equals_einsum(shape, seed, berger):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, seed, berger)
    for f in (np.random.default_rng(seed + 1).standard_normal(shape), np.full(shape, 2.0)):
        df = partial_derivatives(f, grid)
        want = np.maximum(np.einsum("...ij,...i,...j->...", metric.inv, df, df), 0.0)
        assert same_bits(grad_sq(f, metric), want)


def full_gamma_second_form(metric: MetricField):
    """Per face (mean curvature, |II|) on every cell layer, from all 27
    Christoffel symbols on the whole grid."""
    grid = metric.grid
    dg = np.empty(grid.shape + (3, 3, 3))
    for a in range(3):
        for b in range(3):
            dg[..., :, a, b] = partial_derivatives(metric.g[..., a, b], grid, width=5)
    gamma = 0.5 * (
        np.einsum("...im,...amb->...iab", metric.inv, dg)
        + np.einsum("...im,...bma->...iab", metric.inv, dg)
        - np.einsum("...im,...mab->...iab", metric.inv, dg)
    )
    inv_dphi = 1.0 / np.sqrt(metric.inv[..., 1, 1])
    tang = [0, 2]
    hess = -gamma[..., 1, :, :][..., tang, :][..., :, tang] * inv_dphi[..., None, None]
    ghat_inv = np.linalg.inv(metric.g[..., tang, :][..., :, tang])
    out = []
    for j, sign in ((0, 1.0), (grid.n_xi1 - 1, -1.0)):
        ii = sign * hess[:, j, :, :, :]
        ghi = ghat_inv[:, j, :, :, :]
        mean_curv = np.einsum("...ab,...ab->...", ghi, ii)
        shape_op = np.einsum("...ac,...cb->...ab", ghi, ii)
        ii_norm = np.sqrt(np.maximum(np.einsum("...ab,...ba->...", shape_op, shape_op), 0.0))
        out.append((mean_curv, ii_norm))
    return out


@settings(max_examples=20, **SETTINGS)
@given(st.tuples(st.integers(5, 10), st.integers(4, 10), st.integers(4, 10)), SEED, st.booleans())
def test_boundary_second_form_equals_full_gamma(shape, seed, berger):
    metric = metric_field(HopfGrid(*shape), seed, berger)
    rep = boundary_second_form(metric)
    eta = metric.grid.eta
    keep = (eta > rep.margin) & (eta < np.pi / 2 - rep.margin)
    for face, (mean_curv, ii_norm) in zip(rep.faces, full_gamma_second_form(metric)):
        assert same_bits(face.kept_eta, eta[keep])
        assert same_bits(face.mean_curvature, mean_curv[keep])
        assert same_bits(face.ii_norm, ii_norm[keep])
        assert face.max_abs_mean_curvature == float(np.abs(mean_curv[keep]).max())
        assert face.max_ii_norm == float(ii_norm[keep].max())
        assert face.min_ii_norm == float(ii_norm[keep].min())


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_laplace_beltrami_equals_nine_derivative_divergence(shape, seed, berger):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, seed, berger)
    f = 1.0 + 0.3 * np.random.default_rng(seed + 1).random(shape)
    df = partial_derivatives(f, grid)
    flux = metric.sqrt_det[..., None] * np.einsum("...ij,...j->...i", metric.inv, df)
    want = np.zeros(shape)
    for i in range(3):
        want += partial_derivatives(flux[..., i], grid)[..., i]
    assert same_bits(laplace_beltrami(f, metric), want / metric.sqrt_det)


def mesh_trials(grid: HopfGrid, n_trials: int, seed: int):
    """The probe family evaluated on full meshes, draw for draw."""
    e, x1, x2 = grid.meshes()
    rng = np.random.default_rng(seed)
    out = [np.ones(grid.shape)]
    for _ in range(n_trials - 1):
        a = rng.uniform(-0.25, 0.25, size=3)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        out.append(
            1.0
            + a[0] * np.cos(m * x1)
            + np.sin(x1) ** 2 * (a[1] * np.cos(2 * p * e) + a[2] * np.cos(x2 + ph))
        )
    return out


@settings(max_examples=15, **SETTINGS)
@given(SHAPE, st.integers(0, 2**31 - 1), SEED, st.booleans())
def test_probe_trials_equal_mesh_built_trials(shape, seed, field_seed, per_cell):
    # the probe evaluates its trials as a quadratic form on their span,
    # so its quotients agree with the per-trial quotient to roundoff
    grid = HopfGrid(*shape)
    metric = metric_field(grid, field_seed, field_seed % 2 == 0)
    rng = np.random.default_rng(field_seed)
    scalar = rng.uniform(0.5, 6.0, shape) if per_cell else rng.uniform(0.5, 6.0)
    qs = [rayleigh_quotient(QuotientInput(v, metric, scalar)) for v in mesh_trials(grid, 12, seed)]
    rep = yamabe_property_probe(metric, scalar, n_trials=12, seed=seed)
    assert rep.min_over_trials == pytest.approx(min(qs), rel=1e-12)
    assert rep.argmin_trial == qs.index(min(qs))


@settings(max_examples=15, **SETTINGS)
@given(SHAPE, st.integers(0, 2**31 - 1), SEED)
def test_probe_span_reproduces_each_mesh_trial(shape, seed, field_seed):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, field_seed, field_seed % 2 == 1)
    scalar = np.random.default_rng(field_seed).uniform(0.5, 6.0, shape)
    phi = _probe_span(grid)
    form = _span_form(phi, metric, scalar)
    coeffs = np.vstack([np.eye(7)[:1], _probe_coefficients(11, seed)])
    for c, u in zip(coeffs, mesh_trials(grid, 12, seed)):
        assert np.abs(np.tensordot(c, phi, 1) - u).max() <= 1e-14
        numer = np.sum(metric.weight * (CONFORMAL_COEFF * grad_sq(u, metric) + scalar * u * u))
        assert c @ form @ c == pytest.approx(numer, rel=1e-12)
