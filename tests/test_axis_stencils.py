"""Property tests of the axis-stencil derivatives and their callers.

Each result must equal, bit for bit, a reference written here in the
form the operators were first applied in: the difference form gathered
over the flattened `HopfGrid.diff_ops` matrices with `np.bincount`, and
the contraction g^{ij} d_j f formed by `einsum` (`einsum_flux`) for
|df|^2, the Neumann residual and the nine-derivative divergence.  Every
library operator contracts through `su2_chart._flux`, counted here.
`grad_sq`, `rayleigh_quotient`, `laplace_beltrami` and
`neumann_residual` are also compared with copies of themselves written
on the gathering kernel, on fields with signed zeros, subnormal cells
or an infinite cell, and must fail alike in class and message.
The `einsum` references take contiguous cells-major operands, the
layout the library used when they were written: on a strided view
`einsum` may sum its terms in another order.
The axis tables, the stiffness operator's dense axis matrices and the
diff_ops matrices share one source, so all three are first checked bit
for bit against an exact reference: COO matrices whose weights solve
each window's moment system by Gauss-Jordan elimination in `Fraction`,
divided by the spacing and rounded once.  The library's closed-form
rational weights (`_slopes`) are checked against the same moment system
exactly.  Both sides use exact rationals and one correctly rounded
division per weight, so these checks hold on every platform.

Three checks are not bitwise.  The probe evaluates its trials as a
quadratic form on their 7-field span, which sums in another order than
the per-trial quotient of trials built on full meshes, so the two agree
to 1e-12 relative.  The matrix-free stiffness product sums in another
order than the assembled nine-block matrix, so the two agree to 1e-12
of |A| |f|; the product is still exactly zero on constants.  The face
second form from all Christoffel symbols of the grid must converge, on
the cells next to the faces, to the exact form on the same cell layers.
Example counts are bounded and the search is derandomized."""

import functools
from fractions import Fraction

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
    chart_metric,
    neumann_residual,
    rayleigh_quotient,
    yamabe_property_probe,
)
from relyamabe import DegenerateTrialError, InputFormatError, conformal_energy, su2_chart
from relyamabe.conformal_energy import CONFORMAL_COEFF, _critical_sum, laplace_beltrami
from relyamabe.su2_chart import (
    _axis_derivative,
    _axis_stencil,
    _finite,
    _level_second_form,
    _slopes,
    grad_sq,
    integrate,
    partial_derivatives,
)
from relyamabe.yamabe_estimator import (
    _probe_coefficients,
    _probe_span,
    _QuotientWork,
    _span_form,
    _stiffness,
)

SETTINGS = dict(deadline=None, derandomize=True, database=None)

SHAPE = st.tuples(*(st.integers(4, 10),) * 3)
SEED = st.integers(0, 2**32 - 1)
WIDTH = st.sampled_from([3, 5])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes and bytes: equal values, and signed zeros alike."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@functools.cache
def exact_slopes(offs: tuple[int, ...]) -> list[Fraction]:
    """First-derivative weights at 0 of the integer window `offs`: the
    solution of the moment system sum_j w_j o_j^p = [p == 1], p < k, by
    Gauss-Jordan elimination in exact rationals."""
    k = len(offs)
    rows = [[Fraction(o) ** p for o in offs] + [Fraction(int(p == 1))] for p in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[k] for row in rows]


def coo_d1_matrix(n: int, h: float, periodic: bool, width: int) -> sps.csr_matrix:
    """First-derivative matrix on n points, assembled row by row as COO
    triples and converted to CSR, each weight the exact moment-system
    solution of its window divided by h and rounded once."""
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
        rows.extend([i] * width)
        cols.extend(idx.tolist())
        vals.extend(float(w / Fraction(h)) for w in exact_slopes(tuple(offs.tolist())))
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, n))


def kron_operators(shape, width, drop_zeros=True):
    """The grid operators as Kronecker products of the COO matrices,
    with their stored zeros dropped unless drop_zeros is False."""
    de, d1, d2 = HopfGrid(*shape).spacings
    i1, i2, i3 = (sps.identity(n) for n in shape)
    ops = (
        sps.kron(sps.kron(coo_d1_matrix(shape[0], de, False, width), i2), i3).tocsr(),
        sps.kron(sps.kron(i1, coo_d1_matrix(shape[1], d1, False, width)), i3).tocsr(),
        sps.kron(sps.kron(i1, i2), coo_d1_matrix(shape[2], d2, True, width)).tocsr(),
    )
    if drop_zeros:
        for op in ops:
            op.eliminate_zeros()
    return ops


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("periodic", [False, True])
def test_axis_tables_equal_coo_matrix_rows(periodic, width):
    # every spacing a grid axis of n cells can have
    for n in range(4, 49):
        for h in ((np.pi / 2) / n, np.pi / n, (2 * np.pi) / n):
            d = coo_d1_matrix(n, h, periodic, width)
            k = d.indptr[1]
            wts, idx = _axis_stencil(n, h, periodic, width)
            # row 0 is each point's own entry, the others in offset order
            assert np.array_equal(idx[0], np.arange(n))
            offs = (idx[1:] - idx[0] + k // 2) % n - k // 2 if periodic else idx[1:] - idx[0]
            assert np.all(np.diff(offs, axis=0) > 0)
            order = np.argsort(idx, axis=0)
            assert same_bits(np.take_along_axis(wts, order, 0), d.data.reshape(n, k).T)
            assert same_bits(np.take_along_axis(idx, order, 0), d.indices.reshape(n, k).T)
            assert not wts.flags.writeable and not idx.flags.writeable


@pytest.mark.parametrize("width", [3, 5])
def test_slopes_solve_the_moment_system_exactly(width):
    # every window of k <= width consecutive offsets around 0, which
    # covers the centered, shifted and short windows of the axis tables
    for k in range(3, width + 1):
        for lo in range(k):
            offs = (0,) + tuple(o for o in range(-lo, k - lo) if o)
            w = _slopes(offs)
            assert w == exact_slopes(offs)
            for p in range(k):
                assert sum(wj * Fraction(o) ** p for wj, o in zip(w, offs)) == (p == 1)


@pytest.mark.parametrize("periodic", [False, True])
def test_axis_matrix_equals_dense_coo_matrix(periodic):
    # the stiffness operator's dense transposed axis matrices: eta and
    # xi1 are the non-periodic axes, xi2 the periodic one
    for n in range(4, 41):
        grid = HopfGrid.cube(n)
        axes = _stiffness(chart_metric(grid, BergerParams(1.0, 1.0))).axes
        for axis in ((2,) if periodic else (0, 1)):
            want = coo_d1_matrix(n, grid.spacings[axis], periodic, 3).toarray().T
            assert same_bits(axes[axis], want)


@settings(max_examples=30, **SETTINGS)
@given(st.tuples(*(st.integers(4, 24),) * 3), WIDTH)
def test_diff_ops_equal_kron_of_coo_matrices(shape, width):
    for got, want in zip(HopfGrid(*shape).diff_ops(width), kron_operators(shape, width)):
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, name), getattr(want, name))


@settings(max_examples=40, **SETTINGS)
@given(st.integers(4, 40), st.sampled_from([0, 1, 2]), WIDTH)
def test_centered_windows_are_exactly_antisymmetric(n, axis, width):
    periodic = axis == 2
    wts, idx = _axis_stencil(n, HopfGrid.cube(n).spacings[axis], periodic, width)
    k = len(wts)
    half = k // 2
    centered = 0
    for i in range(n):
        # window offsets of point i, and its weights in offset order
        offs = (idx[:, i] - i + half) % n - half if periodic else idx[:, i] - i
        order = np.argsort(offs)
        offs, w = offs[order], wts[order, i]
        if not np.array_equal(offs, -offs[::-1]):
            continue
        centered += 1
        assert w[half] == 0.0 and not np.signbit(w[half])
        assert np.array_equal(w, -w[::-1])
    assert centered == (n if periodic else n - 2 * half if k % 2 else 0)


@settings(max_examples=40, **SETTINGS)
@given(st.integers(4, 40), st.sampled_from([0, 1, 2]))
def test_centered_width3_windows_share_one_weight_pair(n, axis):
    # every interior point of eta and xi1 and every point of the periodic
    # xi2 weighs its neighbours i - 1, i + 1 by the same two floats -w, +w,
    # which the derivative kernel applies as scalars
    periodic = axis == 2
    wts, idx = _axis_stencil(n, HopfGrid.cube(n).spacings[axis], periodic, 3)
    centered = np.arange(n) if periodic else np.arange(1, n - 1)
    w = wts[2, 1]
    assert w > 0.0
    assert np.array_equal(idx[1, centered], (centered - 1) % n)
    assert np.array_equal(idx[2, centered], (centered + 1) % n)
    assert same_bits(wts[1, centered], np.full(len(centered), -w))
    assert same_bits(wts[2, centered], np.full(len(centered), w))


@settings(max_examples=30, **SETTINGS)
@given(st.tuples(*(st.integers(4, 24),) * 3), WIDTH)
def test_diff_ops_store_no_zero(shape, width):
    for op in HopfGrid(*shape).diff_ops(width):
        assert op.nnz == len(op.data) and np.all(op.data != 0.0)


@settings(max_examples=20, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_matrix_free_stiffness_equals_nine_blocks_of_undropped_operators(shape, seed, berger):
    # the product applies sum_ij D_i^T diag(w g^ij) D_j without assembling
    # it; against the matrix built from operators that still store their
    # zeros it agrees to roundoff, kills constants exactly and is symmetric
    metric = metric_field(HopfGrid(*shape), seed, berger)
    ops = kron_operators(shape, 3, drop_zeros=False)
    wf = metric.weight.reshape(-1)
    want = None
    for i in range(3):
        for j in range(3):
            block = ops[i].T @ sps.diags(wf * metric.inv[i, j].reshape(-1)) @ ops[j]
            want = block if want is None else want + block
    stiffness = _stiffness(metric)
    rng = np.random.default_rng(seed + 1)
    f, g = rng.standard_normal((2, metric.grid.size))
    af, ag = stiffness @ f, stiffness @ g
    scale = abs(want) @ np.abs(f)
    assert np.abs(af - want @ f).max() <= 1e-12 * scale.max()
    assert np.all(stiffness @ np.ones(metric.grid.size) == 0.0)
    assert abs(g @ af - f @ ag) <= 1e-12 * (np.abs(g) @ scale)


def gathered_derivatives(f: np.ndarray, grid: HopfGrid) -> np.ndarray:
    """out_i = sum_j w_ij (f_j - f_i) over the stored entries of each
    width-3 diff_ops matrix, accumulated per row by np.bincount."""
    flat = f.reshape(-1)
    out = []
    for op in grid.diff_ops(3):
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        contrib = op.data * (flat[op.indices] - flat[rows])
        out.append(np.bincount(rows, weights=contrib, minlength=op.shape[0]).reshape(grid.shape))
    return np.stack(out)


def metric_field(grid: HopfGrid, seed: int, berger: bool) -> MetricField:
    """A Berger chart metric, or a random positive definite field."""
    rng = np.random.default_rng(seed)
    if berger:
        s = rng.uniform(1.0, 3.0)
        return chart_metric(grid, BergerParams(s, s + rng.uniform(0.0, 3.0)))
    a = rng.standard_normal(grid.shape + (3, 3))
    return MetricField(grid=grid, g=np.moveaxis(a @ np.swapaxes(a, -1, -2) + np.eye(3), (-2, -1), (0, 1)))


def cells_major(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of a per-cell tensor field a[i, j] as a[..., i, j]."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def stacked_derivatives(f: np.ndarray, grid: HopfGrid) -> np.ndarray:
    """The contiguous stack df[..., i] = d_i f."""
    return np.stack(list(partial_derivatives(f, grid)), axis=-1)


def einsum_flux(metric: MetricField, df: np.ndarray) -> np.ndarray:
    """The contraction g^{ij} d_j f as einsum forms it, on the cells-major
    stack df[..., j]: out[..., i]."""
    return np.einsum("...ij,...j->...i", cells_major(metric.inv), df)


def full_window_derivative(f: np.ndarray, grid: HopfGrid, axis: int) -> np.ndarray:
    """out_i = sum_j w_ij (f_j - f_i) over all k entries of each window of
    the width-3 axis tables, each point's own entry included."""
    n = grid.shape[axis]
    wts, idx = _axis_stencil(n, grid.spacings[axis], axis == 2, 3)
    bcast = [1, 1, 1]
    bcast[axis] = n
    out = np.zeros(f.shape)
    for w, j in zip(wts, idx):
        out += w.reshape(bcast) * (np.take(f, j, axis=axis) - f)
    return out


def trial_field(shape, seed: int, kind: str) -> np.ndarray:
    """A random, constant, signed-zero (+0.0 and -0.0 cells), mixed
    (signed zeros among +/-1 cells) or subnormal (signed zeros among
    +/-5e-324 cells) field.  On xi2 with at most 6 cells the weights are
    below 1/2, so a subnormal difference times a weight rounds to a
    signed zero: there two zero terms of one window can both be -0.0."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "constant":
        return np.full(shape, rng.normal())
    cells = {"signed_zero": [], "mixed": [1.0, -1.0], "subnormal": [5e-324, -5e-324]}[kind]
    return rng.choice([0.0, -0.0] + cells, size=shape)


FIELD_KIND = st.sampled_from(["random", "constant", "signed_zero", "mixed", "subnormal"])


@settings(max_examples=60, **SETTINGS)
@given(st.tuples(*(st.integers(4, 32),) * 3), SEED, FIELD_KIND)
def test_axis_derivative_skips_own_entry_bit_for_bit(shape, seed, kind):
    # the own entry's term is a signed zero on finite fields, which a sum
    # starting at +0.0 absorbs without changing a bit; on fields of
    # signed zeros the sign of every zero derivative is compared too
    grid = HopfGrid(*shape)
    rng = np.random.default_rng(seed)
    f = trial_field(shape, seed, kind)
    for axis in range(3):
        want = full_window_derivative(f, grid, axis)
        got = _axis_derivative(f, grid, axis)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert same_bits(got, want)
    # a non-finite cell still gives non-finite derivatives, where the
    # full sum has them (NaN there may read +/-inf here)
    f[tuple(rng.integers(0, shape))] = np.inf
    with np.errstate(invalid="ignore"):
        for axis in range(3):
            got = _axis_derivative(f, grid, axis)
            want = full_window_derivative(f, grid, axis)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert same_bits(got[np.isfinite(want)], want[np.isfinite(want)])


@settings(max_examples=40, **SETTINGS)
@given(SHAPE, SEED)
def test_axis_kernel_equals_gathered_difference_form(shape, seed):
    grid = HopfGrid(*shape)
    f = np.random.default_rng(seed).standard_normal(shape)
    assert same_bits(partial_derivatives(f, grid), gathered_derivatives(f, grid))


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, st.floats(-1e6, 1e6, allow_subnormal=False))
def test_constants_have_exact_zero_derivatives(shape, c):
    grid = HopfGrid(*shape)
    d = partial_derivatives(np.full(shape, c), grid)
    # every axis, the periodic xi2 wrap included, and no -0.0
    assert same_bits(d, np.zeros((3,) + shape))


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_grad_sq_equals_einsum(shape, seed, berger):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, seed, berger)
    for f in (np.random.default_rng(seed + 1).standard_normal(shape), np.full(shape, 2.0)):
        df = stacked_derivatives(f, grid)
        want = np.maximum(np.einsum("...i,...i->...", df, einsum_flux(metric, df)), 0.0)
        assert same_bits(grad_sq(f, metric), want)


def full_gamma_second_form(metric: MetricField):
    """Per face (mean curvature, |II|) on every cell layer, from all 27
    Christoffel symbols on the whole grid, with width-5 derivatives."""
    grid = metric.grid
    g, inv = cells_major(metric.g), cells_major(metric.inv)
    dg = np.empty(grid.shape + (3, 3, 3))
    for a in range(3):
        for b in range(3):
            flat = g[..., a, b].reshape(-1)
            for i, op in enumerate(grid.diff_ops(5)):
                dg[..., i, a, b] = (op @ flat).reshape(grid.shape)
    gamma = 0.5 * (
        np.einsum("...im,...amb->...iab", inv, dg)
        + np.einsum("...im,...bma->...iab", inv, dg)
        - np.einsum("...im,...mab->...iab", inv, dg)
    )
    inv_dphi = 1.0 / np.sqrt(inv[..., 1, 1])
    tang = [0, 2]
    hess = -gamma[..., 1, :, :][..., tang, :][..., :, tang] * inv_dphi[..., None, None]
    ghat_inv = np.linalg.inv(g[..., tang, :][..., :, tang])
    out = []
    for j, sign in ((0, 1.0), (grid.n_xi1 - 1, -1.0)):
        ii = sign * hess[:, j, :, :, :]
        ghi = ghat_inv[:, j, :, :, :]
        mean_curv = np.einsum("...ab,...ab->...", ghi, ii)
        shape_op = np.einsum("...ac,...cb->...ab", ghi, ii)
        ii_norm = np.sqrt(np.maximum(np.einsum("...ab,...ba->...", shape_op, shape_op), 0.0))
        out.append((mean_curv, ii_norm))
    return out


@pytest.mark.parametrize("s, t", [(1.0, 3.0), (2.0, 4.0), (1.7, 4.6)])
def test_full_gamma_converges_to_exact_form(s, t):
    # per cell on the layers next to the faces, xi1 = h/2 and pi - h/2,
    # outside a collar of width max(2 d_eta, 0.15) next to the axes,
    # where the stencils lose accuracy; measured 11-15x per doubling
    params = BergerParams(s, t)
    errors = []
    for n in (8, 16, 32):
        metric = chart_metric(HopfGrid.cube(n), params)
        grid = metric.grid
        margin = max(2.0 * grid.spacings[0], 0.15)
        keep = (grid.eta > margin) & (grid.eta < np.pi / 2 - margin)
        err = 0.0
        faces = full_gamma_second_form(metric)
        for (mean_curv, ii_norm), c, sign in zip(faces, grid.xi1[[0, -1]], (1.0, -1.0)):
            exact = _level_second_form(params, grid.eta[keep][:, None], grid.xi2, c, sign)
            for got, want in zip((mean_curv[keep], ii_norm[keep]), exact):
                err = max(err, float(np.abs(got - want).max()))
        errors.append(err)
    assert errors[0] >= 8.0 * errors[1] and errors[1] >= 8.0 * errors[2]


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_laplace_beltrami_equals_nine_derivative_divergence(shape, seed, berger):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, seed, berger)
    f = 1.0 + 0.3 * np.random.default_rng(seed + 1).random(shape)
    df = stacked_derivatives(f, grid)
    flux = metric.sqrt_det[..., None] * einsum_flux(metric, df)
    want = np.zeros(shape)
    for i in range(3):
        want += partial_derivatives(flux[..., i], grid)[i]
    assert same_bits(laplace_beltrami(f, metric), want / metric.sqrt_det)


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED, st.booleans())
def test_neumann_residual_equals_einsum_form(shape, seed, berger):
    grid = HopfGrid(*shape)
    metric = metric_field(grid, seed, berger)
    u = 1.0 + 0.3 * np.random.default_rng(seed + 1).random(shape)
    flux = einsum_flux(metric, stacked_derivatives(u, grid))[..., 1] / np.sqrt(metric.inv[1, 1])
    want = max(float(np.abs(flux[:, j, :]).max()) for j in (0, grid.n_xi1 - 1))
    assert same_bits(np.float64(neumann_residual(u, metric)), np.float64(want))


def test_every_operator_contracts_through_one_flux(monkeypatch):
    # grad_sq, laplace_beltrami, neumann_residual and the stiffness
    # product form g^{ij} d_j f only through su2_chart._flux, row by row
    # (into an output buffer where they pass one)
    flux, rows = su2_chart._flux, []

    def counting_flux(c, df, i, out=None):
        rows.append(i)
        return flux(c, df, i, out)

    monkeypatch.setattr(su2_chart, "_flux", counting_flux)
    monkeypatch.setattr(conformal_energy, "_flux", counting_flux)
    metric = metric_field(HopfGrid(5, 6, 7), 0, True)
    f = 1.0 + 0.3 * np.random.default_rng(1).random(metric.grid.shape)
    calls = []
    for op in (grad_sq, laplace_beltrami, neumann_residual, lambda f, m: _stiffness(m) @ f.ravel()):
        rows.clear()
        op(f, metric)
        calls.append(list(rows))
    assert calls == [[0, 1, 2], [0, 1, 2], [1], [0, 1, 2]]


# --- the callers against copies of their gathering formulation ----------
# Each reference below is the operator as it was written on the gathering
# kernel: every neighbour taken with np.take over the whole field, every
# term a fresh array, the constant scalar curvature broadcast before its
# finiteness check, and the Neumann residual differentiating every xi1
# layer.  Results must agree bit for bit, and failures in class and
# message.


def taken_derivative(f: np.ndarray, grid: HopfGrid, axis: int) -> np.ndarray:
    """out_i = sum_j w_ij (f_j - f_i) over rows 1: of the width-3 axis
    tables, each neighbour gathered over the whole field."""
    n = grid.shape[axis]
    wts, idx = _axis_stencil(n, grid.spacings[axis], axis == 2, 3)
    bcast = [1, 1, 1]
    bcast[axis] = n
    out = np.zeros(f.shape)
    for w, j in zip(wts[1:], idx[1:]):
        out += w.reshape(bcast) * (np.take(f, j, axis=axis) - f)
    return out


def taken_derivatives(f, grid: HopfGrid) -> list[np.ndarray]:
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise InputFormatError(f"field shape {f.shape} does not match grid {grid.shape}")
    return [taken_derivative(f, grid, i) for i in range(3)]


def sum_flux(c, df, i: int) -> np.ndarray:
    return (c[i][0] * df[0] + c[i][2] * df[2]) + c[i][1] * df[1]


@np.errstate(over="ignore", invalid="ignore")
def gathered_grad_sq(f, metric: MetricField) -> np.ndarray:
    df = taken_derivatives(f, metric.grid)
    flux = [sum_flux(metric.inv, df, i) for i in range(3)]
    out = np.maximum((df[0] * flux[0] + df[2] * flux[2]) + df[1] * flux[1], 0.0)
    return _finite(out, "the gradient density |df|^2")


def gathered_rayleigh_quotient(f, metric: MetricField, scalar) -> float:
    f = np.asarray(f, dtype=float)
    if f.shape != metric.grid.shape:
        raise InputFormatError(f"trial shape {f.shape} does not match grid {metric.grid.shape}")
    if not np.all(np.isfinite(f)):
        raise InputFormatError("trial function has non-finite entries")
    if np.abs(f).max() <= 0.0:
        raise DegenerateTrialError("trial function is identically zero")
    r = np.asarray(scalar, dtype=float)
    if r.ndim == 0:
        r = np.full(f.shape, float(r))
    if r.shape != f.shape:
        raise InputFormatError(f"scalar curvature shape {r.shape} does not match grid {f.shape}")
    if not np.all(np.isfinite(r)):
        raise InputFormatError("scalar curvature has non-finite entries")
    with np.errstate(over="ignore"):
        denom = float(_critical_sum(f.reshape(-1), metric.weight.reshape(-1)))
    if not np.isfinite(denom):
        raise DegenerateTrialError("critical norm overflow")
    if denom ** (1.0 / 6) < 1e-30:
        raise DegenerateTrialError(
            f"critical norm underflow: ||f||_6 = {denom ** (1.0 / 6):.3e}"
        )
    numer = integrate(CONFORMAL_COEFF * gathered_grad_sq(f, metric) + r * f * f, metric)
    return numer / denom ** (1.0 / 3)


@np.errstate(over="ignore", invalid="ignore")
def gathered_laplace_beltrami(f, metric: MetricField) -> np.ndarray:
    df, root = taken_derivatives(f, metric.grid), metric.sqrt_det
    grid = metric.grid
    div = sum(taken_derivative(root * sum_flux(metric.inv, df, i), grid, i) for i in range(3))
    return _finite(div / root, "the Laplacian")


@np.errstate(over="ignore", invalid="ignore")
def gathered_neumann_residual(u, metric: MetricField) -> float:
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InputFormatError("conformal factor has non-finite entries")
    grid = metric.grid
    if u.shape != grid.shape:
        raise InputFormatError(f"field shape {u.shape} does not match grid {grid.shape}")
    faces = u[:, [0, -1]]
    du = [taken_derivative(faces, grid, 0), taken_derivative(u, grid, 1)[:, [0, -1]],
          taken_derivative(faces, grid, 2)]
    inv = metric.inv[:, :, :, [0, -1]]
    return float(_finite((np.abs(sum_flux(inv, du, 1)) / np.sqrt(inv[1, 1])).max(),
                         "the Neumann residual"))


def outcome(fn, *args):
    """("ok", result bytes) or (error class, message) of fn(*args)."""
    try:
        return "ok", np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


OPERATOR_FIELD = st.sampled_from(
    ["random", "constant", "signed_zero", "mixed", "subnormal", "one_inf"]
)


def operator_field(shape, seed: int, kind: str) -> np.ndarray:
    """`trial_field`, or a random field with one infinite cell."""
    if kind != "one_inf":
        return trial_field(shape, seed, kind)
    f = trial_field(shape, seed, "random")
    f[tuple(np.random.default_rng(seed + 2).integers(0, shape))] = np.inf
    return f


@settings(max_examples=40, **SETTINGS)
@given(SHAPE, SEED, st.booleans(), OPERATOR_FIELD)
def test_grad_sq_laplacian_and_neumann_equal_gathered_form(shape, seed, berger, kind):
    metric = metric_field(HopfGrid(*shape), seed, berger)
    f = operator_field(shape, seed, kind)
    for new, old in ((grad_sq, gathered_grad_sq), (laplace_beltrami, gathered_laplace_beltrami),
                     (neumann_residual, gathered_neumann_residual)):
        assert outcome(new, f, metric) == outcome(old, f, metric)
    # a mis-shaped field fails alike
    for new, old in ((grad_sq, gathered_grad_sq), (neumann_residual, gathered_neumann_residual)):
        assert outcome(new, f[:-1], metric) == outcome(old, f[:-1], metric)


@settings(max_examples=40, **SETTINGS)
@given(SHAPE, SEED, st.booleans(), OPERATOR_FIELD,
       st.sampled_from(["constant", "field", "inf", "nan_cell", "mis_shaped"]))
def test_rayleigh_quotient_equals_gathered_form(shape, seed, berger, kind, scalar_kind):
    metric = metric_field(HopfGrid(*shape), seed, berger)
    f = operator_field(shape, seed, kind)
    rng = np.random.default_rng(seed + 3)
    scalar = {
        "constant": rng.normal(),
        "field": rng.standard_normal(shape),
        "inf": np.inf,
        "nan_cell": np.where(np.arange(f.size).reshape(shape) == 1, np.nan, 1.0),
        "mis_shaped": np.ones(shape[:-1]),
    }[scalar_kind]

    def new(f, metric, scalar):
        return rayleigh_quotient(QuotientInput(f, metric, scalar))

    assert outcome(new, f, metric, scalar) == outcome(gathered_rayleigh_quotient, f, metric, scalar)


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
    form = _span_form(phi.reshape(7, -1), _QuotientWork(metric, scalar))
    coeffs = np.vstack([np.eye(7)[:1], _probe_coefficients(11, seed)])
    for c, u in zip(coeffs, mesh_trials(grid, 12, seed)):
        assert np.abs(np.tensordot(c, phi, 1) - u).max() <= 1e-14
        numer = np.sum(metric.weight * (CONFORMAL_COEFF * grad_sq(u, metric) + scalar * u * u))
        assert c @ form @ c == pytest.approx(numer, rel=1e-12)
