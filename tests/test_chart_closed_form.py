"""Property tests of the closed-form chart metric and the cofactor
inverse of `MetricField`.

`chart_metric` builds g elementwise from the closed-form frame
expansion and checks the expansion against the real frame maps
`_FRAME_MAPS`; `MetricField` takes sqrt(det g) and g^{-1} from 3x3 cofactors.
Each is checked against a reference kept here: the complex-array,
three-operand `einsum` construction the closed form replaced, the
closed form checked against the complex frame `frame_fields(embedding)`,
and `np.linalg.det`/`np.linalg.inv`.  Positive definiteness is checked
against `np.linalg.eigvalsh`.  The shared products of `chart_metric`
and `MetricField` must give, bit for bit, the term-by-term construction
(twelve three-product residuals, six three-product components) and the
nine-component symmetry scale, symmetrization and inverse, and fail
alike in class and message on an edge corpus.  Example counts are
bounded and the search is derandomized."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    ChartConsistencyError,
    HopfGrid,
    InvalidMetricError,
    MetricField,
    chart_metric,
    su2_chart,
)
from relyamabe.su2_chart import embedding, frame_fields

SETTINGS = dict(deadline=None, derandomize=True, database=None)

SHAPE = st.tuples(*(st.integers(4, 12),) * 3)
SEED = st.integers(0, 2**32 - 1)
BERGER = st.tuples(st.floats(1.0, 6.0), st.floats(0.0, 6.0)).map(lambda p: (p[0], p[0] + p[1]))


def cells(a):
    """A per-cell tensor field g[a, b] as the view g[..., a, b]."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def components(a):
    """A per-cell tensor field g[..., a, b] as the view g[a, b]."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def cell_field(cell, shape=(4, 4, 4)):
    """The field with the same 3x3 cell everywhere, component-major."""
    return np.broadcast_to(np.asarray(cell, dtype=float)[:, :, None, None, None], (3, 3) + shape)


def real4(a, b):
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def einsum_chart_metric(grid: HopfGrid, s: float, t: float):
    """g and the chart residual from the coordinate vectors dE and the
    frame as complex arrays, expanded and contracted by einsum."""
    e, x1, x2 = grid.meshes()
    z, w = embedding(grid)
    v = frame_fields(z, w)
    frame4 = real4(v[..., 0], v[..., 1])
    zero = np.zeros_like(z)
    de = np.stack(
        [
            real4(-np.sin(e) * np.exp(1j * x1), np.cos(e) * np.exp(1j * x2)),
            real4(1j * z, zero),
            real4(zero, 1j * w),
        ],
        axis=-2,
    )
    em = np.einsum("...ak,...bk->...ab", de, frame4)
    resid = float(np.abs(de - np.einsum("...ab,...bk->...ak", em, frame4)).max())
    g = np.einsum("...ak,k,...bk->...ab", em, np.array([1.0, s, t]), em)
    return 0.5 * (g + np.swapaxes(g, -1, -2)), resid


@settings(max_examples=25, **SETTINGS)
@given(SHAPE, BERGER)
def test_chart_metric_equals_einsum_construction(shape, st_):
    grid = HopfGrid(*shape)
    m = chart_metric(grid, BergerParams(*st_))
    g, resid = einsum_chart_metric(grid, *st_)
    assert np.abs(cells(m.g) - g).max() <= 1e-13
    assert np.array_equal(m.g, np.swapaxes(m.g, 0, 1))
    assert m.chart_residual <= 1e-13 and resid <= 1e-13


def complex_frame_chart_metric(grid: HopfGrid, s: float, t: float):
    """g and the chart residual as `chart_metric` formed them when it took
    the frame from the complex route `frame_fields(embedding(grid))`."""
    e = grid.eta[:, None, None]
    x1 = grid.xi1[None, :, None]
    x2 = grid.xi2[None, None, :]
    ce, se = np.cos(e), np.sin(e)
    ct, st_ = np.cos(x1 + x2), np.sin(x1 + x2)
    cs = ce * se
    zero = np.zeros((1, 1, 1))
    em = (
        (zero, -ct, st_),
        (ce * ce, -cs * st_, -cs * ct),
        (se * se, cs * st_, cs * ct),
    )
    c1, s1, c2, s2 = np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2)
    de = (
        (-se * c1, -se * s1, ce * c2, ce * s2),
        (-ce * s1, ce * c1, zero, zero),
        (zero, zero, -se * s2, se * c2),
    )
    v = frame_fields(*embedding(grid))
    frame = np.moveaxis(real4(v[..., 0], v[..., 1]), (-2, -1), (0, 1))
    resid = max(
        float(np.abs(de[a][c] - em[a][0] * frame[0, c] - em[a][1] * frame[1, c]
                     - em[a][2] * frame[2, c]).max())
        for a in range(3)
        for c in range(4)
    )
    g = np.empty((3, 3) + grid.shape)
    for a in range(3):
        for b in range(a, 3):
            g[a, b] = g[b, a] = (
                em[a][0] * em[b][0] + s * em[a][1] * em[b][1] + t * em[a][2] * em[b][2]
            )
    return g, resid


@settings(max_examples=25, **SETTINGS)
@given(st.tuples(*(st.integers(4, 40),) * 3), BERGER)
@example((4, 4, 4), (1.0, 1.0))
@example((32, 32, 32), (1.0, 1.0))
@example((32, 32, 32), (3.5, 7.0))
def test_frame_map_check_equals_complex_frame_check_bitwise(shape, st_):
    grid = HopfGrid(*shape)
    m = chart_metric(grid, BergerParams(*st_))
    g, resid = complex_frame_chart_metric(grid, *st_)
    assert np.array_equal(m.g, g)
    assert m.chart_residual == resid


@pytest.mark.parametrize("entry", [tuple(ix) for ix in np.argwhere(su2_chart._FRAME_MAPS)])
def test_frame_map_with_one_wrong_sign_fails_the_chart_check(monkeypatch, entry):
    maps = su2_chart._FRAME_MAPS.copy()
    maps[entry] = -maps[entry]
    monkeypatch.setattr(su2_chart, "_FRAME_MAPS", maps)
    with pytest.raises(ChartConsistencyError, match="not spanned by the frame"):
        chart_metric(HopfGrid.cube(8), BergerParams(1.0, 3.5))


def spd_field(shape, seed):
    """A random positive definite field, as a (non-contiguous)
    component-major view."""
    a = np.random.default_rng(seed).standard_normal(shape + (3, 3))
    return components(a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3))


def assert_linalg_agrees(m: MetricField):
    # one layout: g[a, b] and inv[i, j] are contiguous component fields
    for field in (m.g, m.inv):
        assert field.shape == (3, 3) + m.grid.shape
        assert field.flags.c_contiguous
    det, inv = np.linalg.det(cells(m.g)), np.linalg.inv(cells(m.g))
    assert np.all(np.abs(m.sqrt_det ** 2 - det) <= 1e-12 * np.abs(det))
    scale = np.abs(inv).max(axis=(-2, -1))[..., None, None]
    assert np.all(np.abs(cells(m.inv) - inv) <= 1e-12 * scale)
    assert np.array_equal(m.inv, np.swapaxes(m.inv, 0, 1))


@settings(max_examples=30, **SETTINGS)
@given(SHAPE, SEED)
def test_cofactor_det_and_inverse_equal_linalg_on_spd_fields(shape, seed):
    assert_linalg_agrees(MetricField(grid=HopfGrid(*shape), g=spd_field(shape, seed)))


@settings(max_examples=15, **SETTINGS)
@given(SHAPE, BERGER)
def test_cofactor_det_and_inverse_equal_linalg_on_chart_metrics(shape, st_):
    assert_linalg_agrees(chart_metric(HopfGrid(*shape), BergerParams(*st_)))


@settings(max_examples=40, **SETTINGS)
@given(SEED, st.floats(-3.0, 3.0))
def test_accepted_exactly_when_every_cell_is_positive_definite(seed, shift):
    shape = (4, 4, 4)
    b = np.random.default_rng(seed).standard_normal(shape + (3, 3))
    g = b + np.swapaxes(b, -1, -2) + shift * np.eye(3)
    lowest = np.linalg.eigvalsh(g).min()
    if lowest > 0.0:
        assert MetricField(grid=HopfGrid(*shape), g=components(g)).volume() > 0.0
    else:
        with pytest.raises(InvalidMetricError):
            MetricField(grid=HopfGrid(*shape), g=components(g))


@pytest.mark.parametrize(
    "diag", [(-1.0, -1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (1.0, 1.0, 0.0)]
)
def test_indefinite_field_with_positive_det_rejected(diag):
    # (-1, -1, 1) has det +1 in every cell
    g = cell_field(np.diag(diag))
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


def test_indefinite_cell_in_a_positive_field_rejected():
    g = cell_field(np.eye(3)).copy()
    g[:, :, 1, 2, 3] = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


def test_symmetry_is_checked_per_cell_at_relative_tolerance():
    g = cell_field(np.eye(3)).copy()
    g[0, 1, 0, 0, 0] = 2e-12
    with pytest.raises(InvalidMetricError, match="symmetric"):
        MetricField(grid=HopfGrid.cube(4), g=g)
    # relative: the same absolute defect on a cell of scale 1e4 is roundoff
    g[:, :, 0, 0, 0] = 1e4 * np.eye(3)
    g[0, 1, 0, 0, 0] = 2e-12
    m = MetricField(grid=HopfGrid.cube(4), g=g)
    assert np.array_equal(m.g, np.swapaxes(m.g, 0, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_rejected(bad):
    g = cell_field(np.eye(3)).copy()
    g[1, 1, 2, 1, 0] = bad
    with pytest.raises(InvalidMetricError, match="non-finite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


@pytest.mark.parametrize("diag", [(1e110, 1e110, 1e110), (1e200, 1e200, 1e-300)])
def test_field_whose_det_or_inverse_overflows_rejected(diag):
    # the cofactor products leave the float range: no inverse of zeros
    g = cell_field(np.diag(diag))
    with pytest.raises(InvalidMetricError, match="not finite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


# === shared products: bit for bit against the term-by-term construction ===


def term_by_term_chart_metric(grid: HopfGrid, s: float, t: float):
    """g and the chart residual formed term by term: twelve residuals
    ((dE_a - em_a0 V_0) - em_a1 V_1) - em_a2 V_2 of three full-grid
    products each, from the frame maps, and six components
    (em_a0 em_b0 + (s em_a1) em_b1) + (t em_a2) em_b2."""
    e = grid.eta[:, None, None]
    x1 = grid.xi1[None, :, None]
    x2 = grid.xi2[None, None, :]
    ce, se = np.cos(e), np.sin(e)
    ct, st_ = np.cos(x1 + x2), np.sin(x1 + x2)
    cs = ce * se
    zero = np.zeros((1, 1, 1))
    em = (
        (zero, -ct, st_),
        (ce * ce, -cs * st_, -cs * ct),
        (se * se, cs * st_, cs * ct),
    )
    c1, s1, c2, s2 = np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2)
    de = (
        (-se * c1, -se * s1, ce * c2, ce * s2),
        (-ce * s1, ce * c1, zero, zero),
        (zero, zero, -se * s2, se * c2),
    )
    x = np.stack(np.broadcast_arrays(ce * c1, ce * s1, se * c2, se * s2))
    frame = np.einsum("kcd,d...->kc...", su2_chart._FRAME_MAPS, x)
    resid = max(
        float(np.abs(((de[a][c] - em[a][0] * frame[0, c]) - em[a][1] * frame[1, c])
                     - em[a][2] * frame[2, c]).max())
        for a in range(3)
        for c in range(4)
    )
    g = np.empty((3, 3) + grid.shape)
    for a in range(3):
        for b in range(a, 3):
            g[a, b] = g[b, a] = (
                em[a][0] * em[b][0] + s * em[a][1] * em[b][1] + t * em[a][2] * em[b][2]
            )
    return g, resid


def nine_component_metric_field(grid: HopfGrid, g):
    """(g, inv, sqrt_det, weight) of a field as the cofactor construction
    formed them with its scale max |g| over all nine components of every
    cell, every mirrored sum formed twice and all nine inverse entries
    divided, raising InvalidMetricError with the same messages."""
    g = np.asarray(g, dtype=float, order="C")
    if g.shape != (3, 3) + grid.shape:
        raise InvalidMetricError(f"metric field shape {g.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidMetricError("metric field has non-finite entries")
    inv = np.empty(g.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(g[0, 1] - g[1, 0])
        for a, b in ((0, 2), (1, 2)):
            np.maximum(asym, np.abs(g[a, b] - g[b, a]), out=asym)
        if np.any(asym > 1e-12 * np.abs(g).max(axis=(0, 1))):
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
    root = np.sqrt(det)
    return g, inv, root, root * grid.cell_volume


def stored(m: MetricField):
    return tuple(a.tobytes() for a in (m.g, m.inv, m.sqrt_det, m.weight))


def field_outcome(build, *args):
    """("stored", the bytes of g, inv, sqrt_det and weight) or (error
    class, message) of build(*args)."""
    try:
        result = build(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return "stored", tuple(np.asarray(a).tobytes() for a in result)


def metric_field_arrays(grid: HopfGrid, g):
    m = MetricField(grid=grid, g=g)
    return m.g, m.inv, m.sqrt_det, m.weight


@settings(max_examples=25, **SETTINGS)
@given(st.tuples(*(st.integers(4, 40),) * 3), BERGER)
@example((16, 16, 16), (1.0, 1.0))
@example((5, 9, 7), (2.0, 2.0))
@example((12, 12, 12), (1.0, 3.5))
@example((9, 16, 11), (1.7, 4.6))
@example((8, 8, 8), (1.0, 1e8))
@example((6, 10, 8), (1e3, 1e3))
def test_shared_products_equal_term_by_term_construction(shape, st_):
    grid = HopfGrid(*shape)
    m = chart_metric(grid, BergerParams(*st_))
    g, resid = term_by_term_chart_metric(grid, *st_)
    assert stored(m) == tuple(a.tobytes() for a in nine_component_metric_field(grid, g))
    assert type(m.chart_residual) is float and m.chart_residual == resid


@pytest.mark.parametrize("shape", [(4, 4, 4), (7, 5, 6)])
def test_failing_chart_field_raises_as_term_by_term_construction(shape):
    grid = HopfGrid(*shape)
    g, _ = term_by_term_chart_metric(grid, 1.0, 1e10)
    with pytest.raises(InvalidMetricError) as want:
        nine_component_metric_field(grid, g)
    with pytest.raises(su2_chart.NumericalFailureError) as got:
        chart_metric(grid, BergerParams(1.0, 1e10))
    assert str(got.value) == (
        f"the chart field of the metric diag(1.0, 1.0, 10000000000.0) on the {shape} grid "
        f"fails in floating point: {want.value}"
    )
    assert type(got.value.__cause__) is InvalidMetricError
    assert str(got.value.__cause__) == str(want.value)


def metric_field_edge_corpus():
    """Fields on a (4, 5, 6) grid, each as (label, g), on which
    MetricField must store or fail exactly as the nine-component
    construction does."""
    shape = (4, 5, 6)
    rng = np.random.default_rng(2024)
    b = rng.standard_normal(shape + (3, 3))
    spd = b @ np.swapaxes(b, -1, -2) + 0.5 * np.eye(3)
    base = np.ascontiguousarray(components(spd))
    cell = (1, 2, 3)
    for scale, (a, b_), first, sign, largest in itertools.product(
        (1e-300, 1.0, 1e300), ((0, 1), (0, 2), (1, 2)), (True, False), (1.0, -1.0), (False, True)
    ):
        # one cell whose pair differs by the bound 1e-12 max|g| of its own
        # entries, and by 1 or 2 ulps more or less; the pair holds the
        # cell's largest entry or does not
        g = scale * base
        if largest:
            g[(a, b_) + cell] = g[(b_, a) + cell] = 1e3 * scale
        big = np.abs(g[(slice(None), slice(None)) + cell]).max()
        bound = 1e-12 * big
        hi, lo = (a, b_) if first else (b_, a)
        for ulps in (-2, -1, 0, 1, 2):
            d = bound
            for _ in range(abs(ulps)):
                d = np.nextafter(d, np.inf if ulps > 0 else 0.0)
            h = g.copy()
            h[(hi, lo) + cell] = h[(lo, hi) + cell] + sign * d
            yield f"asym {scale} {a}{b_} {first} {sign} {largest} {ulps:+d}", h
    for i, j in np.ndindex(3, 3):
        # the largest entry of the cell at (i, j) sets the scale of a
        # defect just inside the bound on another pair
        h = base.copy()
        h[(i, j) + cell] = h[(j, i) + cell] = 1e6
        a, b_ = (0, 1) if {i, j} != {0, 1} else (1, 2)
        h[(a, b_) + cell] = h[(b_, a) + cell] + 0.9e-6
        yield f"largest entry {i}{j}", h
    h = base.copy()
    h[(0, 1) + cell], h[(1, 0) + cell] = 5e-324, 1e-323  # subnormal sums halve inexactly
    h[(0, 2) + cell] = h[(2, 0) + cell] = 5e-324
    yield "subnormal pairs", h
    for value in (1e308, -1e308):
        for a, b_ in ((0, 1), (0, 2), (1, 2)):
            h = base.copy()
            h[(a, b_) + cell], h[(b_, a) + cell] = value, -value  # the difference overflows
            yield f"overflowing difference {a}{b_} {value}", h
            h = base.copy()
            h[(a, b_) + cell] = h[(b_, a) + cell] = value  # symmetric, the sum overflows
            yield f"overflowing sum {a}{b_} {value}", h
    h = base.copy()
    h[(0, 0) + cell] = h[(1, 1) + cell] = h[(2, 2) + cell] = 1e308
    yield "huge diagonal", h
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (1, 2), (2, 1)):
            h = base.copy()
            h[entry + cell] = bad
            yield f"non-finite {bad} {entry}", h
    h = base.copy()
    h[(0, 1) + cell], h[(1, 0) + cell] = 0.0, -0.0
    yield "signed zeros", h
    yield "non-contiguous", components(spd)
    yield "strided", np.concatenate([base, base], axis=-1)[..., ::2]
    yield "integer", np.broadcast_to((2 * np.eye(3, dtype=np.int64))[:, :, None, None, None],
                                     (3, 3) + shape)
    yield "integer asymmetric", np.broadcast_to(
        np.array([[2, 1, 0], [0, 2, 0], [0, 0, 2]])[:, :, None, None, None], (3, 3) + shape)
    for wrong in ((3, 3, 4, 5), (3, 3, 4, 6, 5), (2, 2) + shape, (3, 3) + shape + (1,), (9,) + shape):
        yield f"shape {wrong}", np.ones(wrong)
    for diag in ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, -1.0),
                 (-1.0, 1.0, -1.0), (1.0, -2.0, 3.0)):
        h = base.copy()
        h[(slice(None), slice(None)) + cell] = np.diag(diag)
        yield f"cell diag {diag}", h
    for diag in ((1e110, 1e110, 1e110), (1e200, 1e200, 1e-300)):  # det or inverse overflows
        h = base.copy()
        h[(slice(None), slice(None)) + cell] = np.diag(diag)
        yield f"cell diag {diag}", h
    h = base.copy()
    h[(slice(None), slice(None)) + cell] = np.ones((3, 3))  # singular, rank one
    yield "singular cell", h
    h = base.copy()
    h[(slice(None), slice(None)) + cell] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    yield "indefinite cell", h
    yield "tiny", 1e-200 * base
    yield "random symmetric", components(b + np.swapaxes(b, -1, -2))


def test_metric_field_edge_corpus_as_nine_component_construction():
    grid = HopfGrid(4, 5, 6)
    outcomes = set()
    for label, g in metric_field_edge_corpus():
        want = field_outcome(nine_component_metric_field, grid, g)
        assert field_outcome(metric_field_arrays, grid, g) == want, label
        outcomes.add(want[0] if want[0] == "stored" else want[1].split(" (")[0])
    # the corpus reaches every outcome
    assert outcomes == {
        "stored",
        "metric field shape",
        "metric field has non-finite entries",
        "metric field is not symmetric at every cell",
        "metric field is not positive definite at every cell",
        "metric field determinant or inverse is not finite",
    }


@settings(max_examples=40, **SETTINGS)
@given(SHAPE, SEED, st.integers(-3, 3), st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]))
def test_metric_field_equals_nine_component_construction(shape, seed, ulps, defect):
    # random fields, symmetric or with a relative defect near the bound
    g = np.array(spd_field(shape, seed))
    rng = np.random.default_rng(seed)
    a, b = [(0, 1), (0, 2), (1, 2)][seed % 3]
    d = defect * np.abs(g).max(axis=(0, 1))
    for _ in range(abs(ulps)):
        d = np.nextafter(d, np.inf if ulps > 0 else 0.0)
    g[a, b] = g[b, a] + d * rng.choice([-1.0, 1.0], size=shape)
    grid = HopfGrid(*shape)
    assert field_outcome(metric_field_arrays, grid, g) == field_outcome(
        nine_component_metric_field, grid, g
    )
