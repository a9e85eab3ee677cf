"""Property tests of the closed-form chart metric and the cofactor
inverse of `MetricField`.

`chart_metric` builds g elementwise from the closed-form frame
expansion and checks the expansion against the real frame maps
`_FRAME_MAPS`; `MetricField` takes sqrt(det g) and g^{-1} from 3x3 cofactors.
Each is checked against a reference kept here: the complex-array,
three-operand `einsum` construction the closed form replaced, the
closed form checked against the complex frame `frame_fields(embedding)`,
and `np.linalg.det`/`np.linalg.inv`.  Positive definiteness is checked
against `np.linalg.eigvalsh`.  Example counts are bounded and the
search is derandomized."""

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
