"""Property tests of the closed-form chart metric and the cofactor
inverse of `MetricField`.

`chart_metric` builds g elementwise from the closed-form frame
expansion, and `MetricField` takes det and g^{-1} from 3x3 cofactors.
Each is checked against a reference kept here: the complex-array,
three-operand `einsum` construction the closed form replaced, and
`np.linalg.det`/`np.linalg.inv`.  Positive definiteness is checked
against `np.linalg.eigvalsh`.  Example counts are bounded and the
search is derandomized."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import BergerParams, HopfGrid, InvalidMetricError, MetricField, chart_metric
from relyamabe.su2_chart import embedding, frame_fields

SETTINGS = dict(deadline=None, derandomize=True, database=None)

SHAPE = st.tuples(*(st.integers(4, 12),) * 3)
SEED = st.integers(0, 2**32 - 1)
BERGER = st.tuples(st.floats(1.0, 6.0), st.floats(0.0, 6.0)).map(lambda p: (p[0], p[0] + p[1]))


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
    assert np.abs(m.g - g).max() <= 1e-13
    assert np.array_equal(m.g, np.swapaxes(m.g, -1, -2))
    assert m.chart_residual <= 1e-13 and resid <= 1e-13


def spd_field(shape, seed):
    a = np.random.default_rng(seed).standard_normal(shape + (3, 3))
    return a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)


def assert_linalg_agrees(m: MetricField):
    det, inv = np.linalg.det(m.g), np.linalg.inv(m.g)
    assert np.all(np.abs(m.det - det) <= 1e-12 * np.abs(det))
    scale = np.abs(inv).max(axis=(-2, -1))[..., None, None]
    assert np.all(np.abs(m.inv - inv) <= 1e-12 * scale)
    assert np.array_equal(m.inv, np.swapaxes(m.inv, -1, -2))
    for i in range(3):
        for j in range(3):
            assert np.array_equal(m._inv_ij[i][j], m.inv[..., i, j])


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
        assert MetricField(grid=HopfGrid(*shape), g=g).volume() > 0.0
    else:
        with pytest.raises(InvalidMetricError):
            MetricField(grid=HopfGrid(*shape), g=g)


@pytest.mark.parametrize(
    "diag", [(-1.0, -1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (1.0, 1.0, 0.0)]
)
def test_indefinite_field_with_positive_det_rejected(diag):
    # (-1, -1, 1) has det +1 in every cell
    g = np.broadcast_to(np.diag(diag), (4, 4, 4, 3, 3))
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


def test_indefinite_cell_in_a_positive_field_rejected():
    g = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
    g[1, 2, 3] = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


def test_symmetry_is_checked_per_cell_at_relative_tolerance():
    g = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
    g[0, 0, 0, 0, 1] = 2e-12
    with pytest.raises(InvalidMetricError, match="symmetric"):
        MetricField(grid=HopfGrid.cube(4), g=g)
    # relative: the same absolute defect on a cell of scale 1e4 is roundoff
    g[0, 0, 0] = 1e4 * np.eye(3)
    g[0, 0, 0, 0, 1] = 2e-12
    m = MetricField(grid=HopfGrid.cube(4), g=g)
    assert np.array_equal(m.g, np.swapaxes(m.g, -1, -2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_rejected(bad):
    g = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
    g[2, 1, 0, 1, 1] = bad
    with pytest.raises(InvalidMetricError, match="non-finite"):
        MetricField(grid=HopfGrid.cube(4), g=g)


@pytest.mark.parametrize("diag", [(1e110, 1e110, 1e110), (1e200, 1e200, 1e-300)])
def test_field_whose_det_or_inverse_overflows_rejected(diag):
    # the cofactor products leave the float range: no inverse of zeros
    g = np.broadcast_to(np.diag(diag), (4, 4, 4, 3, 3))
    with pytest.raises(InvalidMetricError, match="not finite"):
        MetricField(grid=HopfGrid.cube(4), g=g)
