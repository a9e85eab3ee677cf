"""The stacked bisection behind `boundary_curve` and `scalar_sign_curve`:
the same roots, bit for bit, as a sequential one-point-per-step
bisection to width 1e-8 over the single-point queries; exact zeros
returned as hit; at most one engine call per tree of midpoints; brackets
that grow past their first upper end when the root lies beyond it; and a
fixed width that every midpoint of every grown bracket falls strictly
inside."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    FrameMetric,
    HypothesisViolationError,
    boundary_curve,
    curvature_report,
    scalar_sign_curve,
    su2_structure_constants,
    theorem1_check,
)
from relyamabe import criterion

SETTINGS = dict(deadline=None, derandomize=True, database=None)
S_BELOW_9 = st.floats(1.0, 9.0, exclude_max=True)
TOL = 1e-8


def sequential_bisect(fun, lo, hi):
    """One function value per step to width TOL; returns (root, steps
    taken)."""
    f_lo, f_hi = fun(lo), fun(hi)
    assert np.sign(f_lo) != np.sign(f_hi)
    steps = 0
    while hi - lo > TOL:
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        steps += 1
        if f_mid == 0.0:
            return mid, steps
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), steps


def reference_boundary(s):
    frame = su2_structure_constants()

    def min_eig(t):
        metric = BergerParams(s, t).metric()
        scalar = curvature_report(frame, metric).scalar
        return theorem1_check(FrameMetric.round(), 6.0, metric, scalar).min_eig

    return sequential_bisect(min_eig, s + 1e-3, s + 4.0)


def reference_sign(s):
    frame = su2_structure_constants()
    return sequential_bisect(
        lambda t: curvature_report(frame, BergerParams(s, t).metric()).scalar, s, s + 8.0
    )


@settings(max_examples=15, **SETTINGS)
@given(S_BELOW_9)
def test_boundary_root_equals_sequential_bisection(s):
    assert boundary_curve(s) == reference_boundary(s)[0]


@settings(max_examples=15, **SETTINGS)
@given(S_BELOW_9)
def test_sign_root_equals_sequential_bisection(s):
    assert scalar_sign_curve(s) == reference_sign(s)[0]


@pytest.mark.parametrize("root", [0.75, 0.6875, 0.65625])
def test_exact_zero_midpoint_is_returned(root):
    # dyadic roots on [0, 1] are hit exactly: at steps 2, 4 (the last
    # node of the first tree) and 5 (the first step of the second tree)
    calls = []

    def fun(t):
        calls.append(len(t))
        return t - root

    assert criterion._bisect(fun, 0.0, 1.0, "toy") == root
    assert len(calls) == (2 if root != 0.65625 else 3)


def test_no_sign_change_after_growth_raises():
    with pytest.raises(HypothesisViolationError, match="no sign change"):
        criterion._bisect(lambda t: np.ones(len(t)), 0.0, 1.0, "toy")


def count_calls(monkeypatch, name):
    """Record each call of the criterion module's engine function `name`."""
    calls = []
    engine = getattr(criterion, name)

    def wrapper(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(criterion, name, wrapper)
    return calls


ROOT_CASES = pytest.mark.parametrize("s", [1.0, 2.25, 5.5, 8.75])


@ROOT_CASES
def test_boundary_engine_calls_per_root(monkeypatch, s):
    steps = reference_boundary(s)[1]
    calls = count_calls(monkeypatch, "_ricci")
    boundary_curve(s)
    assert 1 <= len(calls) <= math.ceil(steps / criterion._BISECT_DEPTH) + 1


@ROOT_CASES
def test_sign_engine_calls_per_root(monkeypatch, s):
    steps = reference_sign(s)[1]
    calls = count_calls(monkeypatch, "_ricci")
    scalar_sign_curve(s)
    assert 1 <= len(calls) <= math.ceil(steps / criterion._BISECT_DEPTH) + 1


@pytest.mark.parametrize("s", [9.0, 10.0, 12.25, 13.0, 25.0, 1e6])
def test_roots_past_the_first_bracket(s):
    assert abs(boundary_curve(s) - (s + math.sqrt(s) + 1.0)) <= 1e-6
    assert abs(scalar_sign_curve(s) - (1.0 + math.sqrt(s)) ** 2) <= 1e-6


def test_every_midpoint_falls_strictly_inside_its_bracket():
    # the largest t a grown bracket reaches is _ROOT_S_MAX + 8 doubled
    # _BRACKET_GROWTHS times; a bracket the walk splits is wider than
    # _ROOT_TOL, and a tree splits none narrower than _ROOT_TOL over
    # 2**(_BISECT_DEPTH - 1), so its midpoint lies strictly between
    # its ends and the bracket shrinks at every step
    t_max = criterion._ROOT_S_MAX + 8.0 * 2**criterion._BRACKET_GROWTHS
    assert criterion._ROOT_TOL == TOL
    assert 2 * math.ulp(t_max) < criterion._ROOT_TOL / 2 ** (criterion._BISECT_DEPTH - 1)
