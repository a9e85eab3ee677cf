"""Descent estimator of the constrained quotient minimum, its
one-product line search, and the randomized lower-bound probe."""

import functools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    HopfGrid,
    InputFormatError,
    NumericalFailureError,
    QuotientInput,
    berger_scalar_closed,
    chart_metric,
    einstein_hilbert,
    estimate,
    rayleigh_quotient,
    yamabe_property_probe,
)
from relyamabe import yamabe_estimator
from relyamabe.yamabe_estimator import _minimize_one, _QuotientWork
from conftest import ROUND_ENERGY, berger_energy, perturbed_start


class TestEstimate:
    def test_round_value_and_minimizer(self, est_round32, round32):
        assert est_round32.value == pytest.approx(ROUND_ENERGY, rel=0.05)
        assert est_round32.converged
        m = est_round32.minimizer
        assert np.std(m) / np.abs(np.mean(m)) <= 0.05  # near-constant
        assert est_round32.neumann_residual_of_minimizer <= 1e-2

    def test_value_is_quotient_of_minimizer(self, est_round32, round32):
        q = rayleigh_quotient(QuotientInput(est_round32.minimizer, round32, 6.0))
        assert est_round32.value == q

    def test_value_not_above_constant_trial(self, est_round32, round32):
        q_const = rayleigh_quotient(
            QuotientInput(np.ones(round32.grid.shape), round32, 6.0)
        )
        assert est_round32.value <= q_const + 1e-12

    def test_trace_monotone_nonincreasing(self, est_round32):
        trace = np.asarray(est_round32.trace)
        assert trace.size >= 1
        assert (np.diff(trace) <= 1e-12).all()

    def test_berger_value(self, est_berger135_32):
        assert est_berger135_32.value == pytest.approx(
            berger_energy(1.0, 3.5), rel=0.05
        )

    def test_constant_is_a_saddle_on_coarse_round(self):
        # a known defect of the discrete problem: on the round n = 8 grid
        # the constant's descent converges at 27.7256, and a perturbed start
        # gets below it to 27.7056 without converging; estimate reports the
        # constant's descent
        metric = chart_metric(HopfGrid.cube(8), BergerParams(1.0, 1.0))
        _, q_perturbed, _, _ = _minimize_one(
            _QuotientWork(metric, 6.0), perturbed_start(metric.grid, 3)
        )
        est = estimate(metric, 6.0)
        assert q_perturbed == pytest.approx(27.7056, abs=1e-4)
        assert est.value == pytest.approx(27.7256, abs=1e-4)
        assert est.converged is True
        assert q_perturbed < est.value

    def test_deterministic(self, round16, est_round16):
        again = estimate(round16, 6.0)
        assert again.value == est_round16.value
        assert again.iterations_used == est_round16.iterations_used
        assert np.array_equal(again.minimizer, est_round16.minimizer)
        assert again.trace == est_round16.trace

    @pytest.mark.parametrize("scalar", [float("nan"), np.full((3, 3, 3), 2.0)])
    def test_bad_scalar_curvature_rejected(self, berger13_16, scalar):
        with pytest.raises(InputFormatError):
            estimate(berger13_16, scalar)

    def test_refinement_consistency(self, est_round16, est_round32):
        assert abs(est_round16.value - est_round32.value) / est_round32.value < 0.05

    def test_wire_format(self, est_round16):
        # the CLI payload passes these fields through as they are, so they
        # are builtins rather than numpy scalars
        assert type(est_round16.converged) is bool
        assert type(est_round16.iterations_used) is int
        assert type(est_round16.trace) is tuple
        assert all(isinstance(q, float) for q in est_round16.trace)


class CountingMatrix:
    """Wraps the matrix-free stiffness operator (anything with `@`) and
    counts its products."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


@pytest.fixture
def counted_stiffness(monkeypatch):
    """The stiffness operators built while the test runs, each wrapped in
    a CountingMatrix."""
    stiffness, counted = yamabe_estimator._stiffness, []

    def counting_stiffness(metric):
        counted.append(CountingMatrix(stiffness(metric)))
        return counted[-1]

    monkeypatch.setattr(yamabe_estimator, "_stiffness", counting_stiffness)
    return counted


@functools.cache
def berger_work(n: int) -> _QuotientWork:
    return _QuotientWork(chart_metric(HopfGrid.cube(n), BergerParams(1.0, 3.5)), 1.0)


class TestDescentLoop:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("est_round16", 27.636496843252679),
            ("est_round32", 27.614299471620811),
            ("est_berger135_32", 6.9877731034663073),
        ],
    )
    def test_fixture_values_kept(self, request, name, value):
        est = request.getfixturevalue(name)
        assert est.iterations_used == 5
        assert est.converged
        assert est.value == pytest.approx(value, rel=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([8, 16]),
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(1e-4, 1.0),
    )
    def test_trial_product_by_linearity(self, n, seed, s):
        work = berger_work(n)
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.2, 2.0, size=work.w.size)
        g = rng.standard_normal(work.w.size)
        cand, acand = work.trial(f, work.stiffness @ f, g, work.stiffness @ g, s)
        direct = work.quotient(cand, work.stiffness @ cand)
        assert work.quotient(cand, acand) == pytest.approx(direct, rel=1e-12)

    def test_trial_whose_norm_overflows_is_rejected(self):
        # dividing by the infinite norm would give the zero field, whose
        # quotient 0 is below any positive Q: the line search would take it
        work = berger_work(8)
        f = np.ones(work.w.size)
        af = work.stiffness @ f
        g = work.gradient(f, af)
        with np.errstate(over="ignore", invalid="ignore"):
            cand, acand = work.trial(f, af, g, work.stiffness @ g, 1e300)
            assert np.isnan(work.quotient(cand, acand))

    def test_carried_product_drift(self, berger13_16):
        work = _QuotientWork(berger13_16, 2.0)
        f0 = perturbed_start(berger13_16.grid)
        trial, last = work.trial, []

        def recording_trial(*args):
            last[:] = trial(*args)
            return last

        work.trial = recording_trial
        f, _, trace, reason = _minimize_one(work, f0)
        assert (reason, len(trace)) == ("max_iters", 401)
        carried, direct = last[1], work.stiffness @ f
        assert last[0] is f
        assert np.abs(carried - direct).max() <= 1e-10 * np.abs(direct).max()

    @pytest.mark.parametrize(
        "name, scalar, seeded",
        [
            pytest.param("berger13_16", 2.0, False, id="False-400"),
            pytest.param("berger13_16", 2.0, True, id="True-400"),
            pytest.param("round16", 6.0, False, id="round16-False-400"),
        ],
    )
    def test_one_product_per_iteration(self, request, name, scalar, seeded):
        metric = request.getfixturevalue(name)
        work = _QuotientWork(metric, scalar)
        if seeded:
            f0 = perturbed_start(metric.grid)
        else:
            f0 = np.ones(metric.grid.size)
        work.stiffness = CountingMatrix(work.stiffness)
        _, _, trace, reason = _minimize_one(work, f0)
        if seeded:
            assert reason == "max_iters"
        else:
            assert (reason, len(trace) - 1) == ("tol", 5)
        assert work.stiffness.products == len(trace)  # iterations + 1

    def test_overflowing_trials_are_rejected_quietly(self):
        # at t = 1e8 long trial steps from a perturbed start overflow the
        # critical norm; the line search must reject them without a numpy
        # RuntimeWarning
        metric = chart_metric(HopfGrid.cube(8), BergerParams(1.0, 1e8))
        work = _QuotientWork(metric, berger_scalar_closed(BergerParams(1.0, 1e8)))
        trial, non_finite = work.trial, []

        def recording_trial(*args):
            cand, acand = trial(*args)
            non_finite.append(not np.isfinite(work.quotient(cand, acand)))
            return cand, acand

        work.trial = recording_trial
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, q, _, _ = _minimize_one(work, perturbed_start(metric.grid))
        assert any(non_finite)
        assert np.isfinite(q)

    def test_overflowing_start_is_a_numerical_failure(self):
        # R = 1e308 overflows the start quotient's reduction: a
        # NumericalFailureError carrying the trace, not a RuntimeWarning
        metric = chart_metric(HopfGrid.cube(8), BergerParams(1.0, 1.0))
        with pytest.raises(NumericalFailureError) as info:
            estimate(metric, 1e308)
        assert info.value.trace == [np.inf]

    def test_one_debug_record_per_start(self, berger13_16, caplog):
        with caplog.at_level(logging.DEBUG, logger="relyamabe"):
            est = estimate(berger13_16, 2.0)
        records = [r for r in caplog.records if r.name == "relyamabe"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].args[1] in ("tol", "stationary", "max_iters")
        assert records[0].args[0] == est.iterations_used

    def test_one_descent_per_estimate(self, berger13_16, counted_stiffness):
        est = estimate(berger13_16, 2.0)
        assert len(counted_stiffness) == 1
        assert counted_stiffness[0].products == est.iterations_used + 1

    @pytest.mark.parametrize("name", ["est_round16", "est_round32", "est_berger135_32"])
    def test_constant_start_stays_constant(self, request, name):
        # for constant R the constant is an exact critical point of the
        # discrete quotient: A 1 == 0 and the gradient is 2 R u, so every
        # step keeps one value in every cell and the flux is exactly zero
        est = request.getfixturevalue(name)
        assert np.unique(est.minimizer).size == 1
        assert est.neumann_residual_of_minimizer == 0.0


class TestProbe:
    def test_round_trials_respect_bound(self, round32):
        report = yamabe_property_probe(round32, 6.0, n_trials=200, seed=0)
        assert report.n_trials == 200
        assert report.gap_to_energy >= -0.05
        assert report.min_over_trials <= report.energy  # constant trial included

    def test_berger_trials_respect_bound(self, berger135_32):
        report = yamabe_property_probe(berger135_32, 1.0, n_trials=200, seed=0)
        assert report.gap_to_energy >= -0.05

    def test_constant_trial_is_exact(self, berger13_16):
        report = yamabe_property_probe(berger13_16, 2.0, n_trials=5, seed=3)
        energy = einstein_hilbert(berger13_16, 2.0).energy
        assert report.min_over_trials <= energy
        assert report.argmin_trial == 0  # the constant opens the family

    def test_overflowing_energy_is_a_numerical_failure(self, berger13_16):
        # trial 0, the constant, reads the energy, whose integral of
        # R = 1e308 overflows: a NumericalFailureError, not a RuntimeWarning
        with pytest.raises(NumericalFailureError, match="overflows"):
            yamabe_property_probe(berger13_16, 1e308, n_trials=3)

    def test_bad_trial_count_rejected(self, berger13_16):
        with pytest.raises(InputFormatError):
            yamabe_property_probe(berger13_16, 2.0, n_trials=0)

    @pytest.mark.parametrize(
        "n_trials", [2.5, float("nan"), float("inf"), -float("inf"), True, np.True_]
    )
    def test_non_integer_trial_count_rejected(self, berger13_16, n_trials):
        with pytest.raises(InputFormatError):
            yamabe_property_probe(berger13_16, 2.0, n_trials=n_trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, float("nan"), float("inf"), False, np.False_])
    def test_bad_seed_rejected(self, berger13_16, seed):
        with pytest.raises(InputFormatError, match="seed must be a non-negative integer"):
            yamabe_property_probe(berger13_16, 2.0, n_trials=3, seed=seed)

    @pytest.mark.parametrize(
        "n_trials, seed",
        [(5.0, 3.0), (np.float64(5.0), np.int64(3)), (5, np.float64(3.0))],
        ids=["float", "float64-int64", "int-float64"],
    )
    def test_whole_floats_count_as_integers(self, berger13_16, n_trials, seed):
        report = yamabe_property_probe(berger13_16, 2.0, n_trials=n_trials, seed=seed)
        assert report == yamabe_property_probe(berger13_16, 2.0, n_trials=5, seed=3)
        assert type(report.n_trials) is int

    def test_span_form_from_the_descent_operator(self, berger13_16, counted_stiffness):
        # the 7x7 form takes one product per span field with the
        # stiffness operator the descent uses
        yamabe_property_probe(berger13_16, 2.0, n_trials=12, seed=0)
        assert len(counted_stiffness) == 1
        assert counted_stiffness[0].products == 7
