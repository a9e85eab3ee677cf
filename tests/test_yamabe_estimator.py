"""Descent estimator of the constrained quotient minimum, its
one-product line search, and the randomized lower-bound probe."""

import functools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    EstimatorOptions,
    HopfGrid,
    InputFormatError,
    QuotientInput,
    chart_metric,
    einstein_hilbert,
    estimate,
    rayleigh_quotient,
    yamabe_property_probe,
)
from relyamabe.yamabe_estimator import _minimize_one, _QuotientWork, _random_start
from conftest import ROUND_ENERGY, berger_energy


class TestOptions:
    def test_defaults_valid(self):
        opts = EstimatorOptions()
        assert opts.max_iters >= 1 and opts.tol > 0 and opts.restarts >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"tol": 0.0},
            {"tol": -1e-9},
            {"restarts": 0},
            {"seed": -1},
            {"step": 0.0},
        ]
        + [
            {name: bad}
            for name in ("max_iters", "restarts", "seed")
            for bad in (float("nan"), float("inf"), -float("inf"))
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InputFormatError):
            EstimatorOptions(**kwargs)


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

    def test_deterministic_under_fixed_seed(self, round16):
        opts = EstimatorOptions(seed=11, restarts=2, max_iters=120)
        a = estimate(round16, 6.0, opts)
        b = estimate(round16, 6.0, opts)
        assert a.value == b.value
        assert a.iterations_used == b.iterations_used
        assert np.array_equal(a.minimizer, b.minimizer)
        assert a.trace == b.trace

    def test_refinement_consistency(self, est_round16, est_round32):
        assert abs(est_round16.value - est_round32.value) / est_round32.value < 0.05

    def test_wire_format(self, est_round16):
        payload = est_round16.to_dict()
        assert set(payload) == {
            "value",
            "converged",
            "iterations",
            "neumann_residual",
            "trace",
        }
        text = json.dumps(payload)
        back = json.loads(text)
        assert isinstance(back["converged"], bool)
        assert isinstance(back["iterations"], int)
        assert isinstance(back["trace"], list)


class CountingMatrix:
    """Stands in for the stiffness matrix and counts its products."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


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

    def test_carried_product_drift(self, berger13_16):
        work = _QuotientWork(berger13_16, 2.0)
        f0 = _random_start(np.random.default_rng(0), berger13_16.grid.meshes())
        trial, last = work.trial, []

        def recording_trial(*args):
            last[:] = trial(*args)
            return last

        work.trial = recording_trial
        f, _, trace, conv, reason = _minimize_one(work, f0, EstimatorOptions(max_iters=400))
        assert (reason, conv, len(trace)) == ("max_iters", False, 401)
        carried, direct = last[1], work.stiffness @ f
        assert last[0] is f
        assert np.abs(carried - direct).max() <= 1e-10 * np.abs(direct).max()

    @pytest.mark.parametrize("seeded, max_iters", [(False, 400), (True, 30)])
    def test_one_product_per_iteration(self, berger13_16, seeded, max_iters):
        work = _QuotientWork(berger13_16, 2.0)
        if seeded:
            f0 = _random_start(np.random.default_rng(0), berger13_16.grid.meshes())
        else:
            f0 = np.ones(berger13_16.grid.size)
        work.stiffness = CountingMatrix(work.stiffness)
        _, _, trace, _, reason = _minimize_one(work, f0, EstimatorOptions(max_iters=max_iters))
        assert reason == ("max_iters" if seeded else "tol")
        assert work.stiffness.products == len(trace)  # iterations + 1

    def test_one_debug_record_per_start(self, berger13_16, caplog):
        opts = EstimatorOptions(restarts=2, max_iters=20)
        with caplog.at_level(logging.DEBUG, logger="relyamabe"):
            est = estimate(berger13_16, 2.0, opts)
        records = [r for r in caplog.records if r.name == "relyamabe"]
        assert len(records) == opts.restarts + 1
        assert all(r.levelno == logging.DEBUG for r in records)
        kinds = [r.args[0] for r in records]
        assert kinds == ["constant", "seeded 1", "seeded 2"]
        assert all(r.args[2] in ("tol", "stationary", "max_iters") for r in records)
        assert records[0].args[1] == est.iterations_used


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

    def test_bad_trial_count_rejected(self, berger13_16):
        with pytest.raises(InputFormatError):
            yamabe_property_probe(berger13_16, 2.0, n_trials=0)

    @pytest.mark.parametrize("n_trials", [2.5, float("nan"), float("inf"), -float("inf")])
    def test_non_integer_trial_count_rejected(self, berger13_16, n_trials):
        with pytest.raises(InputFormatError):
            yamabe_property_probe(berger13_16, 2.0, n_trials=n_trials)

    def test_serializable(self, berger13_16):
        report = yamabe_property_probe(berger13_16, 2.0, n_trials=3, seed=1)
        assert json.dumps(report.to_dict())
