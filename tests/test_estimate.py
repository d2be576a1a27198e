"""Likelihood, gradient and fit behavior for the logit estimator.

Oracles: the log-likelihood is re-summed record by record with plain
arithmetic, and the analytic gradient is checked against central finite
differences.
"""

import csv
import io
import json
import math
import random
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathlib import Path

from fit_logs import DISCONNECTED, SOLVER_PATHS, WARNED
from skillcheck import estimate
from skillcheck.estimate import (
    FitResult,
    OutcomeRecord,
    RaschEstimator,
    _columns,
    _Kernel,
    fit_rasch,
    gradient,
    log_likelihood,
    read_outcome_csv,
)
from skillcheck.logistic import sigmoid
from skillcheck.resolve import SplitMix64

DATA = Path(__file__).parent / "data"


def make_records(pairs):
    return [OutcomeRecord(p, t, s) for p, t, s in pairs]


def synthetic(n_persons, n_tasks, seed, spread=2.0):
    """Records drawn from known logits, plus the generating truth."""
    rng = SplitMix64(seed)
    theta = {f"p{i:03d}": -spread + 2 * spread * rng.random() for i in range(n_persons)}
    beta = {f"t{j:03d}": -spread + 2 * spread * rng.random() for j in range(n_tasks)}
    records = []
    for p in sorted(theta):
        for t in sorted(beta):
            records.append(
                OutcomeRecord(p, t, rng.random() < sigmoid(theta[p] - beta[t]))
            )
    return records, theta, beta


class TestLogLikelihood:
    def test_even_match_single_record(self):
        ll = log_likelihood(
            make_records([("a", "t", True)]), {"a": 0.7}, {"t": 0.7}
        )
        assert ll == pytest.approx(math.log(0.5), abs=1e-15)

    def test_doubling_doubles(self):
        records, theta, beta = synthetic(4, 3, seed=5)
        single = log_likelihood(records, theta, beta)
        double = log_likelihood(records + records, theta, beta)
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_matches_per_record_oracle(self):
        records = make_records(
            [("a", "t1", True), ("a", "t2", False), ("b", "t1", False), ("b", "t2", True)]
        )
        theta = {"a": 0.8, "b": -0.3}
        beta = {"t1": 0.1, "t2": -0.6}
        oracle = 0.0
        for rec in records:
            p = 1.0 / (1.0 + math.exp(-(theta[rec.person] - beta[rec.task])))
            oracle += math.log(p) if rec.success else math.log(1.0 - p)
        assert log_likelihood(records, theta, beta) == pytest.approx(oracle, abs=1e-12)

    def test_penalty_term(self):
        records = make_records([("a", "t", True)])
        theta, beta = {"a": 0.5}, {"t": -0.25}
        plain = log_likelihood(records, theta, beta, ridge=0.0)
        ridged = log_likelihood(records, theta, beta, ridge=0.5)
        assert ridged == pytest.approx(plain - 0.25 * (0.5**2 + 0.25**2), abs=1e-12)

    def test_slope_scales_the_gap(self):
        records = make_records([("a", "t", True)])
        ll = log_likelihood(records, {"a": 1.0}, {"t": 0.0}, slope=2.5)
        assert ll == pytest.approx(math.log(sigmoid(2.5)), abs=1e-12)

    def test_per_task_slopes(self):
        records = make_records([("a", "t1", True), ("a", "t2", True)])
        ll = log_likelihood(
            records, {"a": 1.0}, {"t1": 0.0, "t2": 0.0}, slope={"t1": 1.0, "t2": 3.0}
        )
        assert ll == pytest.approx(
            math.log(sigmoid(1.0)) + math.log(sigmoid(3.0)), abs=1e-12
        )

    def test_missing_parameter_is_an_error(self):
        records = make_records([("a", "t", True)])
        with pytest.raises(ValueError):
            log_likelihood(records, {}, {"t": 0.0})
        with pytest.raises(ValueError):
            log_likelihood(records, {"a": 0.0}, {})

    def test_missing_parameter_names_first_offending_record(self):
        records = make_records([("a", "t", True), ("a", "new", False), ("nobody", "t", True)])
        with pytest.raises(ValueError, match="missing difficulty parameter for task 'new'"):
            log_likelihood(records, {"a": 0.0}, {"t": 0.0})
        # A record missing both is reported by its person.
        with pytest.raises(ValueError, match="missing ability parameter for person 'nobody'"):
            gradient(records[2:] + records, {"a": 0.0}, {"t": 0.0})

    def test_success_counts_by_truth_value(self):
        theta, beta = {"a": 0.3}, {"t": -0.2}
        truthy = [OutcomeRecord("a", "t", 2), OutcomeRecord("a", "t", "")]
        plain = make_records([("a", "t", True), ("a", "t", False)])
        assert log_likelihood(truthy, theta, beta) == log_likelihood(plain, theta, beta)

    def test_slope_mapping_needs_only_tasks_with_records(self):
        records = make_records([("a", "t1", True), ("a", "t2", False)])
        slopes = {"t1": 1.0, "t2": 3.0}
        theta, beta = {"a": 0.4}, {"t1": 0.1, "t2": -0.2, "idle": 0.5}
        ll = log_likelihood(records, theta, beta, slope=slopes, ridge=0.1)
        expected = math.log(sigmoid(0.3)) + math.log(1.0 - sigmoid(1.8))
        assert ll == pytest.approx(expected - 0.05 * (0.16 + 0.01 + 0.04 + 0.25), abs=1e-12)
        g = gradient(records, theta, beta, slope=slopes, ridge=0.1)
        assert g[1] == -0.1 * 0.5  # "idle" has no records: only the penalty pulls it
        for fn in (log_likelihood, gradient):
            with pytest.raises(ValueError, match="no slope given for task 't2'"):
                fn(records, theta, beta, slope={"t1": 1.0, "idle": 1.0})


class TestGradient:
    def _instance(self, seed=101):
        rng = SplitMix64(seed)
        persons = [f"p{i}" for i in range(5)]
        tasks = [f"t{j}" for j in range(5)]
        theta = {p: -1.5 + 3 * rng.random() for p in persons}
        beta = {t: -1.5 + 3 * rng.random() for t in tasks}
        records = [
            OutcomeRecord(p, t, rng.random() < 0.5) for p in persons for t in tasks
        ]
        return records, theta, beta

    def test_matches_finite_differences(self):
        records, theta, beta = self._instance()
        ridge = 0.01
        g = gradient(records, theta, beta, ridge=ridge)
        h = 1e-5
        names = [("p", k) for k in sorted(theta)] + [("t", k) for k in sorted(beta)]
        for idx, (kind, key) in enumerate(names):
            hi_t, lo_t = dict(theta), dict(theta)
            hi_b, lo_b = dict(beta), dict(beta)
            if kind == "p":
                hi_t[key] += h
                lo_t[key] -= h
            else:
                hi_b[key] += h
                lo_b[key] -= h
            fd = (
                log_likelihood(records, hi_t, hi_b, ridge=ridge)
                - log_likelihood(records, lo_t, lo_b, ridge=ridge)
            ) / (2 * h)
            assert abs(g[idx] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_at_fitted_optimum(self):
        records, _, _ = self._instance(seed=77)
        result = fit_rasch(records, ridge=0.05, tol=1e-10)
        g = gradient(records, result.abilities, result.difficulties, ridge=0.05)
        # the gauge shift moves the solution along the penalty gradient a bit
        assert float(np.max(np.abs(g))) < 0.05 * 0.5

    def test_matches_per_record_oracle(self):
        records, theta, beta = self._instance(seed=31)
        slopes = {t: 0.5 + 0.25 * i for i, t in enumerate(sorted(beta))}
        ridge = 0.2
        oracle = {k: -ridge * v for k, v in list(theta.items()) + list(beta.items())}
        for rec in records:
            r = slopes[rec.task]
            p = 1.0 / (1.0 + math.exp(-r * (theta[rec.person] - beta[rec.task])))
            resid = r * ((1.0 if rec.success else 0.0) - p)
            oracle[rec.person] += resid
            oracle[rec.task] -= resid
        g = gradient(records, theta, beta, slope=slopes, ridge=ridge)
        expected = [oracle[k] for k in sorted(theta)] + [oracle[k] for k in sorted(beta)]
        assert g == pytest.approx(expected, abs=1e-12)

    def test_ridge_shifts_gradient_exactly(self):
        records, theta, beta = self._instance(seed=55)
        g0 = gradient(records, theta, beta, ridge=0.0)
        g1 = gradient(records, theta, beta, ridge=0.3)
        w = np.array([theta[k] for k in sorted(theta)] + [beta[k] for k in sorted(beta)])
        assert np.array_equal(g1, g0 - 0.3 * w)

    def test_no_records_gives_the_penalty_gradient(self):
        theta, beta = {"a": 1.0}, {"t": 0.5}
        g = gradient([], theta, beta, ridge=1.0)
        assert g.dtype == np.float64
        assert np.array_equal(g, [-1.0, -0.5])  # -ridge * w
        # the objective it differentiates is -ridge/2 * |w|^2 alone
        assert log_likelihood([], theta, beta, ridge=1.0) == -0.625


class TestFit:
    def test_forced_ordering_two_by_two(self):
        records = make_records(
            [
                ("alice", "t1", True),
                ("alice", "t2", True),
                ("bob", "t1", False),
                ("bob", "t2", False),
            ]
        )
        result = fit_rasch(records)
        assert result.abilities["alice"] > result.abilities["bob"]
        assert result.extreme == {"alice", "bob"}
        assert result.converged

    def test_difficulties_centered(self):
        records, _, _ = synthetic(6, 4, seed=31)
        result = fit_rasch(records)
        assert abs(sum(result.difficulties.values())) < 1e-10

    def test_permutation_invariance_bit_for_bit(self):
        records, _, _ = synthetic(8, 5, seed=13)
        forward = fit_rasch(records)
        backward = fit_rasch(list(reversed(records)))
        assert forward.abilities == backward.abilities
        assert forward.difficulties == backward.difficulties
        assert forward.log_likelihood == backward.log_likelihood
        assert forward.iterations == backward.iterations

    def test_objective_trace_is_nondecreasing(self):
        records, _, _ = synthetic(10, 6, seed=903)
        result = fit_rasch(records)
        trace = result.objective_trace
        assert len(trace) >= 2
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_shift_of_true_logits_changes_nothing_pairwise(self):
        base_records, theta, beta = synthetic(6, 5, seed=47)
        fit_a = fit_rasch(base_records)
        # shifting every generating logit by a constant leaves every
        # success probability, hence the data and the fit, unchanged
        shifted = [OutcomeRecord(r.person, r.task, r.success) for r in base_records]
        fit_b = fit_rasch(shifted)
        for p in theta:
            for t in beta:
                a = fit_a.abilities[p] - fit_a.difficulties[t]
                b = fit_b.abilities[p] - fit_b.difficulties[t]
                assert abs(a - b) < 1e-6

    # ace passes every task: an all-success identifier
    ACE = [("ace", "t1", True), ("ace", "t2", True), ("bob", "t1", True), ("bob", "t2", False)]

    def test_unpenalized_extremes_warn(self):
        with pytest.warns(RuntimeWarning, match="diverges"):
            result = fit_rasch(make_records(self.ACE), ridge=0.0, max_iter=50)
        assert "ace" in result.extreme

    def test_penalized_extremes_flagged_without_warning(self):
        result = fit_rasch(make_records(self.ACE), ridge=0.01)
        assert "ace" in result.extreme
        assert result.converged

    def test_disconnected_data_warns(self):
        records = read_outcome_csv(io.StringIO(WARNED["disconnected"].text))
        with pytest.warns(RuntimeWarning, match="disconnected"):
            result = fit_rasch(records)
        assert not result.connected

    def test_warnings_name_the_caller_of_fit_rasch(self):
        records = read_outcome_csv(io.StringIO(WARNED["all_success"].text))
        for fit, filename in (
            (lambda: fit_rasch(records, ridge=0.0), __file__),
            (lambda: RaschEstimator(ridge=0.0).fit(records), estimate.__file__),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit()
            assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, filename)] * 2
            assert [str(w.message) for w in caught] == WARNED["all_success"].warnings

    def test_reported_likelihood_is_unpenalized(self):
        records, _, _ = synthetic(5, 4, seed=7)
        result = fit_rasch(records)
        direct = log_likelihood(
            records, result.abilities, result.difficulties, ridge=0.0
        )
        assert result.log_likelihood == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("slope", [1.0, 1.7, {f"t{j:03d}": 0.5 + 0.3 * j for j in range(4)}])
    def test_reported_likelihood_is_the_public_one_exactly(self, slope):
        records, _, _ = synthetic(6, 4, seed=11)
        result = fit_rasch(records, slope=slope, ridge=0.05)
        direct = log_likelihood(
            records, result.abilities, result.difficulties, slope, ridge=0.0
        )
        assert result.log_likelihood == direct

    def test_small_recovery(self):
        records, theta, beta = synthetic(50, 20, seed=2025)
        result = fit_rasch(records)
        assert result.converged
        shift = sum(beta.values()) / len(beta)
        true = np.array([theta[p] - shift for p in sorted(theta)])
        fitted = np.array([result.abilities[p] for p in sorted(theta)])
        r = np.corrcoef(true, fitted)[0, 1]
        assert r > 0.8

    def test_fitted_probabilities_reproduce_task_frequencies(self):
        # at the penalized optimum the mean residual per task is only the
        # tiny ridge pull, far inside sampling noise
        records, _, _ = synthetic(50, 20, seed=314)
        result = fit_rasch(records)
        for t in result.difficulties:
            hits = [r.success for r in records if r.task == t]
            observed = sum(hits) / len(hits)
            predicted = np.mean(
                [
                    sigmoid(result.abilities[r.person] - result.difficulties[t])
                    for r in records
                    if r.task == t
                ]
            )
            assert abs(observed - predicted) < 0.01

    def test_stalled_log_converges(self):
        # A session log the benchmark writes for seed 12: near the optimum a
        # full Newton step lowers the objective by a few ulps, and a line
        # search that demands no loss at all stalled at the iteration cap.
        records = read_outcome_csv(str(DATA / "stall_seed12_session68.csv"))
        tol, ridge = 1e-8, 0.01
        result = fit_rasch(records, max_iter=60)
        assert result.converged and result.iterations < 60
        # First-order condition, record by record: the data gradient minus
        # ridge times the logit is one constant, up to 2 * tol.
        foc = {name: -ridge * value for name, value in result.abilities.items()}
        foc.update({name: -ridge * value for name, value in result.difficulties.items()})
        for r in records:
            resid = r.success - sigmoid(result.abilities[r.person] - result.difficulties[r.task])
            foc[r.person] += resid
            foc[r.task] -= resid
        assert max(foc.values()) - min(foc.values()) <= 2 * tol + 1e-8

    # The logs of fit_logs.SOLVER_PATHS, one per rare path of the solver loop, at their
    # flags: ridge 0 and slope 3.
    @pytest.mark.parametrize("log", SOLVER_PATHS)
    def test_rare_solver_paths(self, log):
        pinned = SOLVER_PATHS[log]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit_rasch(read_outcome_csv(io.StringIO(pinned.text)), ridge=0.0, slope=3.0)
        assert [str(w.message) for w in caught] == pinned.warnings
        assert (result.iterations, result.converged) == pinned.steps
        trace = result.objective_trace
        assert len(trace) == pinned.steps[0] + 1
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_each_point_is_evaluated_once(self, monkeypatch):
        points = []
        at = _Kernel.at

        def spy(kernel, w):
            points.append(w.tobytes())
            return at(kernel, w)

        monkeypatch.setattr(_Kernel, "at", spy)
        records, _, _ = synthetic(6, 5, seed=3)
        result = fit_rasch(records)
        # The start, each iteration's full step and the gauge-shifted end point.
        assert result.converged and result.iterations > 2
        assert len(points) == len(set(points)) == result.iterations + 2
        points.clear()
        records = read_outcome_csv(io.StringIO(SOLVER_PATHS["step_halved"].text))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_rasch(records, ridge=0.0, slope=3.0)
        # Each halving adds one candidate, evaluated once.
        assert len(points) == len(set(points)) > result.iterations + 2

    def test_ids_that_differ_by_a_trailing_nul_stay_apart(self):
        records = make_records([("a", "t", True), ("a\0", "t", False), ("a", "t\0", False)])
        result = fit_rasch(records)
        assert list(result.abilities) == ["a", "a\0"]
        assert list(result.difficulties) == ["t", "t\0"]
        assert result.abilities["a"] > result.abilities["a\0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rasch([])
        records = make_records([("a", "t", True)])
        with pytest.raises(ValueError):
            fit_rasch(records, ridge=-1.0)
        with pytest.raises(ValueError):
            fit_rasch(records, max_iter=0)
        with pytest.raises(ValueError):
            fit_rasch(records, tol=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_ridge_and_slope_are_refused(self, value):
        records = make_records([("a", "t1", True), ("a", "t2", False), ("b", "t1", False)])
        theta, beta = {"a": 0.5, "b": -0.5}, {"t1": 0.0, "t2": 1.0}
        calls = [
            lambda **kw: fit_rasch(records, **kw),
            lambda **kw: log_likelihood(records, theta, beta, **kw),
            lambda **kw: gradient(records, theta, beta, **kw),
        ]
        for call in calls:
            for name in ("ridge", "slope"):
                with pytest.raises(ValueError, match=rf"^{name} must be nonnegative and finite, got"):
                    call(**{name: value})
        with pytest.raises(ValueError, match="^slope must be nonnegative and finite"):
            fit_rasch(records, slope={"t1": 1.0, "t2": value})
        est = RaschEstimator().fit(records)
        est.set_params(slope=value)
        with pytest.raises(ValueError, match="^slope must be nonnegative and finite"):
            est.predict_proba("a", "t1")
        with pytest.raises(ValueError, match="^ridge must be nonnegative and finite"):
            RaschEstimator(ridge=value).fit(records)

    @pytest.mark.parametrize("slope", [np.nextafter(1e144, np.inf), 2e154, 1e308, {"t1": 1.0, "t2": 1e200}])
    def test_a_slope_past_the_bound_is_refused(self, slope):
        records = make_records([("a", "t1", True), ("a", "t2", False), ("b", "t1", False)])
        theta, beta = {"a": 0.5, "b": -0.5}, {"t1": 0.0, "t2": 1.0}
        calls = [
            lambda: fit_rasch(records, slope=slope),
            lambda: log_likelihood(records, theta, beta, slope=slope),
            lambda: gradient(records, theta, beta, slope=slope),
            lambda: RaschEstimator(slope=slope).fit(records),
            lambda: RaschEstimator().fit(records).set_params(slope=slope).predict_proba("a", "t2"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^slope must be at most 1e\+144, got \d"):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ridge", [0.0, 0.01])
    @pytest.mark.parametrize("attempts", [1, 1000])
    def test_the_largest_slope_fits_without_a_numpy_warning(self, ridge, attempts):
        # n * slope**2 overflowed in the Newton step from slope 1.35e154 at n = 1.
        rows = [("a", "t1", True), ("a", "t2", False), ("b", "t1", False), ("b", "t2", True),
                ("c", "t1", True), ("c", "t2", False)]
        records = make_records(rows + [("a", "t1", i % 3 == 0) for i in range(attempts)])
        result = fit_rasch(records, slope=1e144, ridge=ridge)
        values = [*result.abilities.values(), *result.difficulties.values(), result.log_likelihood]
        assert all(math.isfinite(v) for v in values)
        assert math.isfinite(log_likelihood(records, result.abilities, result.difficulties, 1e144, ridge))
        assert np.isfinite(gradient(records, result.abilities, result.difficulties, 1e144, ridge)).all()

    def test_record_validation(self):
        with pytest.raises(ValueError):
            OutcomeRecord("", "t", True)
        with pytest.raises(ValueError):
            OutcomeRecord("p", "", True)


def dense_hessian(kernel, p):
    """The (persons + tasks) square Hessian of the kernel's objective, entry by entry."""
    size = kernel.n_p + kernel.n_t
    h = [[0.0] * size for _ in range(size)]
    for i in range(size):
        h[i][i] = -kernel.ridge
    for a, b, n, r, q in zip(kernel.cp, kernel.n_p + kernel.ct, kernel.n, kernel.r, p):
        info = n * r * r * q * (1.0 - q)
        h[a][b] += info
        h[b][a] += info
        h[a][a] -= info
        h[b][b] -= info
    return np.array(h)


class TestNewtonStep:
    @pytest.mark.parametrize("n_persons,n_tasks", [(9, 4), (4, 9), (6, 6)])
    @pytest.mark.parametrize("per_task_slope", [False, True])
    def test_matches_dense_solve(self, n_persons, n_tasks, per_task_slope):
        rng = SplitMix64(7 * n_persons + n_tasks)
        persons = [f"p{i}" for i in range(n_persons)]
        tasks = [f"t{j}" for j in range(n_tasks)]
        # Repeated and missing cells: some cells hold several attempts.
        records = [
            OutcomeRecord(p, t, rng.random() < 0.6)
            for p in persons
            for t in tasks
            for _ in range(int(3 * rng.random()))
        ]
        slope = {t: 0.5 + j * 0.25 for j, t in enumerate(tasks)} if per_task_slope else 1.3
        kernel = _Kernel(estimate._log(_columns(records), persons, tasks), slope, 0.05)
        w = np.array([-2.0 + 4.0 * rng.random() for _ in range(n_persons + n_tasks)])
        _, _, g, p = kernel.at(w)
        expected = -np.linalg.solve(dense_hessian(kernel, p), g)
        np.testing.assert_allclose(kernel.newton(g, p), expected, rtol=1e-10)

    @pytest.mark.parametrize(
        "pairs",
        [
            [("ace", "t1", True), ("ace", "t2", True), ("ace", "t3", True), ("bob", "t1", False)],
            [("ace", "t1", True), ("bob", "t1", True), ("cat", "t1", False), ("cat", "t2", True)],
        ],
    )
    def test_unpenalized_extreme_warns_without_error(self, pairs):
        with pytest.warns(RuntimeWarning, match="diverges"):
            result = fit_rasch(make_records(pairs), ridge=0.0, max_iter=50)
        assert "ace" in result.extreme
        assert all(math.isfinite(v) for v in result.abilities.values())


def zero_start_fit(kernel, tol, max_iter=500):
    """Reference: damped Newton on the kernel from w = 0, gauge-fixed as ``_fit`` does.

    Each step is ``_Kernel.newton``'s, or the gradient where that fails, halved until
    the objective does not fall; the loop stops at ``tol`` or when no step is taken.
    """
    w = np.zeros(kernel.n_p + kernel.n_t)
    _, obj, g, p = kernel.at(w)
    for _ in range(max_iter):
        if np.abs(g).max() < tol:
            break
        try:
            step = kernel.newton(g, p)
        except np.linalg.LinAlgError:
            step = g
        step = step if np.isfinite(step).all() else g
        t = 1.0
        while t > 1e-12:
            cand_obj, cand_g, cand_p = kernel.at(w + t * step)[1:]
            if cand_obj >= obj:
                w, obj, g, p = w + t * step, cand_obj, cand_g, cand_p
                break
            t *= 0.5
        else:
            break
    return w - w[kernel.n_p :].mean()


# (records, slope, ridge) fitted from the marginal-logit start and from zero.
STARTS = {
    "scalar_slope": (synthetic(8, 5, seed=13)[0], 1.7, 0.01),
    "slope_mapping": (synthetic(6, 4, seed=11)[0], {f"t{j:03d}": 0.5 + 0.3 * j for j in range(4)}, 0.05),
    "slope_zero": (synthetic(5, 4, seed=5)[0], 0.0, 0.01),
    # with a person who passes every task: an all-success identifier
    "ridge_zero_extreme": (
        synthetic(7, 4, seed=21)[0] + [OutcomeRecord("ace", f"t{j:03d}", True) for j in range(4)], 1.0, 0.0
    ),
    "one_record": ([OutcomeRecord("a", "t", True)], 1.0, 0.01),
    # two components, each with its own persons and tasks, and no extreme identifier
    "ridge_zero_disconnected": (
        synthetic(6, 5, seed=6, spread=1.0)[0]
        + [OutcomeRecord("q" + r.person, "u" + r.task, r.success) for r in synthetic(5, 4, seed=5, spread=1.0)[0]],
        1.0,
        0.0,
    ),
}


class TestStart:
    TOL = 1e-10

    def fit(self, records, slope, ridge):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the unpenalized extremes
            return fit_rasch(records, slope=slope, ridge=ridge, tol=self.TOL)

    @pytest.mark.parametrize("case", STARTS)
    def test_the_fit_reaches_the_zero_start_optimum(self, case):
        records, slope, ridge = STARTS[case]
        result = self.fit(records, slope, ridge)
        persons, tasks = sorted(result.abilities), sorted(result.difficulties)
        kernel = _Kernel(estimate._log(_columns(records), persons, tasks), slope, ridge)
        w = np.array([result.abilities[k] for k in persons] + [result.difficulties[k] for k in tasks])
        reference = zero_start_fit(kernel, self.TOL)
        objective, reference_objective = kernel.at(w)[1], kernel.at(reference)[1]
        assert result.converged
        assert objective == pytest.approx(reference_objective, rel=1e-9, abs=0.0)
        if ridge or result.connected and not result.extreme:  # the optimum is unique
            np.testing.assert_allclose(w, reference, rtol=0.0, atol=1e-6)
        elif not result.extreme:
            # Each component keeps the offset it started at: only gaps within a component,
            # such as those of its cells, are unique.
            a, b = kernel.cp, kernel.n_p + kernel.ct
            np.testing.assert_allclose(w[a] - w[b], reference[a] - reference[b], rtol=0.0, atol=1e-6)
        # else the extremes diverge, each fit stopping where it may
        # The fit stopped with its gradient below tol; the gauge shift then added the same
        # ridge * offset to every component, which half the gradient's spread does not see.
        g = gradient(records, result.abilities, result.difficulties, slope, ridge)
        assert ((g.max() - g.min()) / 2 if ridge else np.abs(g).max()) < self.TOL

    @pytest.mark.parametrize("case", STARTS)
    def test_the_start_keeps_the_fit_permutation_invariant(self, case):
        records, slope, ridge = STARTS[case]
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert self.fit(shuffled, slope, ridge) == self.fit(records, slope, ridge)


def reference_at(kernel, w):
    """``_Kernel.at`` as first written: two logaddexp calls, two divisions and np.r_ sums."""
    z = kernel.r * (w[kernel.cp] - w[kernel.n_p + kernel.ct])
    ll = -(kernel.y * np.logaddexp(0.0, -z) + (kernel.n - kernel.y) * np.logaddexp(0.0, z)).sum()
    ez = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    v = kernel.r * (kernel.y - kernel.n * p)
    g = np.r_[np.bincount(kernel.cp, v, kernel.n_p), np.bincount(kernel.ct, v, kernel.n_t)].astype(float)
    g[kernel.n_p :] *= -1.0
    return ll, ll - 0.5 * kernel.ridge * float(w @ w), g - kernel.ridge * w, p


EDGE_Z = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0]


@st.composite
def kernels_at(draw):
    """A kernel and logits whose cells reach z = 0, -0, +/-1e-300, +/-745 and +/-800.

    Each cell has its own person, whose ability is set so that z is near a drawn
    gap; a difficulty of +/-0 and slopes from 0 up to ``_MAX_SLOPE`` make the
    edges exact for some cells.
    """
    n_tasks = draw(st.integers(1, 4))
    rates = st.sampled_from([0.0, 1e-300, 1.0, estimate._MAX_SLOPE]) | st.floats(0.0, estimate._MAX_SLOPE)
    if draw(st.booleans()):
        slopes = [draw(rates) for _ in range(n_tasks)]
        slope = {f"t{j}": r for j, r in enumerate(slopes)}
    else:
        slope = draw(rates)
        slopes = [slope] * n_tasks
    difficulty = [draw(st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0)) for _ in range(n_tasks)]
    gaps = st.sampled_from(EDGE_Z) | st.floats(-1e3, 1e3)
    cells = draw(st.lists(
        st.tuples(st.integers(0, n_tasks - 1), gaps, st.integers(0, 3), st.integers(0, 3)), max_size=6
    ))
    # A few generic gaps too, so that one cell's last bit shows in the sum: a vector
    # log1p(exp(-|z|)) rounds otherwise in about one such cell in ten.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0 if cells else 1, 3))
    counts = rng.integers(0, 4, (2, k)).tolist()
    cells += zip(rng.integers(0, n_tasks, k).tolist(), rng.normal(0.0, 1.0, k).tolist(), *counts)
    pairs, ability = [], []
    for i, (j, gap, wins, losses) in enumerate(cells):
        pairs += [(f"p{i}", f"t{j}", True)] * wins + [(f"p{i}", f"t{j}", False)] * max(losses, wins == 0)
        shifted = difficulty[j] + gap / slopes[j] if slopes[j] else gap
        ability.append(shifted if abs(shifted) <= 1e6 else gap)  # |w|^2 stays finite
    persons, tasks = [f"p{i}" for i in range(len(cells))], [f"t{j}" for j in range(n_tasks)]
    kernel = _Kernel(
        estimate._log(_columns(make_records(pairs)), persons, tasks), slope, draw(st.sampled_from([0.0, 0.01, 1.0]))
    )
    return kernel, np.array(ability + difficulty)


def bits(values):
    return [np.asarray(v, float).tobytes() for v in values]


class TestKernelAt:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(kernels_at())
    def test_same_bits_as_the_reference(self, case):
        kernel, w = case
        assert bits(kernel.at(w)) == bits(reference_at(kernel, w))


def bfs_connected(cells, n_persons, n_tasks):
    """Oracle: breadth-first search from person 0 over an adjacency dict."""
    adjacent = {("p", i): set() for i in range(n_persons)} | {("t", j): set() for j in range(n_tasks)}
    for i, j in cells:
        adjacent["p", i].add(("t", j))
        adjacent["t", j].add(("p", i))
    seen, queue = {("p", 0)}, deque([("p", 0)])
    while queue:
        for node in adjacent[queue.popleft()] - seen:
            seen.add(node)
            queue.append(node)
    return len(seen) == len(adjacent)


def kernel_of(cells, n_persons, n_tasks):
    """The kernel of one record per (person index, task index) cell."""
    persons = [f"p{i:06d}" for i in range(n_persons)]
    tasks = [f"t{j:06d}" for j in range(n_tasks)]
    columns = [persons[i] for i, _ in cells], [tasks[j] for _, j in cells], [True] * len(cells)
    return _Kernel(estimate._log(columns, persons, tasks), 1.0, 0.0)


@st.composite
def graphs(draw):
    """Bipartite graphs in which every person and task has a cell, as in a fit."""
    n_persons, n_tasks = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    person, task = st.integers(0, n_persons - 1), st.integers(0, n_tasks - 1)
    cells = [(i, draw(task)) for i in range(n_persons)] + [(draw(person), j) for j in range(n_tasks)]
    cells += draw(st.lists(st.tuples(person, task), max_size=12))
    return cells, n_persons, n_tasks


def chain(n_nodes, seed):
    """A path through n_nodes persons and tasks, alternating, in a shuffled order."""
    rng = np.random.default_rng(seed)
    p, t = rng.permutation(n_nodes // 2).tolist(), rng.permutation(n_nodes // 2).tolist()
    cells = list(zip(p, t)) + list(zip(p[1:], t[:-1]))
    return cells, n_nodes // 2, n_nodes // 2


class TestConnected:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(graphs())
    def test_matches_breadth_first_search(self, graph):
        assert kernel_of(*graph).connected() is bfs_connected(*graph)

    def test_shuffled_chain(self):
        cells, n_persons, n_tasks = chain(10**5, seed=3)
        assert kernel_of(cells, n_persons, n_tasks).connected() is True
        # Cutting one link in the middle leaves two paths.
        cut = cells[: len(cells) // 2] + cells[len(cells) // 2 + 1 :]
        assert kernel_of(cut, n_persons, n_tasks).connected() is False

    @pytest.mark.parametrize(
        "cells,n_persons,n_tasks",
        [
            ([(i, 0) for i in range(1000)], 1000, 1),  # one task, many persons
            ([(i, 999) for i in range(1000)] + [(0, j) for j in range(999)], 1000, 1000),
            ([(0, j) for j in range(1000)], 1, 1000),  # one person with many tasks
            ([(999, j) for j in range(1000)] + [(i, 0) for i in range(999)], 1000, 1000),
        ],
        ids=["task_star", "late_task_star", "person_star", "late_person_star"],
    )
    def test_stars(self, cells, n_persons, n_tasks):
        assert bfs_connected(cells, n_persons, n_tasks)
        assert kernel_of(cells, n_persons, n_tasks).connected() is True

    def test_two_components(self):
        block = [(i, j) for i in range(50) for j in range(20)]
        cells = block + [(50 + i, 20 + j) for i, j in block]
        assert kernel_of(cells, 100, 40).connected() is False
        cells.append((0, 39))
        assert kernel_of(cells, 100, 40).connected() is True

    @pytest.mark.parametrize(
        "pairs",
        [
            [("a", "t1"), ("b", "t2")],
            [("a", "t1"), ("b", "t1"), ("c", "t2"), ("d", "t3"), ("d", "t2")],
            [("a", "t2"), ("b", "t1"), ("c", "t3"), ("c", "t1")],
            [("a", "t2"), ("b", "t1"), ("c", "t3"), ("c", "t1"), ("b", "t2")],
        ],
    )
    def test_fit_reports_it_and_warns_only_when_disconnected(self, pairs):
        records = make_records([(p, t, s) for p, t in pairs for s in (True, False)])
        persons, tasks = sorted({p for p, _ in pairs}), sorted({t for _, t in pairs})
        cells = [(persons.index(p), tasks.index(t)) for p, t in pairs]
        expected = bfs_connected(cells, len(persons), len(tasks))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fit_rasch(records).connected is expected
        assert [str(w.message) for w in caught] == ([] if expected else [DISCONNECTED])


class TestEstimatorApi:
    def test_params_roundtrip(self):
        est = RaschEstimator(slope=2.0, ridge=0.1, max_iter=100, tol=1e-6)
        assert est.get_params() == {
            "slope": 2.0,
            "ridge": 0.1,
            "max_iter": 100,
            "tol": 1e-6,
        }
        est.set_params(ridge=0.2, max_iter=50)
        assert est.ridge == 0.2
        assert est.max_iter == 50

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            RaschEstimator().set_params(gamma=1.0)

    def test_fit_exposes_attributes(self):
        records, _, _ = synthetic(6, 4, seed=88)
        est = RaschEstimator().fit(records)
        assert est.converged_
        assert set(est.abilities_) == {r.person for r in records}
        assert set(est.difficulties_) == {r.task for r in records}
        assert est.n_iter_ == est.result_.iterations
        assert est.connected_

    def test_predict_proba(self):
        records, _, _ = synthetic(6, 4, seed=88)
        est = RaschEstimator(slope=1.5).fit(records)
        p = est.predict_proba("p000", "t000")
        expected = sigmoid(1.5 * (est.abilities_["p000"] - est.difficulties_["t000"]))
        assert p == pytest.approx(expected, abs=1e-15)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RaschEstimator().predict_proba("a", "t")

    def test_unknown_ids_raise(self):
        records, _, _ = synthetic(3, 3, seed=4)
        est = RaschEstimator().fit(records)
        with pytest.raises(KeyError):
            est.predict_proba("nobody", "t000")

    def test_unknown_task_raises(self):
        records, _, _ = synthetic(3, 3, seed=4)
        est = RaschEstimator().fit(records)
        with pytest.raises(KeyError, match="unknown task 'nothing'"):
            est.predict_proba("p000", "nothing")


class TestOutcomeCsv:
    def test_read_good_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("person,task,success\na,t1,1\nb,t1,0\n")
        records = read_outcome_csv(str(path))
        assert records == [
            OutcomeRecord("a", "t1", True),
            OutcomeRecord("b", "t1", False),
        ]

    def test_read_from_stream(self):
        records = read_outcome_csv(io.StringIO("person,task,success\nx,y,1\n"))
        assert records == [OutcomeRecord("x", "y", True)]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            read_outcome_csv(io.StringIO("who,what,result\na,t,1\n"))

    def test_bad_success_value(self):
        with pytest.raises(ValueError, match="line 3"):
            read_outcome_csv(io.StringIO("person,task,success\na,t,1\nb,t,yes\n"))

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 2"):
            read_outcome_csv(io.StringIO("person,task,success\na,t\n"))

    def test_empty_identifier(self):
        with pytest.raises(ValueError, match="line 2"):
            read_outcome_csv(io.StringIO("person,task,success\n,t,1\n"))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            read_outcome_csv(io.StringIO(""))

    def test_field_past_the_csv_limit_names_its_line(self):
        limit = csv.field_size_limit()
        text = "person,task,success\na,t,1\nb," + "t" * (limit + 1) + ",0\n"
        with pytest.raises(ValueError, match=rf"^line 3: field larger than field limit \({limit}\)$"):
            read_outcome_csv(io.StringIO(text))

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_an_error_names_the_line_its_record_ends_on(self, data):
        # Identifiers hold quoted newlines, so records and lines are counted apart.
        ids = st.text(alphabet='ab \n,"', min_size=1).filter(str.strip)
        bit = st.sampled_from(["0", "1", " 1"])
        good = st.one_of(st.tuples(ids, ids, bit), st.just(()))  # () is a blank line
        bad = st.one_of(
            st.tuples(ids, ids),
            st.tuples(ids, ids, bit, ids),
            st.tuples(ids, ids, st.sampled_from(["maybe", "ye\ns", "2"])),
            st.tuples(st.sampled_from(["", " ", "\n", " \n "]), ids, bit),
            st.tuples(ids, st.sampled_from(["", "\n"]), bit),
        )
        head, tail = io.StringIO(), io.StringIO()
        csv.writer(head, lineterminator="\n").writerows(
            [("person", "task", "success"), *data.draw(st.lists(good, max_size=4)), data.draw(bad)]
        )
        csv.writer(tail, lineterminator="\n").writerows(data.draw(st.lists(good, max_size=2)))
        line = head.getvalue().count("\n")  # the bad record's last line
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            read_outcome_csv(io.StringIO(head.getvalue() + tail.getvalue()))

    def test_header_error_names_the_line_it_ends_on(self):
        with pytest.raises(ValueError, match="^line 2: expected header"):
            read_outcome_csv(io.StringIO('"per\nson",task,success\na,t,1\n'))

    def test_blank_lines_skipped(self):
        records = read_outcome_csv(io.StringIO("person,task,success\na,t,1\n\n"))
        assert len(records) == 1


# Id bytes that a plain log may hold: printable ASCII other than the quote and the comma.
PLAIN_ID = st.text("".join(chr(c) for c in range(0x21, 0x7F) if chr(c) not in '",'), min_size=1, max_size=8)
RENDERINGS = [
    "plain", "bom", "crlf", "quoted", "padded", "blank_line", "no_final_newline", "nine_bytes",
    "non_ascii", "bad_utf8", "two_fields", "four_fields", "success", "empty_id",
]


@st.composite
def rendered_logs(draw):
    """A random log of plain ids, rendered plainly or with one perturbation at one field."""
    rows = draw(st.lists(st.tuples(PLAIN_ID, PLAIN_ID, st.sampled_from("01")), min_size=1, max_size=12))
    how = draw(st.sampled_from(RENDERINGS))
    lines = [["person", "task", "success"], *map(list, rows)]
    at = draw(st.integers(1, len(rows)))
    row, field = lines[at], draw(st.integers(0, 1))
    if how == "quoted":
        row[field] = f'"{row[field]}"'
    elif how == "padded":  # \x1c is whitespace to str.strip, not to bytes.strip
        row[draw(st.integers(0, 2))] += draw(st.sampled_from([" ", "\t", "\x1c"]))
    elif how == "nine_bytes":
        row[field] = (row[field] * 9)[:9]
    elif how == "non_ascii":
        row[field] += "\xe9"
    elif how == "bad_utf8":
        row[field] += "\udcff"  # written as the lone byte 0xff
    elif how == "two_fields":
        del row[2]
    elif how == "four_fields":
        row.append(row[2])
    elif how == "success":
        row[2] = draw(st.sampled_from(["2", " 1"]))
    elif how == "empty_id":
        row[field] = ""
    elif how == "blank_line":
        lines.insert(at + 1, [])
    text = "".join(",".join(line) + "\n" for line in lines)
    whole = {"bom": "\ufeff" + text, "crlf": text.replace("\n", "\r\n"), "no_final_newline": text[:-1]}
    text = whole.get(how, text)
    return how, text.encode("utf-8", "surrogateescape")


def read_outcome(read, path):
    """What ``read`` makes of a log file: its ids, codes and successes, or its error text."""
    try:
        log = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return log.persons, log.tasks, [a.dtype.str + a.tobytes().hex() for a in (log.pi, log.ti, log.success)]


class TestPlainLog:
    @settings(
        max_examples=500, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rendered_logs())
    def test_reads_what_the_csv_reader_reads(self, tmp_path, case):
        how, data = case
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        if how in ("plain", "bom"):
            assert estimate._plain_log(data) is not None
        expected = read_outcome(lambda p: estimate._log(estimate._read_columns(p)), str(path))
        assert read_outcome(estimate._read_log, str(path)) == expected

    def test_a_benchmark_log_takes_the_numpy_path(self, tmp_path):
        path = tmp_path / "log.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["person", "task", "success"])
            w.writerows(
                (f"p{i:05d}", f"t{j:04d}", (i * j) % 3 % 2) for i in range(40) for j in range(0, 500, 7)
            )
        assert estimate._plain_log(path.read_bytes()) is not None
        expected = read_outcome(lambda p: estimate._log(estimate._read_columns(p)), str(path))
        assert read_outcome(estimate._read_log, str(path)) == expected

    def test_an_id_past_a_lowered_field_limit_takes_the_csv_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("person,task,success\na,task5678,1\n")  # "success" fits a limit of 7
        limit = csv.field_size_limit(7)
        try:
            assert estimate._plain_log(path.read_bytes()) is None
            with pytest.raises(ValueError, match=r"^line 2: field larger than field limit \(7\)$"):
                estimate._read_log(str(path))
        finally:
            csv.field_size_limit(limit)


class TestFitResultJson:
    def test_schema_keys(self):
        records, _, _ = synthetic(3, 2, seed=60)
        result = fit_rasch(records)
        payload = json.loads(result.to_json())
        assert list(payload) == [
            "abilities",
            "difficulties",
            "log_likelihood",
            "converged",
            "iterations",
            "extreme",
        ]
        assert isinstance(payload["extreme"], list)

    def test_roundtrip(self):
        records, _, _ = synthetic(3, 2, seed=61)
        result = fit_rasch(records)
        back = FitResult.from_json(result.to_json())
        assert back.abilities == result.abilities
        assert back.difficulties == result.difficulties
        assert back.converged == result.converged
        assert back.iterations == result.iterations

    def test_digit_rounding(self):
        result = FitResult(
            abilities={"a": 0.12345678901234567},
            difficulties={"t": 0.0},
            log_likelihood=-1.23456789012345678,
            iterations=3,
            converged=True,
            extreme=frozenset(),
            connected=True,
        )
        payload = json.loads(result.to_json(digits=4))
        assert payload["abilities"]["a"] == 0.1235
