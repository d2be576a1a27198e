"""Odds updating, reliability discounting and evidence grading."""

import math

import pytest
from hypothesis import given, strategies as st

from skillcheck.evidence import (
    GRADE_BOUNDARIES,
    GRADE_LABELS,
    jeffreys_grade,
    update,
    update_reliable,
    weight_of_evidence,
)
from skillcheck.logistic import odds_to_prob, rasch_ratio

factors = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
skills = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestUpdate:
    def test_skill_against_difficulty(self):
        a, x = 6.0, 2.5
        assert update(1.0, [a, 1.0 / x]) == pytest.approx(a / x, rel=1e-12)

    def test_empty_factors_keep_prior(self):
        assert update(3.25, []) == 3.25

    def test_batch_equals_product(self):
        assert update(1.0, [3.0, 4.0]) == pytest.approx(12.0, rel=1e-12)

    def test_batch_equals_sequential(self):
        sequential = update(update(1.0, [3.0]), [4.0])
        assert update(1.0, [3.0, 4.0]) == pytest.approx(sequential, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.lists(factors, max_size=6))
    def test_fold_matches_batch_in_log_odds(self, prior, fs):
        folded = prior
        for f in fs:
            folded = update(folded, [f])
        batch = update(prior, fs)
        assert math.log(batch) == pytest.approx(math.log(folded), abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3), factors)
    def test_reciprocal_factors_cancel(self, prior, f):
        assert update(prior, [f, 1.0 / f]) == pytest.approx(prior, rel=1e-12)

    def test_impossible_prior_stays_impossible(self):
        assert update(0.0, [100.0, 3.0]) == 0.0

    def test_certain_prior_stays_certain(self):
        assert update(math.inf, [0.001]) == math.inf

    def test_overflow_gives_infinite_odds(self):
        assert update(1.0, [1e200, 1e200]) == math.inf
        assert update(1e-300, [1e-200, 1e-200]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            update(-1.0, [2.0])
        with pytest.raises(ValueError):
            update(1.0, [0.0])
        with pytest.raises(ValueError):
            update(1.0, [2.0, -3.0])


class TestUpdateReliable:
    def test_zero_reliability_ignores_evidence(self):
        assert update_reliable(2.5, 100.0, 0.0) == 2.5

    def test_full_reliability_is_plain_update(self):
        assert update_reliable(2.0, 7.0, 1.0) == pytest.approx(
            update(2.0, [7.0]), rel=1e-12
        )

    def test_square_root_discount(self):
        # 100 ** 0.5 worked out independently
        assert update_reliable(1.0, 100.0, 0.5) == pytest.approx(
            math.sqrt(100.0), rel=1e-12
        )

    def test_impossible_prior(self):
        assert update_reliable(0.0, 10.0, 0.5) == 0.0

    def test_overflow_gives_infinite_odds(self):
        assert update_reliable(1.0, 1e200, 3.0) == math.inf

    @pytest.mark.parametrize("reliability", [math.nan, math.inf, -math.inf])
    def test_non_finite_reliability_rejected(self, reliability):
        with pytest.raises(ValueError, match="reliability must be finite"):
            update_reliable(1.0, 1.0, reliability)

    def test_validation(self):
        with pytest.raises(ValueError):
            update_reliable(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            update_reliable(-0.5, 2.0, 0.5)


class TestWeightOfEvidence:
    def test_neutral(self):
        assert weight_of_evidence(1.0) == 0.0

    def test_factor_of_ten(self):
        assert weight_of_evidence(10.0) == 1.0

    @given(factors)
    def test_for_equals_minus_against(self, f):
        assert weight_of_evidence(f) == pytest.approx(
            -weight_of_evidence(1.0 / f), abs=1e-12
        )

    def test_additive_under_combination(self):
        assert weight_of_evidence(10.0 * 100.0) == pytest.approx(
            weight_of_evidence(10.0) + weight_of_evidence(100.0), abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_of_evidence(0.0)


class TestJeffreysGrade:
    @pytest.mark.parametrize(
        "factor,grade",
        [
            (0.5, 0),
            (2.0, 1),
            (5.0, 2),
            (30.0, 3),
            (50.0, 4),
            (1000.0, 5),
        ],
    )
    def test_band_interiors(self, factor, grade):
        result = jeffreys_grade(factor)
        assert result.grade == grade
        assert result.label == GRADE_LABELS[grade]

    def test_grade_zero_label(self):
        assert jeffreys_grade(0.5).label == "against the hypothesis"

    def test_boundaries_go_to_higher_grade(self):
        assert jeffreys_grade(1.0).grade == 1
        assert jeffreys_grade(10.0**0.5).grade == 2
        assert jeffreys_grade(10.0).grade == 3
        assert jeffreys_grade(10.0**1.5).grade == 4
        assert jeffreys_grade(100.0).grade == 5

    def test_monotone_on_log_grid(self):
        grid = [10.0 ** (-4 + 8 * i / 999) for i in range(1000)]
        grades = [jeffreys_grade(f).grade for f in grid]
        assert grades == sorted(grades)
        assert grades[0] == 0 and grades[-1] == 5

    def test_six_labels(self):
        assert len(GRADE_LABELS) == 6
        assert len(GRADE_BOUNDARIES) == 5
        assert len(set(GRADE_LABELS)) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            jeffreys_grade(-2.0)


@given(skills, skills)
def test_odds_pipeline_reproduces_ratio_model(a, x):
    p = odds_to_prob(update(1.0, [a, 1.0 / x]))
    assert p == pytest.approx(rasch_ratio(a, x), abs=1e-12)
