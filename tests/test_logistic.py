"""Scale conversions, the logistic model family and reference CDFs."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from skillcheck.logistic import (
    FourPL,
    logistic_cdf,
    logit,
    normal_cdf,
    odds_to_prob,
    prob_to_odds,
    rasch_ratio,
    sigmoid,
    uniform_cdf,
)

probs = st.floats(min_value=1e-9, max_value=1 - 1e-9, allow_nan=False)
skills = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def normal_cdf_oracle(z: float) -> float:
    """P(Z <= z) by Gauss-Legendre quadrature of the density; no erf."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    half = 0.5 * z
    t = half * nodes + half
    integral = float((np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)) @ weights) * half
    return 0.5 + integral


class TestConversions:
    def test_even_chance(self):
        assert prob_to_odds(0.5) == 1.0
        assert logit(0.5) == 0.0
        assert sigmoid(0.0) == 0.5

    def test_odds_ten(self):
        assert odds_to_prob(10.0) == pytest.approx(10 / 11, abs=1e-15)

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_sigmoid_symmetry(self, t):
        assert sigmoid(-t) + sigmoid(t) == pytest.approx(1.0, abs=1e-12)

    @given(probs)
    def test_roundtrip_through_odds(self, p):
        assert odds_to_prob(prob_to_odds(p)) == pytest.approx(p, abs=1e-12)

    @given(probs)
    def test_roundtrip_through_logit(self, p):
        assert sigmoid(logit(p)) == pytest.approx(p, abs=1e-12)

    @given(st.floats(min_value=-15, max_value=15, allow_nan=False))
    def test_roundtrip_from_logit(self, t):
        # beyond |t| ~ 15 the probability saturates and 1 - p loses the
        # precision needed to recover t this tightly
        assert logit(sigmoid(t)) == pytest.approx(t, abs=1e-8)

    def test_certainty_maps_to_infinite_odds(self):
        assert prob_to_odds(1.0) == math.inf
        assert odds_to_prob(math.inf) == 1.0
        assert prob_to_odds(0.0) == 0.0

    def test_logit_rejects_certainty(self):
        with pytest.raises(ValueError):
            logit(0.0)
        with pytest.raises(ValueError):
            logit(1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            prob_to_odds(1.5)
        with pytest.raises(ValueError):
            prob_to_odds(-0.1)
        with pytest.raises(ValueError):
            odds_to_prob(-1.0)

    def test_sigmoid_is_stable_for_huge_logits(self):
        assert sigmoid(750.0) == 1.0
        assert sigmoid(-750.0) == 0.0


class TestRaschRatio:
    def test_equal_skill_and_difficulty(self):
        assert rasch_ratio(3.7, 3.7) == 0.5

    def test_ten_to_one(self):
        assert rasch_ratio(10.0, 1.0) == pytest.approx(10 / 11, abs=1e-15)

    @pytest.mark.parametrize("k", [2.0, 10.0])
    def test_scale_invariance(self, k):
        assert rasch_ratio(k * 3.0, k * 7.0) == pytest.approx(
            rasch_ratio(3.0, 7.0), abs=1e-12
        )

    @given(skills, skills)
    @example(1.7e308, 1e306)  # a + x overflows
    @example(1e308, 1e-3)
    def test_complement_symmetry(self, a, x):
        assert rasch_ratio(a, x) + rasch_ratio(x, a) == pytest.approx(1.0, abs=1e-12)

    @given(skills, skills)
    @example(1.7e308, 1e306)
    @example(1e-3, 1e308)
    def test_equals_sigmoid_of_log_ratio(self, a, x):
        assert rasch_ratio(a, x) == pytest.approx(
            sigmoid(math.log(a) - math.log(x)), abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rasch_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            rasch_ratio(1.0, -2.0)

    @pytest.mark.parametrize(
        "a,x", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_rejects_non_finite(self, a, x):
        with pytest.raises(ValueError, match="must be positive and finite"):
            rasch_ratio(a, x)

    def test_sum_past_the_float_range(self):
        assert rasch_ratio(1e308, 1e308) == 0.5
        assert rasch_ratio(1.5e308, 0.5e308) == 0.75


fourpl_params = st.tuples(
    st.floats(-15, 15),
    st.floats(-15, 15),
    st.floats(0, 5),
    st.floats(0, 1),
    st.floats(0, 1),
).map(lambda t: FourPL(t[0], t[1], t[2], min(t[3], t[4]), max(t[3], t[4])))


class TestFourPL:
    def test_midpoint(self):
        assert FourPL(ability=1.3, difficulty=1.3).probability() == 0.5

    def test_zero_slope_ignores_skill(self):
        model = FourPL(ability=9.0, difficulty=-4.0, slope=0.0, lower=0.1, upper=0.7)
        flat = FourPL(ability=0.0, difficulty=0.0, slope=0.0, lower=0.1, upper=0.7)
        expected = 0.1 + (0.7 - 0.1) * 0.5
        assert model.probability() == expected
        assert model.probability() == flat.probability()

    # The gap overflows a float. Slope 0 made 0 * inf = nan, and slope 1e-308 made 1.
    @pytest.mark.parametrize("slope,expected", [(0.0, 0.5), (1e-308, sigmoid(2.0))])
    def test_an_overflowing_gap_still_meets_the_slope(self, slope, expected):
        assert FourPL(1e308, -1e308, slope=slope).probability() == pytest.approx(expected, abs=1e-15)
        assert FourPL(-1e308, 1e308, slope=slope).probability() == pytest.approx(1 - expected, abs=1e-15)
        assert FourPL(1e308, -1e308).probability() == 1.0

    def test_guessing_floor(self):
        model = FourPL(ability=-50.0, difficulty=0.0, lower=0.25)
        assert model.probability() == pytest.approx(0.25, abs=1e-10)

    def test_asymptotes_far_out(self):
        up = FourPL(ability=50.0, difficulty=0.0, lower=0.2, upper=0.9)
        down = FourPL(ability=-50.0, difficulty=0.0, lower=0.2, upper=0.9)
        assert up.probability() == pytest.approx(0.9, abs=1e-10)
        assert down.probability() == pytest.approx(0.2, abs=1e-10)

    def test_reduces_to_ratio_model(self):
        a, x = 4.0, 9.0
        model = FourPL(ability=math.log(a), difficulty=math.log(x))
        assert model.probability() == pytest.approx(rasch_ratio(a, x), abs=1e-12)

    @given(fourpl_params)
    def test_complement_symmetry(self, model):
        swapped = FourPL(
            model.difficulty, model.ability, model.slope, model.lower, model.upper
        )
        assert model.probability() + swapped.probability() == pytest.approx(
            model.lower + model.upper, abs=1e-12
        )

    def test_strictly_monotone_when_discriminating(self):
        abilities = [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]
        probs = [
            FourPL(a, 0.3, slope=1.4, lower=0.1, upper=0.95).probability()
            for a in abilities
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        difficulties = [-2.0, 0.0, 1.0, 3.0]
        probs = [
            FourPL(0.2, d, slope=0.8, lower=0.0, upper=1.0).probability()
            for d in difficulties
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            FourPL(0.0, 0.0, slope=-0.1)
        with pytest.raises(ValueError):
            FourPL(0.0, 0.0, lower=0.6, upper=0.4)
        with pytest.raises(ValueError):
            FourPL(0.0, 0.0, upper=1.2)
        with pytest.raises(ValueError):
            FourPL(0.0, 0.0, lower=-0.1)

    def test_from_dict_defaults(self):
        model = FourPL.from_dict({"ability": 1.0, "difficulty": 0.5})
        assert model == FourPL(1.0, 0.5, slope=1.0, lower=0.0, upper=1.0)

    def test_from_dict_full_roundtrip(self):
        model = FourPL(0.3, -0.2, slope=1.7, lower=0.05, upper=0.93)
        assert FourPL.from_dict(model.to_dict()) == model

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            FourPL.from_dict({"ability": 1.0, "difficulty": 0.0, "spin": 3})
        with pytest.raises(ValueError):
            FourPL.from_dict({"ability": 1.0})

    @pytest.mark.parametrize("model", [1, None, [1], "x", 2.5])
    def test_from_dict_rejects_a_non_mapping(self, model):
        with pytest.raises(ValueError, match="^model must be a JSON object$"):
            FourPL.from_dict(model)

    @pytest.mark.parametrize(
        "field,value", [("ability", [1]), ("ability", {}), ("difficulty", None),
                        ("slope", "steep"), ("upper", 10**400)],
    )
    def test_from_dict_names_the_field_float_rejects(self, field, value):
        d = {"ability": 0.0, "difficulty": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^model field {field} must be a number, got "):
            FourPL.from_dict(d)

    def test_from_dict_reports_fields_in_field_order(self):
        # upper comes first in the mapping, but slope is the earlier field
        d = {"upper": "high", "ability": 0.0, "difficulty": 0.0, "slope": "steep"}
        with pytest.raises(ValueError, match="^model field slope must be a number, got 'steep'$"):
            FourPL.from_dict(d)

    def test_to_dict_lists_every_field_in_order(self):
        assert list(FourPL(1.0, 0.5).to_dict().items()) == [
            ("ability", 1.0), ("difficulty", 0.5), ("slope", 1.0), ("lower", 0.0), ("upper", 1.0)
        ]

    def test_from_dict_accepts_numeric_strings_and_booleans(self):
        model = FourPL.from_dict({"ability": "1.5", "difficulty": True, "lower": False})
        assert model == FourPL(1.5, 1.0, lower=0.0)


@pytest.mark.parametrize("field", ["ability", "difficulty", "slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fourpl_rejects_non_finite(field, value):
    params = {"ability": 0.0, "difficulty": 0.0, "slope": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FourPL(**params)


class TestReferenceCdfs:
    def test_midpoints(self):
        assert logistic_cdf(2.0, mean=2.0, scale=3.0) == 0.5
        assert normal_cdf(-1.0, mean=-1.0, sd=2.0) == 0.5
        assert uniform_cdf(0.25, mean=0.25, halfwidth=5.0) == 0.5

    def test_uniform_clamps_exactly(self):
        assert uniform_cdf(-50.0, mean=0.0, halfwidth=50.0) == 0.0
        assert uniform_cdf(50.0, mean=0.0, halfwidth=50.0) == 1.0
        assert uniform_cdf(-51.0, mean=0.0, halfwidth=50.0) == 0.0
        assert uniform_cdf(999.0, mean=0.0, halfwidth=50.0) == 1.0

    def test_normal_cdf_against_quadrature(self):
        # one standard deviation above the mean
        assert normal_cdf(1.0) == pytest.approx(normal_cdf_oracle(1.0), abs=1e-7)
        assert normal_cdf(1.0) == pytest.approx(0.8413, abs=5e-5)
        for z in (-3.0, -0.5, 0.7, 2.5):
            assert normal_cdf(z) == pytest.approx(normal_cdf_oracle(z), abs=1e-7)

    def test_logistic_cdf_matches_sigmoid(self):
        assert logistic_cdf(3.0, mean=1.0, scale=2.0) == sigmoid(1.0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            logistic_cdf(0.0, scale=0.0)
        with pytest.raises(ValueError):
            normal_cdf(0.0, sd=-1.0)
        with pytest.raises(ValueError):
            uniform_cdf(0.0, halfwidth=0.0)

    @pytest.mark.parametrize(
        "cdf,args,message",
        [
            (uniform_cdf, (1.0, 0.0, math.inf), "halfwidth must be positive with 2 * halfwidth finite, got inf"),
            # 2 * halfwidth overflowed, and the midpoint read 0.0
            (uniform_cdf, (0.0, 0.0, 1e308), "halfwidth must be positive with 2 * halfwidth finite, got 1e+308"),
            (normal_cdf, (math.inf, 0.0, 1.3e308), "sd must be positive with sd * sqrt(2) finite, got 1.3e+308"),
            (logistic_cdf, (math.inf, 0.0, math.inf), "scale must be positive and finite, got inf"),
        ],
    )
    def test_a_width_past_a_float_is_refused(self, cdf, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cdf(*args)

    # inf - inf made logistic_cdf and normal_cdf nan, and uniform_cdf read 0.0.
    @pytest.mark.parametrize("cdf", [logistic_cdf, normal_cdf, uniform_cdf])
    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan])
    def test_a_mean_past_a_float_is_refused(self, cdf, mean):
        with pytest.raises(ValueError, match=f"^mean must be finite, got {mean}$"):
            cdf(math.inf, mean, 1.0)

    def test_the_widest_widths_keep_their_midpoint(self):
        assert uniform_cdf(0.0, 0.0, 8.98e307) == 0.5
        assert normal_cdf(0.0, 0.0, 1.27e308) == 0.5
        assert logistic_cdf(0.0, 0.0, 1.79e308) == 0.5
