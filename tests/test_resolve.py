"""Seeded sampling, opposed checks and Elo updates."""

import math

import pytest
from hypothesis import given, strategies as st

from skillcheck.dice import (
    BinomialPool,
    MaxPool,
    SumRollOver,
    UniformRollUnder,
    success_probability,
)
from skillcheck.evidence import update
from skillcheck.logistic import FourPL, odds_to_prob, sigmoid
from skillcheck.resolve import (
    CheckResult,
    Rating,
    SplitMix64,
    elo_expected,
    elo_update,
    opposed,
    opposed_logit,
    resolve_mechanic,
    resolve_model,
    simulate_count,
)


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs of the published reference implementation, seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_uint64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]

    def test_different_seeds_differ(self):
        a, b = SplitMix64(1), SplitMix64(2)
        assert [a.next_uint64() for _ in range(10)] != [b.next_uint64() for _ in range(10)]

    def test_random_unit_interval(self):
        rng = SplitMix64(7)
        draws = [rng.random() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_roll_die_covers_all_faces(self):
        rng = SplitMix64(3)
        rolls = [rng.roll_die(6) for _ in range(5000)]
        assert set(rolls) == {1, 2, 3, 4, 5, 6}

    def test_roll_die_one_side(self):
        rng = SplitMix64(0)
        assert rng.roll_die(1) == 1

    def test_roll_die_validation(self):
        with pytest.raises(ValueError):
            SplitMix64(0).roll_die(0)

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64 + 5).next_uint64() == SplitMix64(5).next_uint64()


class TestResolveModel:
    def test_certain_success(self):
        rng = SplitMix64(11)
        model = FourPL(0.0, 0.0, lower=1.0, upper=1.0)
        assert all(resolve_model(model, rng).success for _ in range(500))

    def test_certain_failure(self):
        rng = SplitMix64(12)
        model = FourPL(0.0, 0.0, lower=0.0, upper=0.0)
        assert not any(resolve_model(model, rng).success for _ in range(500))

    def test_no_raw_roll(self):
        result = resolve_model(FourPL(1.0, 0.0), SplitMix64(1))
        assert isinstance(result, CheckResult)
        assert result.raw_roll is None
        assert result.probability_used == FourPL(1.0, 0.0).probability()

    def test_even_match_frequency(self):
        rng = SplitMix64(2024)
        n = 20000
        hits = simulate_count(FourPL(0.7, 0.7), n, rng)
        sigma = math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < 3 * sigma


class TestResolveMechanic:
    def test_always_succeeds(self):
        rng = SplitMix64(5)
        mech = UniformRollUnder(sides=100, target=100)
        assert all(resolve_mechanic(mech, rng).success for _ in range(300))

    def test_never_succeeds(self):
        rng = SplitMix64(6)
        mech = UniformRollUnder(sides=100, target=0)
        assert not any(resolve_mechanic(mech, rng).success for _ in range(300))

    def test_raw_roll_in_support(self):
        rng = SplitMix64(8)
        mech = SumRollOver(dice=3, sides=6, modifier=0, difficulty=11)
        for _ in range(200):
            result = resolve_mechanic(mech, rng)
            assert 3 <= result.raw_roll <= 18
            assert result.success == (result.raw_roll >= 11)

    def test_3d6_frequency(self):
        rng = SplitMix64(999)
        mech = SumRollOver(dice=3, sides=6, modifier=0, difficulty=11)
        n = 20000
        hits = simulate_count(mech, n, rng)
        sigma = math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < 3 * sigma

    def test_pool_frequency(self):
        rng = SplitMix64(1313)
        mech = BinomialPool(dice=5, sides=10, threshold=6, required=3)
        n = 20000
        p = float(success_probability(mech))
        hits = simulate_count(mech, n, rng)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


class TestSimulateCount:
    def test_matches_individual_model_draws(self):
        model = FourPL(0.4, 0.1)
        batch = simulate_count(model, 1000, SplitMix64(77))
        rng = SplitMix64(77)
        loop = sum(resolve_model(model, rng).success for _ in range(1000))
        assert batch == loop

    def test_matches_individual_mechanic_draws(self):
        mech = MaxPool(dice=2, sides=6, difficulty=5)
        batch = simulate_count(mech, 1000, SplitMix64(78))
        rng = SplitMix64(78)
        loop = sum(resolve_mechanic(mech, rng).success for _ in range(1000))
        assert batch == loop

    def test_zero_trials(self):
        assert simulate_count(FourPL(0.0, 0.0), 0, SplitMix64(1)) == 0

    def test_negative_trials(self):
        with pytest.raises(ValueError):
            simulate_count(FourPL(0.0, 0.0), -1, SplitMix64(1))


class TestOpposed:
    def test_even_match(self):
        assert opposed(2.0, 2.0) == 0.5
        assert opposed_logit(1.3, 1.3) == 0.5

    def test_ten_to_one(self):
        assert opposed(10.0, 1.0) == pytest.approx(10 / 11, abs=1e-15)

    def test_complement(self):
        assert opposed(3.0, 7.0) + opposed(7.0, 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            opposed(0.0, 1.0)
        with pytest.raises(ValueError):
            opposed(1.0, -1.0)

    @given(
        st.floats(min_value=-6, max_value=6),
        st.floats(min_value=-6, max_value=6),
    )
    def test_consistent_with_odds_pipeline(self, ta, tb):
        via_evidence = odds_to_prob(update(1.0, [math.exp(ta), math.exp(-tb)]))
        assert opposed_logit(ta, tb) == pytest.approx(via_evidence, abs=1e-12)

    def test_matches_sigmoid(self):
        assert opposed_logit(1.0, 0.25) == sigmoid(0.75)

    @pytest.mark.parametrize("a,b", [(math.inf, math.inf), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_skills_rejected(self, a, b):
        with pytest.raises(ValueError):
            opposed(a, b)

    @pytest.mark.parametrize(
        "a,b", [(math.inf, math.inf), (-math.inf, -math.inf), (math.nan, 0.0)]
    )
    def test_undefined_logit_gap_rejected(self, a, b):
        with pytest.raises(ValueError):
            opposed_logit(a, b)

    def test_infinite_logit_against_finite_is_certain(self):
        assert opposed_logit(math.inf, 3.0) == 1.0
        assert opposed_logit(3.0, math.inf) == 0.0


class TestElo:
    def test_equal_ratings_win_is_plus_sixteen(self):
        a, b = elo_update(Rating(1600.0, 32.0), Rating(1600.0, 32.0), 1.0)
        assert a.value == 1616.0
        assert b.value == 1584.0

    def test_equal_ratings_draw_changes_nothing(self):
        a, b = elo_update(Rating(1500.0, 32.0), Rating(1500.0, 32.0), 0.5)
        assert a.value == 1500.0
        assert b.value == 1500.0

    def test_four_hundred_points_is_ten_to_one(self):
        assert elo_expected(1800.0, 1400.0) == pytest.approx(10 / 11, abs=1e-12)

    def test_overflowing_gap_gives_the_limit(self):
        assert elo_expected(0.0, 1e6) == 0.0
        assert elo_expected(1e6, 0.0) == 1.0
        a, b = elo_update(Rating(0.0), Rating(1e6), 1.0)
        assert (a.value, b.value) == (32.0, 1e6 - 32.0)

    def test_undefined_gap_rejected(self):
        with pytest.raises(ValueError):
            elo_expected(math.inf, math.inf)

    @pytest.mark.parametrize("value,k", [(math.inf, 32.0), (math.nan, 32.0), (0.0, math.inf)])
    def test_non_finite_rating_rejected(self, value, k):
        with pytest.raises(ValueError, match="finite"):
            Rating(value, k)

    def test_conservation_over_random_updates(self):
        rng = SplitMix64(4242)
        ratings = [Rating(1000.0 + 100.0 * i, 32.0) for i in range(10)]
        for _ in range(2000):
            i = rng.roll_die(10) - 1
            j = rng.roll_die(10) - 1
            if i == j:
                continue
            score = (0.0, 0.5, 1.0)[rng.roll_die(3) - 1]
            before = ratings[i].value + ratings[j].value
            ratings[i], ratings[j] = elo_update(ratings[i], ratings[j], score)
            assert ratings[i].value + ratings[j].value == before

    def test_score_validation(self):
        with pytest.raises(ValueError):
            elo_update(Rating(1500.0), Rating(1500.0), 0.7)

    def test_k_factor_mismatch(self):
        with pytest.raises(ValueError):
            elo_update(Rating(1500.0, 32.0), Rating(1500.0, 16.0), 1.0)

    def test_k_factor_validation(self):
        with pytest.raises(ValueError):
            Rating(1500.0, 0.0)
