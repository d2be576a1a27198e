"""Seeded sampling, opposed checks and Elo updates."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from skillcheck.dice import (
    BinomialPool,
    GeneralPool,
    MaxPool,
    StepDie,
    SumRollOver,
    UniformRollOver,
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
    _successes,
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


# One target per family, and a model; each scalar call is the reference for the batch path.
TARGETS = [
    UniformRollUnder(sides=20, target=9),
    UniformRollOver(sides=20, modifier=2, difficulty=13),
    SumRollOver(dice=3, sides=6, modifier=0, difficulty=11),
    BinomialPool(dice=5, sides=10, threshold=6, required=3),
    GeneralPool(dice=4, sides=4, difficulty=10),
    StepDie(sides=8, difficulty=5),
    MaxPool(dice=3, sides=10, difficulty=8),
    FourPL(0.3, 0.0, lower=0.2),
]
# Accepts about three quarters of draws: 2**64 // sides is 3.
REJECTING = UniformRollUnder(sides=2**62 + 1, target=2**61)
GAMMA = 0x9E3779B97F4A7C15


def scalar_flags(target, n, rng):
    resolve = resolve_model if isinstance(target, FourPL) else resolve_mechanic
    return [resolve(target, rng).success for _ in range(n)]


def batch_flags(target, n, rng):
    return [bool(f) for block in _successes(target, n, rng) for f in block]


def draws_between(seed, rng):
    """Draws taken since ``SplitMix64(seed)``: the state moves by gamma per draw."""
    return ((rng._state - seed) * pow(GAMMA, -1, 2**64)) % 2**64


class TestBatchSampler:
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: type(t).__name__)
    # Enough trials for at least this many draws: around 8192 the draws fill one block
    # or spill into a second, and with three or five dice one trial straddles the two.
    @pytest.mark.parametrize(
        "draws,seed", [(0, -7), (1, 2**64 + 12345), (8191, -7), (8192, 2**64 + 12345), (8193, -1)]
    )
    def test_matches_scalar_calls(self, target, draws, seed):
        n = -(-draws // getattr(target, "dice", 1))
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        assert batch_flags(target, n, batch) == scalar_flags(target, n, scalar)
        assert batch.next_uint64() == scalar.next_uint64()

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193])
    def test_rejected_draws_are_skipped_in_stream_order(self, n):
        batch, scalar = SplitMix64(-3), SplitMix64(-3)
        assert batch_flags(REJECTING, n, batch) == scalar_flags(REJECTING, n, scalar)
        assert batch._state == scalar._state
        if n > 1000:
            assert 1.2 * n < draws_between(-3, batch) < 1.5 * n

    @pytest.mark.parametrize("target", TARGETS + [REJECTING], ids=lambda t: type(t).__name__)
    def test_batch_and_scalar_calls_mix(self, target):
        n = 9000 // getattr(target, "dice", 1)  # more than one block of draws
        mixed, scalar = SplitMix64(2**64 + 5), SplitMix64(2**64 + 5)
        got = scalar_flags(target, 3, mixed) + batch_flags(target, n, mixed)
        got += scalar_flags(target, 2, mixed) + batch_flags(target, 5, mixed)
        assert got == scalar_flags(target, n + 10, scalar)
        assert mixed.next_uint64() == scalar.next_uint64()

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        target=st.sampled_from(TARGETS + [REJECTING]),
        seed=st.integers(-(2**70), 2**70),
        before=st.integers(0, 3),
        n=st.integers(0, 3000),
    )
    def test_matches_scalar_calls_fuzzed(self, target, seed, before, n):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        scalar_flags(target, before, batch)
        assert simulate_count(target, n, batch) == sum(scalar_flags(target, before + n, scalar)[before:])
        assert batch.next_uint64() == scalar.next_uint64()

    # One trial needs more draws than a block: its faces are carried across 2 or 4 blocks.
    # The max pool's sides make about one draw in 2 * dice + 1 a rejection.
    @pytest.mark.parametrize("dice", [8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("family", ["sum", "max"])
    def test_trials_longer_than_a_block_match_scalar_rolls(self, family, dice):
        if family == "sum":
            m, seed = SumRollOver(dice=dice, sides=6, difficulty=7 * dice // 2), 11
        else:
            sides = 2**64 // (2 * dice + 1) + 1
            m, seed = MaxPool(dice=dice, sides=sides, difficulty=round(sides * 0.5 ** (1 / dice))), 13
        n = 8
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        rolls = [[scalar.roll_die(m.sides) for _ in range(dice)] for _ in range(n)]
        expected = [m.succeeds(m.outcome_of(faces)) for faces in rolls]
        assert batch_flags(m, n, batch) == expected
        assert batch._state == scalar._state
        assert 0 < sum(expected) < n
        if family == "max":
            assert draws_between(seed, batch) > n * dice

    def test_block_outputs_are_the_scalar_stream(self):
        batch, scalar = SplitMix64(-1), SplitMix64(-1)
        assert batch._block(8192).tolist() == [scalar.next_uint64() for _ in range(8192)]
        assert batch._state == scalar._state

    def test_arguments_are_checked_before_any_draw(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match="nonnegative"):
            _successes(FourPL(0.0, 0.0), -1, rng)
        with pytest.raises(ValueError, match=r"dice \* sides must be below 2\*\*63"):
            _successes(SumRollOver(dice=2, sides=2**62), 1, rng)
        assert rng._state == 1


class TestDomainBound:
    """Every face and outcome fits in int64: dice * sides < 2**63, on both paths."""

    def test_roll_die_largest_side(self):
        rng = SplitMix64(4)
        assert 1 <= rng.roll_die(2**63 - 1) <= 2**63 - 1
        with pytest.raises(ValueError, match=r"got 1 \* 9223372036854775808"):
            rng.roll_die(2**63)

    @pytest.mark.parametrize(
        "mech",
        [UniformRollUnder(sides=2**64 + 1, target=1), SumRollOver(dice=2, sides=2**62)],
        ids=["huge-die", "huge-sum"],
    )
    def test_past_the_bound_is_an_error_not_a_hang(self, mech):
        with pytest.raises(ValueError, match=r"dice \* sides must be below 2\*\*63"):
            resolve_mechanic(mech, SplitMix64(1))
        with pytest.raises(ValueError, match=r"dice \* sides must be below 2\*\*63"):
            simulate_count(mech, 0, SplitMix64(1))

    # A cut 2**70 away from every outcome is clamped to int64 in the batch path.
    @pytest.mark.parametrize(
        "mech,always",
        [
            (UniformRollUnder(sides=6, target=2**70), True),
            (UniformRollUnder(sides=6, target=-(2**70)), False),
            (UniformRollOver(sides=6, modifier=2**70, difficulty=4), True),
            (UniformRollOver(sides=6, modifier=-(2**70), difficulty=4), False),
            (SumRollOver(dice=3, sides=6, modifier=-(2**70)), False),
            (SumRollOver(dice=3, sides=6, difficulty=2**70), False),
            (GeneralPool(dice=2, sides=6, difficulty=-(2**70)), True),
            (StepDie(sides=8, difficulty=2**70), False),
            (MaxPool(dice=3, sides=10, difficulty=-(2**70)), True),
        ],
        ids=repr,
    )
    def test_a_cut_past_int64_is_all_or_nothing(self, mech, always):
        n = 9000 // mech.dice  # more than one block of draws
        batch, scalar = SplitMix64(11), SplitMix64(11)
        assert simulate_count(mech, n, batch) == (n if always else 0)
        assert scalar_flags(mech, n, scalar) == [always] * n
        assert batch._state == scalar._state

    def test_largest_sums_fit(self):
        mech = SumRollOver(dice=2, sides=2**62 - 1, difficulty=2**62)
        batch, scalar = SplitMix64(9), SplitMix64(9)
        assert batch_flags(mech, 50, batch) == [
            sum(scalar.roll_die(2**62 - 1) for _ in range(2)) >= 2**62 for _ in range(50)
        ]
        assert batch._state == scalar._state


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

    @pytest.mark.parametrize(
        "value,k,score,expected",
        [(1e308, 32.0, 1.0, (1e308, 1e308)),  # 1e308 +/- 16 round to 1e308
         (1e308, 1e308, 1.0, (1.5e308, 5e307)),
         (-1e308, 32.0, 0.5, (-1e308, -1e308))],
    )
    def test_overflowing_total_keeps_finite_ratings(self, value, k, score, expected):
        a, b = elo_update(Rating(value, k), Rating(value, k), score)
        assert (a.value, b.value) == expected

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
