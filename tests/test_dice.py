"""Exactness checks for the die mechanics.

The oracle is brute force: enumerate every ordered roll, reduce it with a
rule written out independently in ``tests/dice_oracle.py``, and tally exact
rational masses. The library must match it fraction for fraction.
"""

import dataclasses
import re
import sys
from datetime import timedelta
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dice_oracle import ORACLE, enumerate_mechanic
from skillcheck.dice import (
    BinomialPool,
    DiscreteDist,
    GeneralPool,
    MaxPool,
    Mechanic,
    StepDie,
    SumRollOver,
    UniformRollOver,
    UniformRollUnder,
    constant,
    convolve,
    die,
    dist_to_csv,
    outcome_distribution,
    success_probability,
)
from skillcheck.dice import _sum_at_most, _sum_distribution

SMALL_ROSTER = [
    UniformRollUnder(sides=6, target=4),
    UniformRollUnder(sides=10, target=0),
    UniformRollUnder(sides=10, target=13),
    UniformRollOver(sides=8, modifier=2, difficulty=7),
    UniformRollOver(sides=6, modifier=-1, difficulty=3),
    SumRollOver(dice=2, sides=6, modifier=0, difficulty=7),
    SumRollOver(dice=3, sides=6, modifier=2, difficulty=14),
    SumRollOver(dice=4, sides=4, modifier=-1, difficulty=10),
    BinomialPool(dice=4, sides=6, threshold=5, required=2),
    BinomialPool(dice=5, sides=10, threshold=6, required=3),
    BinomialPool(dice=3, sides=4, threshold=1, required=3),
    GeneralPool(dice=3, sides=6, difficulty=11),
    GeneralPool(dice=2, sides=10, difficulty=14),
    StepDie(sides=8, difficulty=5),
    StepDie(sides=4, difficulty=5),
    MaxPool(dice=3, sides=6, difficulty=5),
    MaxPool(dice=2, sides=10, difficulty=8),
]


def test_the_oracle_restates_every_family():
    assert set(ORACLE) == set(Mechanic.__subclasses__())


@pytest.mark.parametrize("mech", SMALL_ROSTER, ids=repr)
def test_outcome_distribution_matches_enumeration(mech):
    pmf, _ = enumerate_mechanic(mech)
    dist = outcome_distribution(mech)
    assert dict(dist.items()) == pmf


@pytest.mark.parametrize("mech", SMALL_ROSTER, ids=repr)
def test_success_probability_matches_enumeration(mech):
    _, p = enumerate_mechanic(mech)
    assert success_probability(mech) == p


def test_sum_three_d6_at_ten():
    dist = outcome_distribution(SumRollOver(dice=3, sides=6))
    assert dist.p(10) == Fraction(27, 216)


def test_max_pool_two_d6_at_six():
    dist = outcome_distribution(MaxPool(dice=2, sides=6))
    assert dist.p(6) == Fraction(11, 36)


def test_roll_under_d100_is_uniform():
    dist = outcome_distribution(UniformRollUnder(sides=100, target=60))
    assert dist.support == tuple(range(1, 101))
    assert all(m == Fraction(1, 100) for m in dist.mass)


@pytest.mark.parametrize(
    "mech,expected",
    [
        (UniformRollUnder(sides=100, target=60), Fraction(60, 100)),
        (BinomialPool(dice=5, sides=10, threshold=6, required=3), Fraction(1, 2)),
        (SumRollOver(dice=3, sides=6, modifier=0, difficulty=11), Fraction(1, 2)),
        (StepDie(sides=8, difficulty=5), Fraction(4, 8)),
    ],
)
def test_success_probability_known_values(mech, expected):
    assert success_probability(mech) == expected


def test_success_probability_caps_at_zero_and_one():
    assert success_probability(UniformRollUnder(sides=100, target=0)) == 0
    assert success_probability(UniformRollUnder(sides=100, target=200)) == 1
    assert success_probability(SumRollOver(dice=2, sides=6, modifier=50, difficulty=3)) == 1


class TestConvolve:
    def test_two_d6(self):
        d66 = convolve(die(6), die(6))
        assert d66.p(7) == Fraction(6, 36)
        assert d66.support == tuple(range(2, 13))

    def test_point_mass_is_identity(self):
        d = outcome_distribution(SumRollOver(dice=2, sides=8))
        assert convolve(d, constant(0)) == d

    def test_two_d2(self):
        d = convolve(die(2), die(2))
        assert d.support == (2, 3, 4)
        assert d.mass == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_commutative(self):
        a, b = die(4), outcome_distribution(MaxPool(dice=2, sides=6))
        assert convolve(a, b) == convolve(b, a)

    def test_associative(self):
        a, b, c = die(2), die(3), die(4)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


mechanics_strategy = st.one_of(
    st.builds(
        UniformRollUnder,
        sides=st.integers(2, 12),
        target=st.integers(-2, 14),
    ),
    st.builds(
        SumRollOver,
        dice=st.integers(1, 4),
        sides=st.integers(2, 6),
        modifier=st.integers(-3, 3),
        difficulty=st.integers(0, 20),
    ),
    st.builds(
        BinomialPool,
        dice=st.integers(1, 5),
        sides=st.integers(2, 8),
        threshold=st.integers(1, 2),
        required=st.integers(0, 1),
    ),
    st.builds(
        MaxPool,
        dice=st.integers(1, 4),
        sides=st.integers(2, 8),
        difficulty=st.integers(0, 10),
    ),
)


@given(mechanics_strategy)
def test_total_mass_is_exactly_one(mech):
    assert sum(outcome_distribution(mech).mass) == 1


@given(mechanics_strategy)
def test_success_probability_in_unit_interval(mech):
    p = success_probability(mech)
    assert 0 <= p <= 1


# Every family and every limit from below the least outcome to past the greatest.
every_family_strategy = st.one_of(
    mechanics_strategy,
    st.builds(UniformRollOver, sides=st.integers(2, 12), modifier=st.integers(-4, 4),
              difficulty=st.integers(-2, 18)),
    st.builds(GeneralPool, dice=st.integers(1, 3), sides=st.integers(2, 6),
              difficulty=st.integers(0, 20)),
    st.builds(StepDie, sides=st.integers(2, 12), difficulty=st.integers(-2, 14)),
)


@given(every_family_strategy)
def test_success_probability_lookup_matches_enumeration(mech):
    assert success_probability(mech) == enumerate_mechanic(mech)[1]


@pytest.mark.parametrize(
    "mech,expected",
    [
        (UniformRollUnder(sides=2**64 + 1, target=5), Fraction(5, 2**64 + 1)),
        (UniformRollUnder(sides=10**30, target=10**31), Fraction(1)),
        (UniformRollOver(sides=10**30, modifier=1, difficulty=10**30), Fraction(2, 10**30)),
        (StepDie(sides=2**80, difficulty=-(2**90)), Fraction(1)),
        (StepDie(sides=2**80, difficulty=2**80 + 1), Fraction(0)),
    ],
)
def test_single_die_success_is_a_closed_form(mech, expected, monkeypatch):
    monkeypatch.setattr("skillcheck.dice.die", None)  # a face family never builds the die
    assert success_probability(mech) == expected


class TestMonotonicity:
    def test_roll_under_in_target(self):
        probs = [success_probability(UniformRollUnder(10, t)) for t in range(-1, 13)]
        assert probs == sorted(probs)

    def test_roll_over_in_modifier(self):
        probs = [
            success_probability(UniformRollOver(10, m, 7)) for m in range(-3, 14)
        ]
        assert probs == sorted(probs)

    def test_sum_in_difficulty(self):
        probs = [
            success_probability(SumRollOver(3, 6, 0, d)) for d in range(0, 22)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_binomial_in_required(self):
        probs = [
            success_probability(BinomialPool(4, 6, 4, k)) for k in range(0, 5)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_step_die_in_difficulty(self):
        probs = [success_probability(StepDie(8, d)) for d in range(0, 11)]
        assert probs == sorted(probs, reverse=True)

    def test_max_pool_in_difficulty(self):
        probs = [success_probability(MaxPool(3, 6, d)) for d in range(0, 9)]
        assert probs == sorted(probs, reverse=True)


class TestValidation:
    def test_die_size_too_small(self):
        with pytest.raises(ValueError):
            die(1)
        with pytest.raises(ValueError):
            SumRollOver(dice=2, sides=1)

    def test_zero_dice(self):
        with pytest.raises(ValueError):
            SumRollOver(dice=0, sides=6)
        with pytest.raises(ValueError):
            MaxPool(dice=0, sides=6)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            BinomialPool(dice=3, sides=6, threshold=0, required=1)
        with pytest.raises(ValueError):
            BinomialPool(dice=3, sides=6, threshold=7, required=1)

    def test_required_out_of_range(self):
        with pytest.raises(ValueError):
            BinomialPool(dice=3, sides=6, threshold=4, required=4)
        with pytest.raises(ValueError):
            BinomialPool(dice=3, sides=6, threshold=4, required=-1)

    def test_dist_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDist((1, 2), (Fraction(1, 2), Fraction(1, 3)))

    def test_dist_support_strictly_increasing(self):
        with pytest.raises(ValueError):
            DiscreteDist((2, 1), (Fraction(1, 2), Fraction(1, 2)))

    def test_dist_positive_mass(self):
        with pytest.raises(ValueError):
            DiscreteDist((1, 2), (Fraction(0), Fraction(1)))

    def test_dist_support_and_mass_same_length(self):
        with pytest.raises(ValueError, match="support and mass must have the same length"):
            DiscreteDist((1, 2), (Fraction(1),))

    def test_dist_needs_an_outcome(self):
        with pytest.raises(ValueError, match="distribution must have at least one outcome"):
            DiscreteDist((), ())


def test_binomial_sure_successes_collapse_support():
    # threshold 1 makes every die succeed, so only the all-successes count
    # carries mass
    dist = outcome_distribution(BinomialPool(dice=3, sides=4, threshold=1, required=3))
    assert dist.support == (3,)
    assert dist.mass == (Fraction(1),)


def test_cdf_and_tail_are_complementary():
    d = outcome_distribution(SumRollOver(dice=3, sides=6))
    for k in range(2, 20):
        assert d.cdf(k) + d.tail_geq(k + 1) == 1


def test_cdf_and_tail_at_non_integer_points():
    d = outcome_distribution(SumRollOver(dice=2, sides=6))
    assert d.cdf(6.5) == d.cdf(6)
    assert d.tail_geq(6.5) == d.tail_geq(7)
    assert d.cdf(6.5) + d.tail_geq(6.5) == 1


def test_moments_of_3d6():
    d = outcome_distribution(SumRollOver(dice=3, sides=6))
    assert d.mean() == Fraction(21, 2)
    assert d.variance() == Fraction(35, 4)


def test_csv_dump_format():
    text = dist_to_csv(outcome_distribution(SumRollOver(dice=3, sides=6)))
    lines = text.strip().split("\n")
    assert lines[0] == "outcome,num,den,float"
    assert len(lines) == 17
    assert lines[1] == "3,1,216,0.00462962962963"
    total = Fraction(0)
    for row in lines[1:]:
        _, num, den, _ = row.split(",")
        total += Fraction(int(num), int(den))
    assert total == 1


# Each family's fields in positional order, and one value for each.
FAMILY_FIELDS = [
    (UniformRollUnder, ("sides", "target"), (6, 4)),
    (UniformRollOver, ("sides", "modifier", "difficulty"), (8, 2, 7)),
    (SumRollOver, ("dice", "sides", "modifier", "difficulty"), (3, 6, 1, 11)),
    (BinomialPool, ("dice", "sides", "threshold", "required"), (5, 10, 6, 3)),
    (GeneralPool, ("dice", "sides", "difficulty"), (3, 6, 11)),
    (StepDie, ("sides", "difficulty"), (8, 5)),
    (MaxPool, ("dice", "sides", "difficulty"), (3, 10, 8)),
]


@pytest.mark.parametrize(
    "cls,names,values", FAMILY_FIELDS, ids=[cls.__name__ for cls, _, _ in FAMILY_FIELDS]
)
def test_family_contract(cls, names, values):
    m = cls(*values)
    assert isinstance(m, Mechanic)
    assert type(m) is cls
    assert tuple(f.name for f in dataclasses.fields(m)) == names
    assert tuple(getattr(m, n) for n in names) == values
    assert m == cls(**dict(zip(names, values)))
    assert hash(m) == hash(cls(*values))
    assert m != cls(*values[:-1], values[-1] - 1)
    fields_repr = ", ".join(f"{n}={v}" for n, v in zip(names, values))
    assert repr(m) == f"{cls.__name__}({fields_repr})"
    assert m.dice == (values[0] if names[0] == "dice" else 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(m, names[-1], 0)


# The work bound, outcomes * (bits + 64) <= 10**7 with bits = dice * (sides - 1).bit_length(),
# and bits <= 2**18. A sum has dice * (sides - 1) + 1 outcomes: 3129d2 is 3130 * 3193 =
# 9,994,090 and 3130d2 is 3131 * 3194 = 10,000,414; one die of 123456 sides is 123456 * 81 =
# 9,999,936 and of 123457 sides 10,000,017.
def test_sums_at_the_edge_of_the_work_bound():
    edge = GeneralPool(1, 123456, 100000)  # the one distribution built at the bound here
    assert outcome_distribution(edge) == die(123456)
    assert success_probability(edge) == Fraction(23457, 123456)
    # Faces 1 and 2: a total of 3129 + k has C(3129, k) ways.
    tail = sum(comb(3129, k) for k in range(1565, 3130))
    assert success_probability(SumRollOver(3129, 2, 0, 4694)) == Fraction(tail, 2**3129)
    for m in (GeneralPool(1, 123457), SumRollOver(3130, 2, 0, 4695)):
        for fn in (success_probability, outcome_distribution):
            with pytest.raises(ValueError, match=r"^exact sum distributions need outcomes \* \(bits \+ 64\)"):
                fn(m)


# Where outcomes are few, the width clause binds: 131072 * (3 - 1).bit_length() and
# 32 * (2**8192 - 1).bit_length() are 2**18 bits.
@pytest.mark.parametrize(
    "inside,p,outside",
    [
        (MaxPool(131072, 3, 3), Fraction(3**131072 - 2**131072, 3**131072), MaxPool(131073, 3, 3)),
        (MaxPool(131072, 4, 4), Fraction(4**131072 - 3**131072, 4**131072), MaxPool(131072, 5, 4)),
        (BinomialPool(32, 2**8192, 2**8191 + 1, 16),
         Fraction(sum(comb(32, k) for k in range(16, 33)), 2**32),
         BinomialPool(32, 2**8192 + 1, 2**8191 + 1, 16)),
    ],
    ids=["max-dice", "max-sides", "count-sides"],
)
def test_width_clause_edges(inside, p, outside):
    assert success_probability(inside) == p
    assert outcome_distribution(inside).tail_geq(getattr(inside, inside.bound)) == p
    for fn in (success_probability, outcome_distribution):
        with pytest.raises(ValueError, match=rf"^exact {outside.reducer} distributions need bits <= 262144, got"):
            fn(outside)


# Past the old dice * sides <= 1000 cap of sums, inside the work bound.
@pytest.mark.parametrize("mech", [SumRollOver(60, 100, 0, 3030), GeneralPool(1, 1001, 500)])
def test_sums_past_the_old_cap_match_the_integer_recurrence(mech):
    n, s = mech.dice, mech.sides
    ways = ways_of_sum(n, s)
    assert outcome_distribution(mech).mass == tuple(Fraction(w, s**n) for w in ways)
    assert success_probability(mech) == Fraction(sum(ways[mech.difficulty - n :]), s**n)


def test_3000d2_success_is_the_binomial_tail():
    # ways_of_sum(n, 2) is row n of Pascal's triangle; at n = 3000 it takes about 4 s, comb does not.
    assert ways_of_sum(40, 2) == [comb(40, k) for k in range(41)]
    tail = sum(comb(3000, k) for k in range(1520, 3001))
    assert success_probability(SumRollOver(3000, 2, 0, 4520)) == Fraction(tail, 2**3000)


# The count and max bound: outcomes * (bits + 64) <= 10**7, bits = dice * (sides - 1).bit_length().
@pytest.mark.parametrize(
    "inside,p,outside",
    [
        (MaxPool(1, 123000, 100), Fraction(123000 - 99, 123000), MaxPool(1, 124000, 100)),
        (BinomialPool(498, 2**40, 2**39 + 1, 498), Fraction(1, 2**498),
         BinomialPool(499, 2**40, 2**39 + 1, 499)),
    ],
)
def test_count_and_max_distributions_are_bounded(inside, p, outside):
    assert success_probability(inside) == p
    for fn in (success_probability, outcome_distribution):
        with pytest.raises(ValueError, match=r"distributions need outcomes \* \(bits \+ 64\) <= 10000000"):
            fn(outside)


def test_count_and_max_bound_refuses_at_once():
    # Without the bound these were still running after 20 s; without the width clause, the
    # last took 6 s.
    for m in (BinomialPool(20000, 10, 6, 1), MaxPool(100000, 1000), MaxPool(1, 10**18),
              MaxPool(1500000, 3, 3)):
        with pytest.raises(ValueError, match=rf"^exact {m.reducer} distributions need .* for {m.dice}d{m.sides}$"):
            success_probability(m)


# --- integer counts, convolution and sums ----------------------------------------
# Oracles below use only the standard library: a pairwise Fraction convolution
# and a prefix-sum recurrence over integer counts of ways.


def pairwise_convolution(a, b):
    acc = {}
    for ka, ma in zip(a.support, a.mass):
        for kb, mb in zip(b.support, b.mass):
            acc[ka + kb] = acc.get(ka + kb, Fraction(0)) + ma * mb
    return {k: v for k, v in acc.items() if v != 0}


def ways_of_sum(n, s):
    """Counts of ways of each total n..n*s of n dice with s faces."""
    ways = [1]  # zero dice: one way to total 0
    for _ in range(n):
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        # index t is the total minus the dice rolled; one more die adds 1..s,
        # so its ways at t are ways[t - s + 1] + ... + ways[t]
        ways = [prefix[min(t + 1, len(ways))] - prefix[max(t + 1 - s, 0)] for t in range(len(ways) + s - 1)]
    return ways


@st.composite
def distributions(draw):
    """Supports with gaps and negative outcomes, masses over unequal denominators."""
    support = sorted(draw(st.sets(st.integers(-40, 40), min_size=1, max_size=6)))
    weights = draw(st.lists(st.integers(1, 30), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return DiscreteDist(tuple(support), tuple(Fraction(w, total) for w in weights))


@given(distributions(), distributions())
def test_convolve_matches_pairwise_fraction_convolution(a, b):
    got = convolve(a, b)
    assert dict(got.items()) == pairwise_convolution(a, b)
    assert list(got.support) == sorted(pairwise_convolution(a, b))
    assert sum(got.mass) == 1


def test_convolve_point_masses_and_gaps():
    assert convolve(constant(-7), constant(3)) == constant(-4)
    gappy = DiscreteDist((-10, 0, 25), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    skewed = DiscreteDist((-3, 4), (Fraction(3, 4), Fraction(1, 4)))
    assert dict(convolve(gappy, skewed).items()) == pairwise_convolution(gappy, skewed)
    assert convolve(gappy, constant(0)) == gappy


# convolve packs one slot per integer of the sum's span, each as wide as its denominator, so
# it takes the work bound of the mechanics with outcomes the span and bits den.bit_length().
# Unbounded, the first three took 14.4 s, 10.2 s and 1.55 s; refused, they take microseconds.
@pytest.mark.parametrize("operand,got", [
    (lambda: outcome_distribution(SumRollOver(3129, 2)), "6259 * (6259 + 64)"),
    (lambda: outcome_distribution(SumRollOver(28, 1000)), "55945 * (559 + 64)"),
    (lambda: DiscreteDist((0, 10**6), (Fraction(1, 2), Fraction(1, 2))), "2000001 * (3 + 64)"),
])
def test_convolve_refuses_what_the_work_bound_refuses(operand, got):
    d = operand()
    with pytest.raises(ValueError, match=re.escape(
            f"convolve needs outcomes * (bits + 64) <= 10000000, got {got}, outcomes being the span")):
        convolve(d, d)


def test_convolve_accepts_a_sum_inside_the_work_bound():
    # 3601 * (1329 + 64), about 5.0M
    d = outcome_distribution(SumRollOver(200, 10))
    assert convolve(d, d) == outcome_distribution(SumRollOver(400, 10))


@pytest.mark.parametrize("n,s", [(500, 2), (2, 500), (10, 100), (1, 1000), (250, 4)])
def test_sums_at_the_cap_match_the_integer_recurrence(n, s):
    d = outcome_distribution(SumRollOver(n, s))
    ways = ways_of_sum(n, s)
    assert d.support == tuple(range(n, n * s + 1))
    assert d.mass == tuple(Fraction(w, s**n) for w in ways)
    threshold = n * (s + 1) // 2
    expected = Fraction(sum(w for t, w in enumerate(ways, n) if t >= threshold), s**n)
    assert success_probability(SumRollOver(n, s, difficulty=threshold)) == expected


# A sum is built by a three-term recurrence, run to the middle and mirrored. Two
# independent references: repeated convolution of one die (Kronecker products), and de
# Moivre's inclusion-exclusion count of the ways to total at most s at every cut.
@settings(derandomize=True, max_examples=120, deadline=timedelta(seconds=2))
@given(st.integers(1, 40), st.integers(2, 30))
@example(1, 2)  # top = 1, odd
@example(2, 2)  # top = 2, even
@example(1, 3)  # one die, even top
@example(3, 2)
@example(7, 3)  # the seam: top = 14, with the c[k - d - 1] term in use
def test_sum_recurrence_matches_convolution_and_de_moivre(n, d):
    m = SumRollOver(n, d)
    built = _sum_distribution(m)
    assert built == reduce(convolve, [die(d)] * n)
    cuts = range(n - 1, n * d + 1)
    assert [built.cdf(s) * d**n for s in cuts] == [_sum_at_most(m, s) for s in cuts]


# The largest sums the work bound accepts, a few milliseconds each.
@pytest.mark.parametrize("n,d", [(3129, 2), (115, 100), (28, 1000)])
def test_sums_at_the_work_bound_are_whole_symmetric_and_match_de_moivre(n, d):
    m = SumRollOver(n, d)
    built = _sum_distribution(m)
    assert built.den == d**n and sum(built.counts) == d**n
    assert built.support == tuple(range(n, n * d + 1))
    assert built.counts == built.counts[::-1]
    for s in (n - 1, n, (n + n * d) // 2, n * d - 1, n * d):
        assert built.cdf(s) * d**n == _sum_at_most(m, s)


def test_one_distribution_built_three_ways_is_equal_and_hashes_equal():
    masses = (Fraction(1, 9), Fraction(2, 9), Fraction(3, 9), Fraction(2, 9), Fraction(1, 9))
    built = [
        DiscreteDist((2, 3, 4, 5, 6), masses),
        DiscreteDist.from_mapping({2: Fraction(1, 9), 3: Fraction(2, 9), 4: Fraction(1, 3),
                                   5: Fraction(2, 9), 6: Fraction(1, 9), 7: Fraction(0)}),
        convolve(die(3), die(3)),
        outcome_distribution(SumRollOver(2, 3)),
    ]
    for d in built:
        assert d == built[0]
        assert hash(d) == hash(built[0])
        assert repr(d) == repr(built[0])
        assert d.mass == masses
    assert built[0] != convolve(die(3), constant(1))
    assert len(set(built)) == 1
    # 9, 18 and 9 ways in 36 are the same distribution as 1, 2 and 1 in 4
    coin = DiscreteDist((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    halves = [
        outcome_distribution(BinomialPool(2, 6, 4, 0)),
        convolve(coin, coin),
        DiscreteDist((0, 1, 2), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))),
    ]
    assert halves[0] == halves[1] == halves[2]
    assert len({hash(d) for d in halves}) == 1
    assert len({repr(d) for d in halves}) == 1


def test_post_init_runs_once_per_built_distribution(monkeypatch):
    seen = []
    original = DiscreteDist.__post_init__

    def counted(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(DiscreteDist, "__post_init__", counted)
    a, b = die(6), constant(2)
    results = [
        a,
        b,
        DiscreteDist((0, 1), (Fraction(1, 2), Fraction(1, 2))),
        DiscreteDist.from_mapping({0: Fraction(1, 4), 5: Fraction(3, 4)}),
        convolve(a, b),
        outcome_distribution(SumRollOver(3, 6)),
        outcome_distribution(BinomialPool(4, 6, 5, 2)),
        outcome_distribution(MaxPool(3, 6)),
        outcome_distribution(StepDie(8)),
    ]
    assert len({id(d) for d in seen}) == len(seen)  # no instance ran it twice
    for d in results:
        assert any(d is s for s in seen)


# --- closed-form success probabilities -------------------------------------------
# success_probability builds no distribution; it must still give the tail that the
# distribution gives, and refuse what the distribution refuses, with the same text.


@st.composite
def closed_form_mechanics(draw):
    """Every family, with limits from below the least outcome to past the greatest."""
    n, s = draw(st.integers(1, 25)), draw(st.integers(2, 20))
    modifier = draw(st.integers(-6, 6))

    def near(lo, hi):
        return draw(st.integers(lo - 4, hi + 4))

    family = draw(st.sampled_from(list(ORACLE)))
    if family is UniformRollUnder:
        return family(s, near(1, s))
    if family is UniformRollOver:
        return family(s, modifier, near(1, s) + modifier)
    if family is StepDie:
        return family(s, near(1, s))
    if family is SumRollOver:
        return family(n, s, modifier, near(n, n * s) + modifier)
    if family is GeneralPool:
        return family(n, s, near(n, n * s))
    if family is BinomialPool:
        return family(n, s, draw(st.integers(1, s)), draw(st.integers(0, n)))
    return family(n, s, near(1, s))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(closed_form_mechanics())
@example(BinomialPool(dice=7, sides=6, threshold=6, required=0))
@example(BinomialPool(dice=7, sides=6, threshold=1, required=7))
@example(BinomialPool(dice=25, sides=20, threshold=20, required=25))
@example(SumRollOver(dice=25, sides=20, modifier=-6, difficulty=-100))
@example(SumRollOver(dice=25, sides=20, modifier=-6, difficulty=600))
@example(SumRollOver(dice=4, sides=6, modifier=-3, difficulty=11))  # 14, the centre
@example(GeneralPool(dice=5, sides=7, difficulty=21))  # 21 and 20 straddle the centre 20
@example(GeneralPool(dice=5, sides=7, difficulty=20))
@example(MaxPool(dice=3, sides=6, difficulty=0))
@example(MaxPool(dice=3, sides=6, difficulty=7))
def test_closed_form_is_the_tail_of_the_distribution(mech):
    rule = ORACLE[type(mech)](mech)[2]
    tail = sum((p for o, p in outcome_distribution(mech).items() if rule(o)), Fraction(0))
    assert success_probability(mech) == tail


@settings(derandomize=True, max_examples=300, deadline=None)
@given(closed_form_mechanics())
@example(BinomialPool(dice=7, sides=6, threshold=1, required=7))
@example(BinomialPool(dice=7, sides=6, threshold=2, required=0))
@example(MaxPool(dice=1, sides=2, difficulty=0))
def test_the_work_bound_counts_the_outcomes_of_the_distribution(mech):
    support = outcome_distribution(mech).support
    outcomes = mech._row.outcomes(mech.dice, mech.sides)
    if mech.reducer == "count" and mech.threshold == 1:  # every die succeeds: one outcome
        assert support == (mech.dice,)
        assert outcomes >= support[-1] - support[0] + 1
    else:
        assert outcomes == support[-1] - support[0] + 1


@pytest.mark.parametrize(
    "dice,sides,threshold,required",
    [(1, 2, 1, 1), (6, 6, 1, 3), (6, 6, 6, 0), (6, 6, 6, 6), (40, 10, 7, 13), (3100, 2, 2, 1550)],
)
def test_count_tail_is_the_binomial_sum(dice, sides, threshold, required):
    hit, miss = sides - threshold + 1, threshold - 1
    ways = sum(comb(dice, k) * hit**k * miss ** (dice - k) for k in range(required, dice + 1))
    assert success_probability(BinomialPool(dice, sides, threshold, required)) == Fraction(ways, sides**dice)


# The texts the distributions raise past the caps; the closed forms must raise them too.
@pytest.mark.parametrize(
    "mech,message",
    [
        (SumRollOver(116, 100, 0, 5858), "exact sum distributions need outcomes * (bits + 64) "
         "<= 10000000, got 11485 * (812 + 64) for 116d100"),
        (GeneralPool(1, 123457, -5), "exact sum distributions need outcomes * (bits + 64) "
         "<= 10000000, got 123457 * (17 + 64) for 1d123457"),
        (SumRollOver(3130, 2, 0, 10**6), "exact sum distributions need outcomes * (bits + 64) "
         "<= 10000000, got 3131 * (3130 + 64) for 3130d2"),
        (MaxPool(131073, 3, 3), "exact max distributions need bits <= 262144, got 262146 for 131073d3"),
        (BinomialPool(20000, 10, 6, 0), "exact count distributions need outcomes * (bits + 64) "
         "<= 10000000, got 20001 * (80000 + 64) for 20000d10"),
        (MaxPool(100000, 1000, 1001), "exact max distributions need outcomes * (bits + 64) "
         "<= 10000000, got 1000 * (1000000 + 64) for 100000d1000"),
        (MaxPool(1, 124000, -3), "exact max distributions need outcomes * (bits + 64) "
         "<= 10000000, got 124000 * (17 + 64) for 1d124000"),
        # So large that a power as wide as the denominator would run for minutes: the caps
        # must refuse them before one is taken.
        (SumRollOver(10**9, 6), "exact sum distributions need outcomes * (bits + 64) "
         "<= 10000000, got 5000000001 * (3000000000 + 64) for 1000000000d6"),
        (BinomialPool(10**9, 10, 6, 1), "exact count distributions need outcomes * (bits + 64) "
         "<= 10000000, got 1000000001 * (4000000000 + 64) for 1000000000d10"),
        (MaxPool(10**9, 1000, 5), "exact max distributions need outcomes * (bits + 64) "
         "<= 10000000, got 1000 * (10000000000 + 64) for 1000000000d1000"),
    ],
)
def test_closed_forms_refuse_past_the_caps_as_distributions_do(mech, message):
    for fn in (outcome_distribution, success_probability):
        with pytest.raises(ValueError) as raised:
            fn(mech)
        assert str(raised.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "mech,message",
    [
        (BinomialPool(1, 2**262145, 2, 1),
         "exact count distributions need bits <= 262144, got 262145 for 1d<262146-bit integer>"),
        (MaxPool(2, 10**5000, 2), "exact max distributions need outcomes * (bits + 64) <= 10000000, "
         "got <16610-bit integer> * (33220 + 64) for 2d<16610-bit integer>"),
    ],
)
def test_sides_past_the_digit_limit_are_named_by_bit_length(mech, message):
    for fn in (outcome_distribution, success_probability):
        with pytest.raises(ValueError) as raised:
            fn(mech)
        assert str(raised.value) == message


# --- byte identity of dist_to_csv -------------------------------------------------


def reference_csv(d):
    """The row formatter before repeated counts shared their text: gcd and f-string per row."""
    lines = ["outcome,num,den,float"]
    for k, c in zip(d.support, d.counts):
        g = gcd(c, d.den)
        lines.append(f"{k},{c // g},{d.den // g},{c / d.den:.12g}")
    return "\n".join(lines) + "\n"


def built(d):
    """``d``; the distribution of ``d`` if it is a mechanic, or what ``d()`` builds if it is
    a function. Examples name what they build, so that a fault in a builder fails the tests
    that build them, not the import of this file."""
    if isinstance(d, Mechanic):
        return outcome_distribution(d)
    return d() if callable(d) else d


@st.composite
def repeated_count_distributions(draw):
    """Gapped supports whose counts repeat, over small and huge denominators."""
    support = sorted(draw(st.sets(st.integers(-60, 60), min_size=1, max_size=15)))
    weights = draw(st.lists(st.sampled_from([1, 2, 3, 7, 12]), min_size=len(support), max_size=len(support)))
    scale = draw(st.sampled_from([1, 3, 10**40 + 1]))
    rest = draw(st.integers(0, 5))  # added to the last count, so that the scale need not cancel
    total = sum(weights) * scale + rest
    masses = [Fraction(w * scale, total) for w in weights]
    masses[-1] += Fraction(rest, total)
    return DiscreteDist(tuple(support), tuple(masses))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(repeated_count_distributions())
@example(lambda: DiscreteDist((0, 3, 10), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))))
@example(lambda: DiscreteDist((-7, 0, 3, 10), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))))
@example(lambda: die(1000))
@example(SumRollOver(7, 6))
@example(BinomialPool(9, 6, 4, 0))
@example(MaxPool(4, 9))
def test_csv_matches_the_per_row_formatter(d):
    d = built(d)
    assert dist_to_csv(d) == reference_csv(d)


# --- one success rule in three forms ------------------------------------------------
# A mechanic's rule runs on one outcome (``succeeds``), on numpy rows of faces
# (``_flags``, the batch sampler) and as a count of ways (``success_probability``).
# Modifiers and bounds of +-2**70 put the cut far outside int64, where ``_flags``
# clamps it.

HUGE = st.sampled_from([2**70, -(2**70)])


@st.composite
def success_rule_mechanics(draw):
    """Every family, small enough to list every roll, with limits inside the support,
    just outside it, and 2**70 away."""
    n, s = draw(st.integers(1, 3)), draw(st.integers(2, 5))

    def limit(lo, hi):
        return draw(st.one_of(st.integers(lo - 3, hi + 3), HUGE))

    modifier = draw(st.one_of(st.integers(-3, 3), HUGE))
    family = draw(st.sampled_from(list(ORACLE)))
    if family is UniformRollUnder:
        return family(s, limit(1, s))
    if family is UniformRollOver:
        return family(s, modifier, limit(1, s))
    if family is StepDie:
        return family(s, limit(1, s))
    if family is SumRollOver:
        return family(n, s, modifier, limit(n, n * s))
    if family is GeneralPool:
        return family(n, s, limit(n, n * s))
    if family is BinomialPool:
        return family(n, s, draw(st.integers(1, s)), draw(st.integers(0, n)))
    return family(n, s, limit(1, s))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(success_rule_mechanics())
@example(UniformRollUnder(sides=4, target=2**70))
@example(UniformRollUnder(sides=4, target=-(2**70)))
@example(UniformRollOver(sides=4, modifier=2**70, difficulty=3))
@example(UniformRollOver(sides=4, modifier=-(2**70), difficulty=3))
@example(SumRollOver(dice=3, sides=5, modifier=2**70, difficulty=2**70 + 9))  # cancels to 9
@example(SumRollOver(dice=3, sides=5, modifier=-(2**70), difficulty=2))
@example(MaxPool(dice=2, sides=5, difficulty=2**70))
@example(StepDie(sides=5, difficulty=-(2**70)))
def test_the_success_rule_agrees_in_all_three_forms(mech):
    count, reduce_fn, rule = ORACLE[type(mech)](mech)
    faces = list(product(range(1, mech.sides + 1), repeat=count))
    wins = [mech.succeeds(mech.outcome_of(f)) for f in faces]
    assert wins == [rule(reduce_fn(f)) for f in faces]
    assert mech._flags(np.array(faces, dtype=np.int64)).tolist() == wins
    assert success_probability(mech) == Fraction(sum(wins), len(faces))


# --- moments ---------------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(distributions(), repeated_count_distributions()))
@example(lambda: die(1000))
@example(lambda: constant(-5))
@example(SumRollOver(10, 100))
@example(MaxPool(40, 30))
def test_moments_are_the_fraction_sums(d):
    d = built(d)
    mean = sum((k * p for k, p in zip(d.support, d.mass)), Fraction(0))
    assert d.mean() == mean
    assert d.variance() == sum(((k - mean) ** 2 * p for k, p in zip(d.support, d.mass)), Fraction(0))
