"""Tests of the benchmark's own oracles. Run: python3 -m pytest bench"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import oracles as o


def enumerate_outcomes(m):
    n = 1 if m[0] in o.SINGLE_DIE else m[1]
    return Counter(o.outcome_of(m, list(f)) for f in product(range(1, m[2] + 1), repeat=n))


def test_ways_match_enumeration():
    for m in [
        ("sum", 3, 6, 0, 11),
        ("pool", 4, 4, 0, 9),
        ("binomial", 4, 6, 5, 2),
        ("binomial", 3, 4, 1, 3),
        ("max", 3, 5, 0, 4),
        ("roll-under", 1, 20, 7, 0),
        ("step", 1, 8, 0, 5),
    ]:
        w, total = o.ways(m)
        assert w == dict(enumerate_outcomes(m))
        assert total == sum(w.values())


def test_success_fraction_matches_enumeration():
    m = ("sum", 3, 6, -1, 11)
    counts = enumerate_outcomes(m)
    hits = sum(c for k, c in counts.items() if k - 1 >= 11)
    assert o.success_fraction(m) == Fraction(hits, 216)


def test_splitmix64_reference_vector():
    # First outputs for seed 1234567 in the reference implementation.
    r = o.Replay(1234567)
    assert [r.next() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    assert r.draws == 3


def test_curve_oracles():
    assert abs(o.true_sup("normal") - 0.0226628) < 1e-7
    assert abs(o.dice_vs_logistic(("sum", 3, 6, 0, 0))[0] - 0.03243874556443338) < 1e-15
    # The uniform gap peaks inside the interval, above its value at the ends.
    assert o.true_sup("uniform") > o.logistic(-math.pi)


def test_probe_rule():
    assert o.check_probe(1, "") is None
    assert o.check_probe(0, "odds,probability\ninf,1\n") is None
    assert o.check_probe(0, "probability\nnan\n") is not None
    assert o.check_probe(0, "success,probability,raw_roll\n0,nan,\n") is not None
    assert o.check_probe(-1, "") is not None
