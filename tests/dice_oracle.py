"""The brute-force oracle of the die families, read by ``tests/test_dice.py`` and the
acceptance suite's c03: restate a new family here. pytest does not collect this file.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from skillcheck.dice import (
    BinomialPool, GeneralPool, MaxPool, StepDie, SumRollOver, UniformRollOver, UniformRollUnder,
)

# Independent restatement of each family: (dice count, reduce, success rule).
ORACLE = {
    UniformRollUnder: lambda m: (1, lambda f: f[0], lambda o: o <= m.target),
    UniformRollOver: lambda m: (1, lambda f: f[0], lambda o: o + m.modifier >= m.difficulty),
    SumRollOver: lambda m: (m.dice, sum, lambda o: o + m.modifier >= m.difficulty),
    BinomialPool: lambda m: (
        m.dice,
        lambda f: sum(1 for x in f if x >= m.threshold),
        lambda o: o >= m.required,
    ),
    GeneralPool: lambda m: (m.dice, sum, lambda o: o >= m.difficulty),
    StepDie: lambda m: (1, lambda f: f[0], lambda o: o >= m.difficulty),
    MaxPool: lambda m: (m.dice, max, lambda o: o >= m.difficulty),
}


def enumerate_mechanic(m):
    """Exact pmf and success probability by listing every ordered roll."""
    count, reduce_fn, rule = ORACLE[type(m)](m)
    sides = m.sides
    tally = Counter()
    wins = 0
    for faces in product(range(1, sides + 1), repeat=count):
        o = reduce_fn(faces)
        tally[o] += 1
        if rule(o):
            wins += 1
    total = sides**count
    pmf = {k: Fraction(v, total) for k, v in tally.items()}
    return pmf, Fraction(wins, total)
