"""Runtime task resolution: seeded sampling, opposed checks and Elo updates.

Sampling is deterministic: every draw comes from an explicit generator
value passed by the caller, so identical seeds replay identical result
sequences. Generators are never shared implicitly; give each thread its
own instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .dice import Mechanic, success_probability
from .logistic import FourPL, Probability, sigmoid

__all__ = [
    "SplitMix64",
    "CheckResult",
    "resolve_model",
    "resolve_mechanic",
    "simulate_count",
    "opposed",
    "opposed_logit",
    "Rating",
    "elo_expected",
    "elo_update",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator: 64 bits of state, one additive constant.

    Small, fast and well studied; reproducibility is guaranteed within a
    build for a given seed. Die faces are drawn by rejection sampling so no
    face is favored by modulo bias.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def roll_die(self, sides: int) -> int:
        """Uniform face in 1..sides, bias free."""
        if sides < 1:
            raise ValueError(f"die must have at least 1 side, got {sides}")
        limit = ((1 << 64) // sides) * sides
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % sides + 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one resolved check.

    ``raw_roll`` is the mechanic's outcome variable (roll, sum, success
    count or max die) and is None for model-based checks, which have no
    dice behind them.
    """

    success: bool
    probability_used: float
    raw_roll: Optional[int] = None


def resolve_model(model: FourPL, rng: SplitMix64) -> CheckResult:
    """Resolve one check as a Bernoulli draw from the model's probability."""
    p = model.probability()
    return CheckResult(success=rng.random() < p, probability_used=p)


def resolve_mechanic(mechanic: Mechanic, rng: SplitMix64) -> CheckResult:
    """Roll the mechanic's dice and apply its success rule."""
    faces = [rng.roll_die(mechanic.die_sides) for _ in range(mechanic.dice_count)]
    outcome = mechanic.outcome_of(faces)
    return CheckResult(
        success=mechanic.succeeds(outcome),
        probability_used=float(success_probability(mechanic)),
        raw_roll=outcome,
    )


def simulate_count(target: Union[FourPL, Mechanic], n: int, rng: SplitMix64) -> int:
    """Number of successes over ``n`` checks; draws match n single resolutions."""
    if n < 0:
        raise ValueError(f"trial count must be nonnegative, got {n}")
    successes = 0
    if isinstance(target, FourPL):
        p = target.probability()
        rand = rng.random
        for _ in range(n):
            if rand() < p:
                successes += 1
        return successes
    sides = target.die_sides
    count = target.dice_count
    roll = rng.roll_die
    outcome_of = target.outcome_of
    succeeds = target.succeeds
    for _ in range(n):
        if succeeds(outcome_of([roll(sides) for _ in range(count)])):
            successes += 1
    return successes


def opposed(a: float, b: float) -> Probability:
    """Chance that multiplicative skill ``a`` beats ``b``: a / (a + b)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"opposed skills must be positive and finite, got {a}, {b}")
    return a / (a + b)


def opposed_logit(theta_a: float, theta_b: float) -> Probability:
    """Chance that logit skill ``theta_a`` beats ``theta_b``."""
    gap = theta_a - theta_b
    if math.isnan(gap):
        raise ValueError(f"logit skills have no defined gap, got {theta_a}, {theta_b}")
    return sigmoid(gap)


@dataclass(frozen=True)
class Rating:
    """Elo rating with its update gain. 400 points of gap mean 10:1 odds."""

    value: float
    k_factor: float = 32.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"rating must be finite, got {self.value}")
        if not 0.0 < self.k_factor < math.inf:
            raise ValueError(f"k_factor must be positive and finite, got {self.k_factor}")


def elo_expected(rating_a: float, rating_b: float) -> float:
    """Expected score of A against B: 1 / (1 + 10^(-(ra - rb) / 400)).

    A gap too wide for a float power gives the limit, 0.0.
    """
    gap = rating_a - rating_b
    if math.isnan(gap):
        raise ValueError(f"ratings have no defined gap, got {rating_a}, {rating_b}")
    try:
        return 1.0 / (1.0 + 10.0 ** (-gap / 400.0))
    except OverflowError:
        return 0.0


def elo_update(ra: Rating, rb: Rating, score_a: float) -> tuple[Rating, Rating]:
    """Update a pair of ratings after one game; score_a is 1, 0.5 or 0.

    Both players must share a k_factor: the pair's total rating is conserved
    by construction (B's new value is derived from the pair total), and
    mixed gains would break that.
    """
    if score_a not in (0.0, 0.5, 1.0):
        raise ValueError(f"score must be 0, 0.5 or 1, got {score_a}")
    if ra.k_factor != rb.k_factor:
        raise ValueError(
            f"k_factor mismatch ({ra.k_factor} vs {rb.k_factor}) would break "
            "rating conservation"
        )
    total = ra.value + rb.value
    expected = elo_expected(ra.value, rb.value)
    new_a = ra.value + ra.k_factor * (score_a - expected)
    return Rating(new_a, ra.k_factor), Rating(total - new_a, rb.k_factor)
