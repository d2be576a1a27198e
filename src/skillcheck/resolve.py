"""Runtime task resolution: seeded sampling, opposed checks and Elo updates.

Sampling is deterministic: every draw comes from an explicit generator
value passed by the caller, so identical seeds replay identical result
sequences. Generators are never shared implicitly; give each thread its
own instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import _EXPORTS
from .dice import Mechanic, success_probability
from .logistic import FourPL, Probability, rasch_ratio, sigmoid

__all__ = list(_EXPORTS["resolve"])

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# Every face and every outcome must fit in int64, for the batch path: dice * sides < 2**63.
_BOUND = 1 << 63
# Draws per numpy block of the batch path, which bounds its memory.
_BLOCK = 8192


def _check_dice(dice: int, sides: int) -> None:
    if sides < 1:
        raise ValueError(f"die must have at least 1 side, got {sides}")
    if dice * sides >= _BOUND:
        raise ValueError(f"dice * sides must be below 2**63, got {dice} * {sides}")


def _limit(sides: int) -> int:
    """``roll_die``'s rejection bound: draws at or above it are redrawn; 2**64 rejects none."""
    return ((1 << 64) // sides) * sides


@functools.cache
def _steps():
    """``i * gamma`` mod 2**64 for i in 1.._BLOCK: a block's states less the start state."""
    import numpy as np

    steps = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GAMMA
    steps.flags.writeable = False
    return steps


class SplitMix64:
    """SplitMix64 generator: 64 bits of state, one additive constant.

    Small, fast and well studied; reproducibility is guaranteed within a
    build for a given seed. Die faces are drawn by rejection sampling so no
    face is favored by modulo bias.

    The state after ``i`` draws is ``seed + i * gamma`` mod 2**64, so a block
    of draws is one numpy expression (Steele, Lea & Flood 2014); scalar and
    block draws share the one stream and can be mixed freely.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _block(self, k: int):
        """The next ``k <= _BLOCK`` outputs as a numpy uint64 array; the state moves ``k`` draws."""
        z = _steps()[:k] + self._state  # uint64 arithmetic wraps mod 2**64
        self._state = (self._state + k * _GAMMA) & _MASK64
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        return z

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def roll_die(self, sides: int) -> int:
        """Uniform face in 1..sides, bias free; ``sides`` must be below 2**63."""
        if not 0 < sides < _BOUND:
            _check_dice(1, sides)
        limit = _limit(sides)
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
    _check_dice(mechanic.dice, mechanic.sides)
    p = float(success_probability(mechanic))  # before the rolls: it refuses what is past the caps
    faces = [rng.roll_die(mechanic.sides) for _ in range(mechanic.dice)]
    outcome = mechanic.outcome_of(faces)
    return CheckResult(success=mechanic.succeeds(outcome), probability_used=p, raw_roll=outcome)


def _model_flags(p: float, n: int, rng: SplitMix64) -> Iterator:
    # rng.random() < p: (v >> 11) * 2**-53 < p, and p * 2**53 is exact, so the integer
    # v >> 11 passes below its ceiling, a Python int in 0..2**53 + 2.
    cut = math.ceil(p * 2**53)
    for done in range(0, n, _BLOCK):
        v = rng._block(min(_BLOCK, n - done))
        yield v >> 11 < cut


def _mechanic_flags(m: Mechanic, n: int, rng: SplitMix64) -> Iterator:
    import numpy as np

    sides, dice = m.sides, m.dice
    limit = _limit(sides)
    block = _BLOCK // dice * dice or _BLOCK  # whole trials, unless one trial outgrows a block
    pending, have = [], 0  # accepted faces of unfinished trials, joined once one completes
    while n:
        # Draw no more than the trials left need, so the last block is used to its last draw.
        v = rng._block(min(block, n * dice - have))
        if limit <= _MASK64 and int(v.max()) >= limit:
            v = v[v < limit]
        q = v // sides  # v % sides is v - q * sides: numpy vectorises // by a scalar, not %
        q *= sides
        v -= q
        v += 1
        pending.append(v.view(np.int64))  # faces are below 2**63
        have += len(v)
        trials = have // dice
        if trials:
            faces = pending[0] if len(pending) == 1 else np.concatenate(pending)
            n -= trials
            have -= trials * dice
            yield m._flags(faces[: trials * dice].reshape(trials, dice))
            pending = [faces[trials * dice :]] if have else []


def _successes(target: Union[FourPL, Mechanic], n: int, rng: SplitMix64) -> Iterator:
    """Success flags of ``n`` checks as numpy bool arrays, one per block of draws.

    The flags and the state after the last one are those of ``n`` calls of
    ``resolve_model`` or ``resolve_mechanic``. The arguments are checked here,
    before the first block is drawn.
    """
    if n < 0:
        raise ValueError(f"trial count must be nonnegative, got {n}")
    if isinstance(target, FourPL):
        return _model_flags(target.probability(), n, rng)
    _check_dice(target.dice, target.sides)
    return _mechanic_flags(target, n, rng)


def simulate_count(target: Union[FourPL, Mechanic], n: int, rng: SplitMix64) -> int:
    """Number of successes over ``n`` checks; draws match n single resolutions."""
    import numpy as np

    return sum(map(np.count_nonzero, _successes(target, n, rng)))


def opposed(a: float, b: float) -> Probability:
    """Chance that multiplicative skill ``a`` beats ``b``: a / (a + b)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"opposed skills must be positive and finite, got {a}, {b}")
    return rasch_ratio(a, b)


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
    by construction (B's new value is derived from the pair total, or from
    A's gain when the total overflows a float), and mixed gains would break that.
    """
    if score_a not in (0.0, 0.5, 1.0):
        raise ValueError(f"score must be 0, 0.5 or 1, got {score_a}")
    if ra.k_factor != rb.k_factor:
        raise ValueError(
            f"k_factor mismatch ({ra.k_factor} vs {rb.k_factor}) would break "
            "rating conservation"
        )
    total = ra.value + rb.value
    new_a = ra.value + ra.k_factor * (score_a - elo_expected(ra.value, rb.value))
    new_b = total - new_a if math.isfinite(total) else rb.value - (new_a - ra.value)
    return Rating(new_a, ra.k_factor), Rating(new_b, rb.k_factor)
