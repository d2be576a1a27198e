"""Exact probability distributions for the classic tabletop die mechanics.

Every probability here is an exact ``fractions.Fraction`` backed by
arbitrary-precision integers, so results never overflow or accumulate
rounding error. Convert to float only at the edges (reporting, plotting).

Comparison conventions, since published games disagree:

* roll-over style checks succeed on a meet-or-beat basis (``>=``),
* roll-under style checks succeed on roll less-than-or-equal (``<=``).

Modifiers may push a success chance to exactly 0 or 1; that capping is a
property of these mechanics, not an error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from typing import ClassVar, Iterable, Mapping

__all__ = [
    "DiscreteDist",
    "Mechanic",
    "UniformRollUnder",
    "UniformRollOver",
    "SumRollOver",
    "BinomialPool",
    "GeneralPool",
    "StepDie",
    "MaxPool",
    "die",
    "constant",
    "convolve",
    "outcome_distribution",
    "success_probability",
    "dist_to_csv",
]


@dataclass(frozen=True)
class DiscreteDist:
    """Exact probability mass over integer outcomes.

    ``support`` is strictly increasing, every mass is positive, and the
    masses sum to exactly 1 (checked with rational arithmetic).
    """

    support: tuple[int, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass must have the same length")
        if not self.support:
            raise ValueError("distribution must have at least one outcome")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(m <= 0 for m in self.mass):
            raise ValueError("every mass must be positive")
        if sum(self.mass) != 1:
            raise ValueError("masses must sum to exactly 1")
        cum = []
        total = Fraction(0)
        for m in self.mass:
            total += m
            cum.append(total)
        object.__setattr__(self, "_cum", tuple(cum))

    @classmethod
    def from_mapping(cls, pmf: Mapping[int, Fraction]) -> "DiscreteDist":
        """Build from an outcome-to-mass mapping, dropping zero-mass points."""
        items = sorted((k, Fraction(v)) for k, v in pmf.items() if v != 0)
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    def p(self, outcome: int) -> Fraction:
        """Mass at a single outcome (zero off the support)."""
        i = bisect_right(self.support, outcome) - 1
        if i >= 0 and self.support[i] == outcome:
            return self.mass[i]
        return Fraction(0)

    def cdf(self, x: float) -> Fraction:
        """P(X <= x), exact."""
        i = bisect_right(self.support, x)
        if i == 0:
            return Fraction(0)
        return self._cum[i - 1]  # type: ignore[attr-defined]

    def tail_geq(self, threshold: float) -> Fraction:
        """P(X >= threshold), exact."""
        count_below = bisect_left(self.support, threshold)
        if count_below == 0:
            return Fraction(1)
        return 1 - self._cum[count_below - 1]  # type: ignore[attr-defined]

    def mean(self) -> Fraction:
        return sum((Fraction(k) * m for k, m in zip(self.support, self.mass)), Fraction(0))

    def variance(self) -> Fraction:
        mu = self.mean()
        return sum(((Fraction(k) - mu) ** 2 * m for k, m in zip(self.support, self.mass)), Fraction(0))

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return zip(self.support, self.mass)


def die(sides: int) -> DiscreteDist:
    """Uniform distribution of one fair die with faces 1..sides."""
    if sides < 2:
        raise ValueError(f"die must have at least 2 sides, got {sides}")
    m = Fraction(1, sides)
    return DiscreteDist(tuple(range(1, sides + 1)), (m,) * sides)


def constant(value: int) -> DiscreteDist:
    """Point mass at a single integer (the identity for convolution)."""
    return DiscreteDist((value,), (Fraction(1),))


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Distribution of the sum of independent draws from ``a`` and ``b``."""
    acc: dict[int, Fraction] = {}
    for ka, ma in a.items():
        for kb, mb in b.items():
            k = ka + kb
            acc[k] = acc.get(k, Fraction(0)) + ma * mb
    return DiscreteDist.from_mapping(acc)


def _count_distribution(m: "Mechanic") -> DiscreteDist:
    p = Fraction(m.sides - m.threshold + 1, m.sides)
    q = 1 - p
    pmf = {k: comb(m.dice, k) * p**k * q ** (m.dice - k) for k in range(m.dice + 1)}
    return DiscreteDist.from_mapping(pmf)


def _sum_distribution(m: "Mechanic") -> DiscreteDist:
    # Convolution cost grows as (dice * sides)^2: seconds at 10d100, minutes at 60d100.
    if m.dice * m.sides > 1000:
        raise ValueError(f"exact sums need --dice * --sides <= 1000, got {m.dice} * {m.sides}")
    return reduce(convolve, [die(m.sides)] * m.dice)


def _max_distribution(m: "Mechanic") -> DiscreteDist:
    # P(max = k) = (k^n - (k-1)^n) / d^n
    n, d = m.dice, m.sides
    total = d**n
    pmf = {k: Fraction(k**n - (k - 1) ** n, total) for k in range(1, d + 1)}
    return DiscreteDist.from_mapping(pmf)


# Per reducer: the outcome of one attempt's faces, and its exact distribution.
_REDUCERS = {
    "face": (lambda m, faces: faces[0], lambda m: die(m.sides)),
    "sum": (lambda m, faces: sum(faces), _sum_distribution),
    "count": (lambda m, faces: sum(1 for f in faces if f >= m.threshold), _count_distribution),
    "max": (lambda m, faces: max(faces), _max_distribution),
}


def _at_most(m: "Mechanic", outcome: int) -> bool:
    return outcome <= m._limit  # type: ignore[attr-defined]


def _at_least(m: "Mechanic", outcome: int) -> bool:
    return outcome >= m._limit  # type: ignore[attr-defined]


class Mechanic:
    """One die mechanic plus its success rule.

    The outcome variable (single roll, sum, success count, or maximum) is
    separated from the success rule so the exact distribution, the success
    probability and live sampling all share one definition.

    A family is a frozen dataclass with a ``sides`` field, a ``dice`` field
    when it rolls more than one die, and two class-level facts from which
    ``outcome_of(faces)`` and ``succeeds(outcome)`` are made:

    * ``reducer``: how the faces of one attempt become the outcome: the
      single ``"face"``, their ``"sum"``, the ``"count"`` of faces at or
      above ``threshold``, or their ``"max"``;
    * ``bound``: the name of the field the outcome is held against. A
      ``"target"`` succeeds on ``outcome <= target``; a ``"required"`` count
      or a ``"difficulty"`` on ``outcome >= bound - modifier``, where a
      family without a ``modifier`` field has modifier 0.
    """

    reducer: ClassVar[str]
    bound: ClassVar[str]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Chosen once per family, so that a roll pays for no dispatch.
        cls.outcome_of, cls._distribution = _REDUCERS[cls.reducer]  # type: ignore[attr-defined]
        cls.succeeds = _at_most if cls.bound == "target" else _at_least  # type: ignore

    def __post_init__(self) -> None:
        if self.die_sides < 2:
            raise ValueError(f"die must have at least 2 sides, got {self.die_sides}")
        if self.dice_count < 1:
            raise ValueError(f"must roll at least 1 die, got {self.dice_count}")
        limit = getattr(self, self.bound) - getattr(self, "modifier", 0)
        object.__setattr__(self, "_limit", limit)

    @property
    def dice_count(self) -> int:
        """Number of dice rolled per attempt."""
        return getattr(self, "dice", 1)

    @property
    def die_sides(self) -> int:
        """Face count of each die rolled."""
        return self.sides  # type: ignore[attr-defined]

    def outcome_distribution(self) -> DiscreteDist:
        """Exact distribution of the outcome variable, before the success rule.

        A sum of more than 1000 (``dice * sides``) raises ``ValueError``.
        """
        return self._distribution()  # type: ignore[attr-defined]


@dataclass(frozen=True)
class UniformRollUnder(Mechanic):
    """Roll one die; succeed when the roll is at most the (modified) target."""

    sides: int
    target: int

    reducer = "face"
    bound = "target"


@dataclass(frozen=True)
class UniformRollOver(Mechanic):
    """Roll one die; succeed when roll + modifier meets or beats the difficulty."""

    sides: int
    modifier: int = 0
    difficulty: int = 0

    reducer = "face"
    bound = "difficulty"


@dataclass(frozen=True)
class SumRollOver(Mechanic):
    """Roll several identical dice; succeed when sum + modifier meets the difficulty."""

    dice: int
    sides: int
    modifier: int = 0
    difficulty: int = 0

    reducer = "sum"
    bound = "difficulty"


@dataclass(frozen=True)
class BinomialPool(Mechanic):
    """Roll a pool; each die at or above the threshold counts one success.

    The outcome variable is the success count; the check passes when at
    least ``required`` dice succeed.
    """

    dice: int
    sides: int
    threshold: int
    required: int

    reducer = "count"
    bound = "required"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.threshold <= self.sides:
            raise ValueError(
                f"threshold must be within 1..{self.sides}, got {self.threshold}"
            )
        if not 0 <= self.required <= self.dice:
            raise ValueError(
                f"required successes must be within 0..{self.dice}, got {self.required}"
            )


@dataclass(frozen=True)
class GeneralPool(Mechanic):
    """Skill sets the number of dice; succeed when the pool's sum meets the difficulty."""

    dice: int
    sides: int
    difficulty: int = 0

    reducer = "sum"
    bound = "difficulty"


@dataclass(frozen=True)
class StepDie(Mechanic):
    """Skill picks the die size; succeed when the single roll meets the difficulty.

    The die size is given directly. Mapping a skill rating onto a die type
    is left to the caller, because the surveyed games do not agree on one.
    """

    sides: int
    difficulty: int = 0

    reducer = "face"
    bound = "difficulty"


@dataclass(frozen=True)
class MaxPool(Mechanic):
    """Roll a pool; succeed when the highest die meets the difficulty."""

    dice: int
    sides: int
    difficulty: int = 0

    reducer = "max"
    bound = "difficulty"


def outcome_distribution(m: Mechanic) -> DiscreteDist:
    """Exact distribution of the mechanic's outcome variable."""
    return m.outcome_distribution()


def success_probability(m: Mechanic) -> Fraction:
    """Exact probability that the mechanic's success rule fires."""
    dist = m.outcome_distribution()
    return sum((mass for k, mass in dist.items() if m.succeeds(k)), Fraction(0))


def dist_to_csv(d: DiscreteDist) -> str:
    """Render a distribution as CSV with columns outcome,num,den,float.

    The float column is the decimal value rounded to 12 significant digits.
    """
    lines = ["outcome,num,den,float"]
    for k, m in d.items():
        lines.append(f"{k},{m.numerator},{m.denominator},{float(m):.12g}")
    return "\n".join(lines) + "\n"
