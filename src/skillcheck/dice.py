"""Exact probability distributions for the classic tabletop die mechanics.

Distributions hold integer counts of ways over one denominator and give
exact ``fractions.Fraction`` probabilities, so results never overflow or
round. A sum's counts follow a three-term integer recurrence up to the
middle outcome, and mirror it past there. A success probability builds no
distribution: it counts the ways to stay at or below one limit in closed
form, out of ``sides**dice`` (inclusion-exclusion for sums, a binomial sum
for counts, a power for maxima). Convert to float only at the edges
(reporting, plotting).

One work bound guards every exact computation on a mechanic but a one-die
count of faces: ``outcomes * (bits + 64) <= 10**7`` and ``bits <= 2**18``,
with ``bits`` the bit length of ``sides - 1`` times ``dice``. Past it,
``ValueError`` is raised at once.

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
from functools import cached_property
from itertools import accumulate, islice
from math import comb, gcd, lcm
from operator import lt
from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["dice"])


@dataclass(frozen=True, init=False, repr=False)
class DiscreteDist:
    """Exact probability mass over integer outcomes.

    ``support`` is strictly increasing; the mass at ``support[i]`` is ``counts[i] / den``.
    The counts are positive, sum to exactly ``den`` and share no factor with it, so equal
    distributions have equal fields. ``mass`` gives the ``Fraction``s.
    """

    support: tuple[int, ...]
    counts: tuple[int, ...]
    den: int

    def __init__(self, support: Iterable[int], mass: Iterable[Fraction]) -> None:
        mass = [Fraction(m) for m in mass]
        den = lcm(*(m.denominator for m in mass))
        self._fill(support, [m.numerator * (den // m.denominator) for m in mass], den)

    def _fill(self, support: Iterable[int], counts: Sequence[int], den: int) -> "DiscreteDist":
        g = gcd(den, *counts)
        self.__dict__.update(support=tuple(support), counts=tuple([c // g for c in counts]), den=den // g)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if len(self.support) != len(self.counts):
            raise ValueError("support and mass must have the same length")
        if not self.support:
            raise ValueError("distribution must have at least one outcome")
        if not all(map(lt, self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if min(self.counts) <= 0:
            raise ValueError("every mass must be positive")
        if sum(self.counts) != self.den:
            raise ValueError("masses must sum to exactly 1")

    @cached_property
    def _cum(self) -> tuple[int, ...]:  # [i]: the ways below support[i]
        return (0, *accumulate(self.counts))

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.counts)

    def __repr__(self) -> str:
        return f"DiscreteDist(support={self.support!r}, mass={self.mass!r})"

    @classmethod
    def from_mapping(cls, pmf: Mapping[int, Fraction]) -> "DiscreteDist":
        """Build from an outcome-to-mass mapping, dropping zero-mass points."""
        items = sorted((k, Fraction(v)) for k, v in pmf.items() if v != 0)
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    def p(self, outcome: int) -> Fraction:
        """Mass at a single outcome (zero off the support)."""
        i = bisect_right(self.support, outcome) - 1
        return Fraction(self.counts[i] if i >= 0 and self.support[i] == outcome else 0, self.den)

    def cdf(self, x: float) -> Fraction:
        """P(X <= x), exact."""
        return Fraction(self._cum[bisect_right(self.support, x)], self.den)

    def tail_geq(self, threshold: float) -> Fraction:
        """P(X >= threshold), exact."""
        below = self._cum[bisect_left(self.support, threshold)]
        return Fraction(self.den - below, self.den)

    def mean(self) -> Fraction:
        return Fraction(sum(k * c for k, c in zip(self.support, self.counts)), self.den)

    def variance(self) -> Fraction:
        s1, s2 = self._power_sums()
        return Fraction(s2 * self.den - s1 * s1, self.den**2)

    def _power_sums(self) -> tuple[int, int]:
        """The sums of k * count and k * k * count over the support, in one walk."""
        s1 = s2 = 0
        for k, c in zip(self.support, self.counts):
            kc = k * c
            s1 += kc
            s2 += k * kc
        return s1, s2

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return zip(self.support, self.mass)


def _counted(lo: int, counts: Iterable[int], den: int) -> DiscreteDist:
    """Counts of ways of ``lo, lo + 1, ...`` over ``den``; zero counts drop out."""
    counts = list(counts)
    support = [k for k, c in enumerate(counts, lo) if c]
    return DiscreteDist.__new__(DiscreteDist)._fill(support, [c for c in counts if c], den)


def die(sides: int) -> DiscreteDist:
    """Uniform distribution of one fair die with faces 1..sides."""
    if sides < 2:
        raise ValueError(f"die must have at least 2 sides, got {sides}")
    return _counted(1, (1,) * sides, sides)


def constant(value: int) -> DiscreteDist:
    """Point mass at a single integer (the identity for convolution)."""
    return _counted(value, (1,), 1)


def _pack(d: DiscreteDist, width: int) -> int:
    at = dict(zip(d.support, d.counts))
    span = range(d.support[0], d.support[-1] + 1)
    return int.from_bytes(b"".join(at.get(k, 0).to_bytes(width, "little") for k in span), "little")


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Distribution of the sum of independent draws from ``a`` and ``b``.

    By Kronecker substitution: counts are base-256**width digits of one integer each, and no
    count of the sum exceeds its denominator, so one integer product convolves them without
    a carry between slots.
    """
    den = a.den * b.den
    span = a.support[-1] + b.support[-1] - a.support[0] - b.support[0] + 1
    need = _work_needed(span, den.bit_length())
    if need:
        raise ValueError(f"convolve needs {need}, outcomes being the span of the sum "
                         "and bits the bit length of its denominator")
    width = (den.bit_length() + 8) // 8
    packed = _pack(a, width) * _pack(b, width)
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    counts = (int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))
    return _counted(a.support[0] + b.support[0], counts, den)


# The work bound. Each outcome costs a count as wide as the denominator sides**dice plus a
# fixed share (its CSV row, its float) of about 64 bits; reducing a count and taking moments
# are quadratic in its width, so the width is bounded too. At the bounds, on one x86-64 core:
# a sum's `dist` takes 0.08 s or less (3129d2, nearly all of it `dist_to_csv`), any other
# `dist` up to 0.5 s (binomial 700d2**20), a one-die `compare --pair dice` 0.27 s (123456
# sides), and any command at the width bound 0.25 s or less (binomial 37d2**7084). Without
# the width clause, max 1500000d3 took 6 s (`dist --success`) to 43 s (`compare --pair dice`).
_MAX_WORK = 10**7
_MAX_BITS = 2**18


def _shown(k: int) -> str:
    """``k`` in decimal, or as ``<b-bit integer>`` past the interpreter's limit for printing one."""
    try:
        return str(k)
    except ValueError:
        return f"<{k.bit_length()}-bit integer>"


def _work_needed(outcomes: int, bits: int) -> Optional[str]:
    """What the work bound asks of ``outcomes`` counts ``bits`` wide, or None if they meet it."""
    if outcomes * (bits + 64) > _MAX_WORK:
        return f"outcomes * (bits + 64) <= {_MAX_WORK}, got {_shown(outcomes)} * ({_shown(bits)} + 64)"
    if bits > _MAX_BITS:
        return f"bits <= {_MAX_BITS}, got {_shown(bits)}"
    return None


def _check_work(m: "Mechanic") -> None:
    n, sides = m.dice_count, m.die_sides
    outcomes = {"sum": n * (sides - 1) + 1, "count": n + 1}.get(m.reducer, sides)
    bits = n * (sides - 1).bit_length()  # at least the bit length of sides**dice
    need = _work_needed(outcomes, bits)
    if need:
        raise ValueError(f"exact {m.reducer} distributions need {need} for {_shown(n)}d{_shown(sides)}")


def _count_ways(m: "Mechanic") -> Iterator[int]:
    """Ways exactly k of the dice reach the threshold, C(n, k) * hit**k * miss**(n - k), for
    k = n down to 0: each from the last, trading a hit for a miss (hit >= 1, so the division
    is exact and never by zero)."""
    n, hit, miss = m.dice, m.sides - m.threshold + 1, m.threshold - 1
    ways = hit**n
    for k in range(n, -1, -1):
        yield ways
        ways = ways * k * miss // ((n - k + 1) * hit)


def _count_distribution(m: "Mechanic") -> DiscreteDist:
    return _counted(0, reversed(list(_count_ways(m))), m.sides**m.dice)


def _count_at_most(m: "Mechanic", s: int) -> int:
    """All the ways but the tail of k = n, n - 1, ..., s + 1 successes."""
    return m.sides**m.dice - sum(islice(_count_ways(m), max(m.dice - s, 0)))


def _sum_distribution(m: "Mechanic") -> DiscreteDist:
    """With faces 0..d-1, the ways c_k to total k have the generating function
    ((1 - x**d) / (1 - x))**n, which is holonomic, so they follow the three-term recurrence
    k c_k = (k - 1 + n) c_(k-1) + (k - d - n d) c_(k-d) + (top - k + 1 + d) c_(k-d-1),
    every division exact (Petkovsek, Wilf & Zeilberger, *A = B*, ch. 4). It runs up to the
    middle of 0..top; the counts are symmetric about it, c_k = c_(top-k)."""
    n, d = m.dice, m.sides
    top = n * (d - 1)
    a, b, e = n - 1, -d - n * d, top + 1 + d  # the coefficients are k + a, k + b and e - k
    c = [0] * d + [1]  # c[d + k] is c_k; the zeros stand for k = -d..-1
    for k in range(1, top // 2 + 1):
        c.append(((k + a) * c[-1] + (k + b) * c[k] + (e - k) * c[k - 1]) // k)
    c = c[d:]
    return _counted(n, c + c[top - len(c) :: -1], d**n)


def _sum_at_most(m: "Mechanic", s: int) -> int:
    """Ways the dice sum to at most ``s``, by inclusion-exclusion (de Moivre): with faces
    0..d-1 the ways to total at most t are sum_j (-1)^j C(n, j) C(t - j*d + n, n)."""
    n, d = m.dice, m.sides
    t, top = s - n, n * (d - 1)
    if t > top // 2:  # the sum is symmetric about top / 2; the other side has fewer terms
        return d**n - _sum_at_most(m, n + top - t - 1)
    return sum((-1) ** j * comb(n, j) * comb(t - j * d + n, n) for j in range(t // d + 1))


def _max_distribution(m: "Mechanic") -> DiscreteDist:
    # P(max = k) = (k^n - (k-1)^n) / d^n
    n, d = m.dice, m.sides
    return _counted(1, (k**n - (k - 1) ** n for k in range(1, d + 1)), d**n)


def _max_at_most(m: "Mechanic", s: int) -> int:
    return min(max(s, 0), m.sides) ** m.dice


# Per reducer: the outcome of one attempt's faces, its exact distribution, the outcomes
# of many attempts from a numpy array of faces (one attempt per row), and the ways of
# ``sides**dice`` that the outcome is at most ``s``.
_REDUCERS = {
    "face": (
        lambda m, faces: faces[0],
        lambda m: die(m.sides),
        lambda m, f: f[:, 0],
        lambda m, s: min(max(s, 0), m.sides),
    ),
    "sum": (lambda m, faces: sum(faces), _sum_distribution, lambda m, f: f.sum(1), _sum_at_most),
    "count": (
        lambda m, faces: sum(1 for f in faces if f >= m.threshold),
        _count_distribution,
        lambda m, f: (f >= m.threshold).sum(1),
        _count_at_most,
    ),
    "max": (lambda m, faces: max(faces), _max_distribution, lambda m, f: f.max(1), _max_at_most),
}


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
    * ``bound``: the name of the field the outcome is held against, less the
      ``modifier`` of a family that has one. Success is one cut, made once per
      mechanic, ``(outcome <= _cut) == _at_most``: a ``"target"`` succeeds on
      ``outcome <= target``, so it cuts there; a ``"required"`` count or a
      ``"difficulty"`` succeeds on ``outcome >= bound``, so it cuts one below.
    """

    reducer: ClassVar[str]
    bound: ClassVar[str]
    _at_most: ClassVar[bool]
    _cut: int

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Chosen once per family, so that a roll pays for no dispatch.
        row = _REDUCERS[cls.reducer]
        cls.outcome_of, cls._distribution, cls._outcomes_of, cls._ways_at_most = row  # type: ignore
        cls._at_most = cls.bound == "target"

    def __post_init__(self) -> None:
        if self.die_sides < 2:
            raise ValueError(f"die must have at least 2 sides, got {self.die_sides}")
        if self.dice_count < 1:
            raise ValueError(f"must roll at least 1 die, got {self.dice_count}")
        limit = getattr(self, self.bound) - getattr(self, "modifier", 0)
        object.__setattr__(self, "_cut", limit if self._at_most else limit - 1)

    def succeeds(self, outcome: int) -> bool:
        """Whether one attempt's outcome passes the check."""
        return (outcome <= self._cut) == self._at_most

    def _flags(self, faces):
        """``succeeds`` of each row of a numpy int64 array of faces, one attempt per row."""
        # Outcomes lie in 0..2**63 - 1, so clamping the cut to -1..2**63 - 1 keeps every
        # comparison and fits the cut in int64, which numpy 1.x needs to compare at all.
        cut = min(max(self._cut, -1), (1 << 63) - 1)
        return (self._outcomes_of(faces) <= cut) == self._at_most  # type: ignore[attr-defined]

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

        Raises ``ValueError`` past the work bound: ``outcomes * (bits + 64)`` above ``10**7``
        or ``bits`` above ``2**18``, where ``bits`` is ``dice`` times the bit length of
        ``sides - 1`` and the outcomes number ``dice * (sides - 1) + 1`` for a sum,
        ``dice + 1`` for a count and ``sides`` otherwise.
        """
        _check_work(self)
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
            raise ValueError(f"threshold must be within 1..{self.sides}, got {self.threshold}")
        if not 0 <= self.required <= self.dice:
            raise ValueError(f"required successes must be within 0..{self.dice}, got {self.required}")


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
    """Exact probability that the mechanic's success rule fires.

    A closed form that builds no distribution. A sum, count or max refuses the same
    mechanics as ``outcome_distribution``, past the same work bound and with the same
    ``ValueError``; a one-die family counts faces and answers for any number of sides,
    past the bound that refuses its distribution.
    """
    if m.reducer != "face":
        _check_work(m)
    ways = m._ways_at_most(m._cut)  # type: ignore[attr-defined]
    den = m.die_sides**m.dice_count
    return Fraction(ways if m._at_most else den - ways, den)


def dist_to_csv(d: DiscreteDist) -> str:
    """Render a distribution as CSV with columns outcome,num,den,float.

    The float column is the decimal value rounded to 12 significant digits.
    """
    tails: dict[int, str] = {}  # count to "num,den,float": counts repeat (a die, a sum's halves)
    lines = ["outcome,num,den,float"]
    for k, c in zip(d.support, d.counts):
        tail = tails.get(c)
        if tail is None:
            g = gcd(c, d.den)  # the reduced mass is (c // g) / (d.den // g)
            tail = tails[c] = f"{c // g},{d.den // g},{c / d.den:.12g}"
        lines.append(f"{k},{tail}")
    return "\n".join(lines) + "\n"
