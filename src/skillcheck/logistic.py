"""Success-chance scales and the logistic family of task-resolution models.

Three interchangeable scales describe a chance of success:

* probability ``p`` in [0, 1],
* odds ``o = p / (1 - p)`` in [0, +inf], where +inf means certainty,
* logit ``t = ln(o)``, the additive log-odds scale.

The log-odds scale is the canonical internal one; the multiplicative
(ratio) view is first class because skill-to-difficulty ratios read
naturally there: a skill ``a`` against difficulty ``x`` succeeds with
probability ``a / (a + x)``, i.e. at odds ``a:x``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from typing import Any

from . import _EXPORTS

__all__ = list(_EXPORTS["logistic"])

# Scale aliases. Invariants are enforced by the functions below rather than
# by wrapper classes: Probability in [0, 1]; Odds >= 0 with +inf allowed;
# Logit any finite real.
Probability = float
Odds = float
Logit = float


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be within [0, 1], got {p}")


def prob_to_odds(p: Probability) -> Odds:
    """Convert probability to odds for:against; p = 1 maps to +inf."""
    _check_probability(p)
    if p == 1.0:
        return math.inf
    return p / (1.0 - p)


def odds_to_prob(o: Odds) -> Probability:
    """Convert odds to probability; +inf maps to 1."""
    if not o >= 0.0:
        raise ValueError(f"odds must be nonnegative, got {o}")
    if math.isinf(o):
        return 1.0
    return o / (1.0 + o)


def logit(p: Probability) -> Logit:
    """Log-odds of ``p``. Requires 0 < p < 1.

    Exactly 0 or 1 has no finite logit; model floors and ceilings with the
    asymptote parameters of ``FourPL`` instead.
    """
    _check_probability(p)
    if p == 0.0 or p == 1.0:
        raise ValueError("logit of exactly 0 or 1 is undefined; use asymptotes")
    return math.log(p) - math.log1p(-p)


def sigmoid(t: Logit) -> Probability:
    """Logistic function 1 / (1 + e^-t), computed in the stable branch form."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def rasch_ratio(a: float, x: float) -> Probability:
    """Success probability a / (a + x) for skill ``a`` against difficulty ``x``.

    Both arguments live on the multiplicative scale and must be positive and
    finite. Scale invariant: rasch_ratio(k*a, k*x) == rasch_ratio(a, x), and
    the value equals sigmoid(ln(a) - ln(x)).
    """
    if not (0.0 < a < math.inf and 0.0 < x < math.inf):
        raise ValueError(f"skill and difficulty must be positive and finite, got {a}, {x}")
    if a + x == math.inf:  # halving both is exact here and keeps the ratio
        a, x = a / 2.0, x / 2.0
    return a / (a + x)


@dataclass(frozen=True)
class FourPL:
    """Four-parameter logistic model of one task attempt.

    P(success) = lower + (upper - lower) / (1 + e^(-slope * (ability - difficulty)))

    ``ability`` and ``difficulty`` are logits. ``slope`` scales how sharply
    the chance responds to their gap (0 means the outcome ignores skill
    entirely). ``lower`` is the floor the chance converges to for hopeless
    attempts, e.g. blind guessing among four options gives lower = 0.25;
    ``upper`` is the matching ceiling, below 1 when even mastery can fail
    randomly. Defaults give the plain one-parameter (Rasch) model.
    """

    ability: float
    difficulty: float
    slope: float = 1.0
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        for name in ("ability", "difficulty", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.slope >= 0.0:
            raise ValueError(f"slope must be nonnegative, got {self.slope}")
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"asymptotes must satisfy 0 <= lower <= upper <= 1, "
                f"got lower={self.lower}, upper={self.upper}"
            )

    def probability(self) -> Probability:
        """Evaluate the model's success probability."""
        gap = self.ability - self.difficulty
        if math.isfinite(gap):
            core = sigmoid(self.slope * gap)
        else:  # the gap overflows; slope * gap would be 0 * inf = nan for a slope of 0
            core = sigmoid(self.slope * self.ability - self.slope * self.difficulty)
        return self.lower + (self.upper - self.lower) * core

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FourPL":
        """Build from a mapping; slope defaults to 1, asymptotes to 0 and 1.

        Raises ``ValueError`` for a non-mapping, an unknown or missing field,
        or a value that ``float`` rejects.
        """
        if not isinstance(d, Mapping):
            raise ValueError("model must be a JSON object")
        names = [f.name for f in fields(cls)]
        unknown = set(d) - set(names)
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        if "ability" not in d or "difficulty" not in d:
            raise ValueError("model requires ability and difficulty")
        return cls(**{name: _number(name, d[name]) for name in names if name in d})


def _number(field: str, value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"model field {field} must be a number, got {value!r}") from None


def _refused(mean: float, width: str, value: float) -> ValueError:
    """The error of a CDF whose guard failed: a non-finite ``mean``, else its width."""
    if not abs(mean) < math.inf:
        return ValueError(f"mean must be finite, got {mean}")
    return ValueError(f"{width}, got {value}")


def logistic_cdf(t: float, mean: float = 0.0, scale: float = 1.0) -> Probability:
    """CDF of the logistic distribution; variance is scale^2 * pi^2 / 3."""
    if not 0.0 < scale < math.inf > abs(mean):
        raise _refused(mean, "scale must be positive and finite", scale)
    return sigmoid((t - mean) / scale)


def normal_cdf(t: float, mean: float = 0.0, sd: float = 1.0) -> Probability:
    """CDF of the normal distribution via the error function."""
    width = sd * math.sqrt(2.0)
    if not 0.0 < width < math.inf > abs(mean):
        raise _refused(mean, "sd must be positive with sd * sqrt(2) finite", sd)
    return 0.5 * (1.0 + math.erf((t - mean) / width))


def uniform_cdf(t: float, mean: float = 0.0, halfwidth: float = 1.0) -> Probability:
    """CDF of the uniform distribution on [mean - halfwidth, mean + halfwidth].

    Clamps to exactly 0 and 1 outside the interval; this is the piecewise
    linear chance curve that flat-roll mechanics produce.
    """
    width = 2.0 * halfwidth
    if not 0.0 < width < math.inf > abs(mean):
        raise _refused(mean, "halfwidth must be positive with 2 * halfwidth finite", halfwidth)
    if t <= mean - halfwidth:
        return 0.0
    if t >= mean + halfwidth:
        return 1.0
    return (t - (mean - halfwidth)) / width
