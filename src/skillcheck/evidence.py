"""Multiplicative evidence combination on the odds scale.

Updating a prior odds by independent factors is plain multiplication:
revised = prior * L1 * ... * Ln, where each likelihood ratio L measures
how much more likely the observed fact is under success than failure. A
factor of strength L for an outcome is automatically a factor of 1/L
against it. Skill and difficulty drop in as one factor each, which is how
this module connects to ``logistic.rasch_ratio``.

Combination runs in log space so long factor chains neither overflow nor
underflow.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from . import _EXPORTS
from .logistic import Odds

__all__ = [*_EXPORTS["evidence"], "GRADE_BOUNDARIES", "GRADE_LABELS"]

# Grade bands for the strength of a likelihood ratio. Exact boundary values
# land in the higher grade, making the grading a total function.
GRADE_BOUNDARIES: tuple[float, ...] = (1.0, 10.0**0.5, 10.0, 10.0**1.5, 100.0)
GRADE_LABELS: tuple[str, ...] = (
    "against the hypothesis",
    "barely worth a mention",
    "substantial",
    "strong",
    "very strong",
    "decisive",
)


@dataclass(frozen=True)
class EvidenceGrade:
    grade: int
    label: str


def _check_factor(value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"likelihood ratio must be positive, got {value}")


def _exp(log_odds: float) -> Odds:
    """Odds from log-odds; odds beyond the float range are infinite (certainty)."""
    try:
        return math.exp(log_odds)
    except OverflowError:
        return math.inf


def update(prior: Odds, factors: Iterable[float]) -> Odds:
    """Revise prior odds by a batch of independent likelihood ratios.

    Order independent. An empty batch returns the prior unchanged, and a
    prior of exactly 0 (impossible) stays 0 no matter the evidence.
    """
    if not prior >= 0.0:
        raise ValueError(f"prior odds must be nonnegative, got {prior}")
    factors = list(factors)
    for f in factors:
        _check_factor(f)
    if prior == 0.0 or not factors:
        return prior
    if math.isinf(prior):
        return math.inf
    return _exp(math.log(prior) + sum(math.log(f) for f in factors))


def update_reliable(prior: Odds, factor: float, reliability: float) -> Odds:
    """Revise prior odds by one factor discounted to prior * factor**reliability.

    Reliability 0 ignores the evidence entirely, 1 applies it at full
    strength. Values outside [0, 1] are legal and act as a slope on the
    log-odds scale.
    """
    if not prior >= 0.0:
        raise ValueError(f"prior odds must be nonnegative, got {prior}")
    _check_factor(factor)
    if not math.isfinite(reliability):
        raise ValueError(f"reliability must be finite, got {reliability}")
    if prior == 0.0 or math.isinf(prior):
        return prior
    if reliability == 0.0:
        return prior
    return _exp(math.log(prior) + reliability * math.log(factor))


def weight_of_evidence(factor: float) -> float:
    """Strength of one factor in base-10 log units; additive under combination."""
    _check_factor(factor)
    return math.log10(factor)


def jeffreys_grade(factor: float) -> EvidenceGrade:
    """Grade a likelihood ratio on the six-band evidence scale.

    Bands run from 0 (the evidence favors the opposite outcome) through 5
    (decisive), with boundaries at 1, 10^0.5, 10, 10^1.5 and 100.
    """
    _check_factor(factor)
    g = bisect_right(GRADE_BOUNDARIES, factor)
    return EvidenceGrade(grade=g, label=GRADE_LABELS[g])
