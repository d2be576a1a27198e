"""Moment matching and CDF-distance tooling.

Quantifies how well the uniform, normal and dice-sum chance curves
approximate a logistic one: match means and variances, then measure the
largest absolute gap between cumulative distributions over a dense grid
(a Kolmogorov-style sup distance).

Moments of exact dice distributions are computed in rational arithmetic
and converted to float only when the matched parameters are produced.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from . import _EXPORTS
from .dice import DiscreteDist, SumRollOver, outcome_distribution
from .logistic import logistic_cdf, normal_cdf, sigmoid, uniform_cdf

__all__ = [*_EXPORTS["compare"], "report_csv", "FIGURE_IDS"]


@dataclass(frozen=True)
class LogisticParams:
    """Location and scale of a logistic distribution (variance s^2 * pi^2 / 3)."""

    mean: float
    scale: float

    def __post_init__(self) -> None:
        for name in ("mean", "scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 < self.scale * self.scale * math.pi**2 / 3.0 < math.inf:
            raise ValueError(f"scale {self.scale} gives no positive finite variance")

    @property
    def variance(self) -> float:
        return self.scale**2 * math.pi**2 / 3.0

    @property
    def sd(self) -> float:
        return self.scale * math.pi / math.sqrt(3.0)

    def cdf(self, t: float) -> float:
        return logistic_cdf(t, self.mean, self.scale)


@dataclass(frozen=True)
class ComparisonReport:
    """Two CDFs evaluated over a common grid, plus their sup distance."""

    grid: tuple[float, ...]
    cdf_a: tuple[float, ...]
    cdf_b: tuple[float, ...]
    sup_distance: float
    argmax_point: float


def moment_match_logistic(d: DiscreteDist) -> LogisticParams:
    """Logistic parameters with the same mean and variance as ``d``.

    A single-point distribution has zero variance and no logistic match, and neither has
    one whose variance underflows as a float (to zero or a subnormal).
    """
    if len(d.support) < 2:
        raise ValueError("cannot match a logistic to a single-point distribution")
    # Int true divisions round as float() of d.mean() and d.variance() do, without reducing.
    s1, s2 = d._power_sums()
    var = (s2 * d.den - s1 * s1) / (d.den * d.den)
    if var < sys.float_info.min:
        raise ValueError(f"cannot match a logistic: the variance underflows to {var!r} as a float")
    return LogisticParams(mean=s1 / d.den, scale=math.sqrt(3.0 * var) / math.pi)


def match_uniform_to_logistic(lp: LogisticParams) -> tuple[float, float]:
    """(mean, halfwidth) of the uniform with the same mean and variance.

    halfwidth = sqrt(3 * variance), which reduces to scale * pi.
    """
    return lp.mean, math.sqrt(3.0 * lp.variance)


def match_normal_to_logistic(lp: LogisticParams) -> tuple[float, float]:
    """(mean, sd) of the normal with the same mean and variance."""
    return lp.mean, math.sqrt(lp.variance)


def _largest_gap(
    grid: tuple[float, ...], va: Iterable[float], vb: Iterable[float]
) -> tuple[float, float]:
    """The largest |a - b| over ``grid`` and the first point that has it."""
    sup = 0.0
    argmax = grid[0]
    for x, a, b in zip(grid, va, vb):
        gap = abs(a - b)
        if gap > sup:
            sup = gap
            argmax = x
    return sup, argmax


def _report(grid: tuple[float, ...], va: Iterable[float], vb: Iterable[float]) -> ComparisonReport:
    """Two CDFs' values over ``grid``; the first largest gap wins."""
    va, vb = tuple(va), tuple(vb)
    sup, argmax = _largest_gap(grid, va, vb)
    return ComparisonReport(grid=grid, cdf_a=va, cdf_b=vb, sup_distance=sup, argmax_point=argmax)


# Grids past this many points are refused: a grid of 10**6 points between two float CDFs
# takes about 1.3 s and 150 MB on one x86-64 core.
_MAX_POINTS = 10**6


def _grid_count(lo: float, hi: float, step: float) -> int:
    """How many points ``lo + i * step`` lie on [lo, hi] (up to rounding)."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_POINTS:  # also refuses an infinite span
        raise ValueError(f"a grid from {lo} to {hi} by {step} has more than {_MAX_POINTS} points")
    return int(math.floor(span)) + 1


def sup_distance(
    cdf_a: Callable[[float], float], cdf_b: Callable[[float], float], lo: float, hi: float, step: float
) -> ComparisonReport:
    """Largest absolute gap between two CDF callables over an evenly spaced grid on [lo, hi].

    Grid points that round to the same float are read once. A grid of more than 10**6
    points raises ``ValueError``.
    """
    grid = tuple(sorted(set(lo + i * step for i in range(_grid_count(lo, hi, step)))))
    return _report(grid, map(cdf_a, grid), map(cdf_b, grid))


def discrete_vs_logistic(d: DiscreteDist) -> ComparisonReport:
    """Compare a dice distribution's step CDF to its moment-matched logistic.

    Both are evaluated at half-integer points k + 0.5 (the continuity
    adjustment for integer outcomes), from just below the support to just
    above it. cdf_a holds the step CDF, cdf_b the logistic.
    """
    lp = moment_match_logistic(d)
    lo = d.support[0] - 1
    grid = tuple(k + 0.5 for k in range(lo, d.support[-1] + 1))
    counts = [0] * len(grid)  # ways of each k, so their running sums are the ways at most k
    for k, c in zip(d.support, d.counts):
        counts[k - lo] = c
    steps = [ways / d.den for ways in accumulate(counts)]
    return _report(grid, steps, [sigmoid((x - lp.mean) / lp.scale) for x in grid])


def _default_grid(lp: LogisticParams) -> tuple[float, float, float]:
    # 1201 points spanning mean +/- 6 sd: stable to ~1e-4 in the reported
    # supremum. A summary reads 72 of them for the normal pair and 64 for the
    # uniform (_curve_summary).
    sd = lp.sd
    lo, hi = lp.mean - 6.0 * sd, lp.mean + 6.0 * sd
    step = (hi - lo) / 1200.0
    if not (lo < hi and 0.0 < step < math.inf):
        raise ValueError(f"mean {lp.mean} and scale {lp.scale} give no finite grid to resolve")
    return lo, hi, step


class _Curve(NamedTuple):
    """A chance curve to hold against a logistic, with a bound on how its gap to it bends.

    ``bend / scale**2`` bounds |f''| for f = cdf - the logistic's CDF, away from ``kinks``,
    the points where the curve's slope jumps.
    """

    cdf: Callable[[float], float]
    bend: float
    kinks: tuple[float, ...] = ()


# |F''| of a logistic is at most 1 / (6 sqrt(3) s^2), and of a normal 1 / (sd^2 sqrt(2 pi e)),
# which is 3 / (pi^2 sqrt(2 pi e) s^2) for the sd matched to scale s.
_LOGISTIC_BEND = 1.0 / (6.0 * math.sqrt(3.0))
_NORMAL_BEND = 3.0 / (math.pi**2 * math.sqrt(2.0 * math.pi * math.e))


def _normal_curve(lp: LogisticParams) -> _Curve:
    mean, sd = match_normal_to_logistic(lp)
    return _Curve(lambda t: normal_cdf(t, mean, sd), _NORMAL_BEND + _LOGISTIC_BEND)


def _uniform_curve(lp: LogisticParams) -> _Curve:
    mean, hw = match_uniform_to_logistic(lp)
    # The same floats uniform_cdf clamps at, so a rounded corner is still a kink.
    return _Curve(lambda t: uniform_cdf(t, mean, hw), _LOGISTIC_BEND, (mean - hw, mean + hw))


# Continuous pair name to its matched curve.
_CURVES = {"normal": _normal_curve, "uniform": _uniform_curve}


def _curve_report(lp: LogisticParams, curve: _Curve) -> ComparisonReport:
    lo, hi, step = _default_grid(lp)
    return sup_distance(curve.cdf, lp.cdf, lo, hi, step)


def normal_vs_logistic(lp: LogisticParams) -> ComparisonReport:
    """Variance-matched normal against the logistic, on the default grid."""
    return _curve_report(lp, _normal_curve(lp))


def uniform_vs_logistic(lp: LogisticParams) -> ComparisonReport:
    """Variance-matched uniform against the logistic, on the default grid."""
    return _curve_report(lp, _uniform_curve(lp))


# Every _STRIDE-th point of the default grid is read first. _SLACK covers the rounding of each
# CDF (a few units in the last place of 1) and of the bound itself, with room to spare.
_STRIDE = 40
_SLACK = 1e-12


def _curve_summary(lp: LogisticParams, curve: _Curve) -> tuple[float, float]:
    """``_curve_report(lp, curve)``'s ``(sup_distance, argmax_point)``, bit for bit, from
    72 of the grid's 1201 points for the normal pair and 64 for the uniform.

    Reads every _STRIDE-th grid point and the last; the largest gap read is a floor.
    Between two read points a and b, |f| is at most max(|f(a)|, |f(b)|) plus
    M2 * (b - a)**2 / 8, with M2 the curve's bound on |f''|; a stretch whose bound stays
    under the floor holds no point that can reach it, let alone tie the first maximum,
    and is skipped. Any other stretch with a point inside is split at its middle point,
    which is read and may raise the floor (branch and bound). A stretch holding a kink is
    never skipped, and neither is one whose bound is not finite.
    """
    lo, hi, step = _default_grid(lp)
    count = _grid_count(lo, hi, step)
    fa, fb = curve.cdf, lp.cdf
    read: dict[int, tuple[float, float, float, float]] = {}  # index to (x, cdf, logistic, gap)

    def gap(i: int) -> float:
        x = lo + i * step
        a, b = fa(x), fb(x)
        read[i] = x, a, b, abs(a - b)
        return read[i][3]

    ends = [*range(0, count - 1, _STRIDE), count - 1]
    floor = max(map(gap, ends))
    stretches = list(zip(ends, ends[1:]))
    while stretches:
        a, b = stretches.pop()
        if b - a < 2:
            continue  # no grid point inside
        xa, xb = read[a][0], read[b][0]
        h = (xb - xa) / lp.scale
        bound = max(read[a][3], read[b][3]) + curve.bend * h * h / 8.0 + _SLACK
        if bound < floor and not any(xa <= k <= xb for k in curve.kinks):
            continue
        m = (a + b) // 2
        floor = max(floor, gap(m))
        stretches += [(a, m), (m, b)]
    grid, va, vb, _ = zip(*(read[i] for i in sorted(read)))
    return _largest_gap(grid, va, vb)  # the same first largest gap wins


FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5")

# Figures 3 and 4 plot this logistic's matched curves over modifiers -100..100: it is the
# logistic whose variance-matched uniform spans +/-50 percentage points around an even-odds
# base chance.
_FIG_LOGISTIC = LogisticParams(mean=0.0, scale=50.0 / math.pi)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def report_csv(report: ComparisonReport, names: tuple[str, str, str]) -> str:
    """Render a report as CSV: ``names`` head grid, cdf_a and cdf_b; abs_diff ends each row."""
    lines = [",".join(names) + ",abs_diff"]
    for x, a, b in zip(report.grid, report.cdf_a, report.cdf_b):
        lines.append(f"{_fmt(x)},{_fmt(a)},{_fmt(b)},{_fmt(abs(a - b))}")
    return "\n".join(lines) + "\n"


def _fig2() -> str:
    # Linear easy-vs-hard success mapping with the two guide polylines
    # marking each person's (easy %, hard %) operating point.
    rows = [
        ("mapping", 25, 0),
        ("mapping", 100, 75),
        ("person_a_guide", 75, 0),
        ("person_a_guide", 75, 50),
        ("person_a_guide", 0, 50),
        ("person_b_guide", 50, 0),
        ("person_b_guide", 50, 25),
        ("person_b_guide", 0, 25),
    ]
    lines = ["series,x,y"]
    lines.extend(f"{s},{_fmt(x)},{_fmt(y)}" for s, x, y in rows)
    return "\n".join(lines) + "\n"


def figure_data(which: str) -> str:
    """CSV series behind each reference figure.

    * fig2: linear easy/hard mapping with threshold guides (series,x,y)
    * fig3: logistic vs variance-matched uniform over modifiers -100..100
    * fig4: logistic vs variance-matched normal over the same range
    * fig5: 3d6 step CDF vs moment-matched logistic at half-integer points
    """
    if which == "fig2":
        return _fig2()
    if which in ("fig3", "fig4"):
        pair = "uniform" if which == "fig3" else "normal"
        report = sup_distance(_FIG_LOGISTIC.cdf, _CURVES[pair](_FIG_LOGISTIC).cdf, -100.0, 100.0, 1.0)
        return report_csv(report, ("modifier", "logistic", pair))
    if which == "fig5":
        report = discrete_vs_logistic(outcome_distribution(SumRollOver(3, 6)))
        return report_csv(report, ("x", "dice_cdf", "logistic_cdf"))
    raise ValueError(f"unknown figure id {which!r}; expected one of {FIGURE_IDS}")
