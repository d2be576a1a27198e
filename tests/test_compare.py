"""Moment matching and CDF sup-distance checks.

Expected constants were computed with independent oracles: exact rational
moments by enumeration, and direct grid evaluation of the CDF gaps. The
variance-matched normal sits about 0.0227 from the logistic and the
matched uniform about 0.0794, a factor of 3.5 worse; dice sums close in on
the logistic as the pool grows.
"""

import math
import re
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from skillcheck.compare import (
    ComparisonReport,
    LogisticParams,
    discrete_vs_logistic,
    figure_data,
    match_normal_to_logistic,
    match_uniform_to_logistic,
    moment_match_logistic,
    normal_vs_logistic,
    sup_distance,
    uniform_vs_logistic,
)
from skillcheck.compare import (
    _CURVES,
    _LOGISTIC_BEND,
    _MAX_POINTS,
    _STRIDE,
    _Curve,
    _curve_report,
    _curve_summary,
    _grid_count,
)
from skillcheck.dice import DiscreteDist, MaxPool, Mechanic, SumRollOver, convolve, die, outcome_distribution
from skillcheck.logistic import logistic_cdf, normal_cdf, uniform_cdf


def three_d6():
    """3d6, built when a test runs, so that a fault in the sum builder fails the tests that
    use it, not the import of this file."""
    return outcome_distribution(SumRollOver(dice=3, sides=6))


def built(d):
    """``d``; the distribution of ``d`` if it is a mechanic, or what ``d()`` builds if it is
    a function. Examples name what they build, so that nothing is built at import."""
    if isinstance(d, Mechanic):
        return outcome_distribution(d)
    return d() if callable(d) else d


# Regression baselines, frozen from direct evaluation (see oracles below).
NORMAL_SUP = 0.022662459480139896
UNIFORM_SUP = 0.07936800830741589
THREE_D6_SUP = 0.03243874556443338


class TestMomentMatching:
    def test_3d6_mean_exact(self):
        lp = moment_match_logistic(three_d6())
        assert lp.mean == 10.5

    def test_3d6_scale(self):
        # var(3d6) = 3 * 35/12 by enumeration, so scale = sqrt(3 * 8.75) / pi
        d = three_d6()
        assert d.variance() == Fraction(105, 12)
        lp = moment_match_logistic(d)
        assert lp.scale == pytest.approx(math.sqrt(26.25) / math.pi, abs=1e-15)

    def test_two_point_distribution(self):
        d = DiscreteDist((0, 2), (Fraction(1, 2), Fraction(1, 2)))
        lp = moment_match_logistic(d)
        assert lp.mean == 1.0
        assert lp.scale == pytest.approx(math.sqrt(3.0) / math.pi, abs=1e-15)

    def test_matched_moments_agree_with_exact_ones(self):
        from skillcheck.dice import BinomialPool, MaxPool

        dists = [
            three_d6(),
            outcome_distribution(SumRollOver(dice=2, sides=10)),
            outcome_distribution(MaxPool(dice=3, sides=8)),
            outcome_distribution(BinomialPool(dice=6, sides=6, threshold=5, required=2)),
            die(20),
        ]
        for dist in dists:
            lp = moment_match_logistic(dist)
            assert lp.mean == pytest.approx(float(dist.mean()), abs=1e-12)
            assert lp.variance == pytest.approx(float(dist.variance()), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            moment_match_logistic(DiscreteDist((3,), (Fraction(1),)))

    def test_underflowing_variance_is_named(self):
        # Var(max of n d3) is about (2/3)**n: a normal float at 1747 dice, subnormal at 1748,
        # zero at 2000.
        assert moment_match_logistic(outcome_distribution(MaxPool(1747, 3))).scale > 0.0
        for dice, var in ((1748, "1.557683324512466e-308"), (2000, "0.0")):
            with pytest.raises(ValueError) as raised:
                moment_match_logistic(outcome_distribution(MaxPool(dice, 3)))
            assert str(raised.value) == f"cannot match a logistic: the variance underflows to {var} as a float"


class TestVarianceMatchedFamilies:
    def test_uniform_halfwidth(self):
        lp = LogisticParams(0.0, 2.0)
        mean, hw = match_uniform_to_logistic(lp)
        assert mean == 0.0
        assert hw == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert hw**2 / 3.0 == pytest.approx(lp.variance, abs=1e-12)

    def test_normal_sd(self):
        lp = LogisticParams(1.5, 3.0)
        mean, sd = match_normal_to_logistic(lp)
        assert mean == 1.5
        assert sd == pytest.approx(3.0 * math.pi / math.sqrt(3.0), abs=1e-12)
        assert sd**2 == pytest.approx(lp.variance, abs=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LogisticParams(0.0, 0.0)

    @pytest.mark.parametrize(
        "mean,scale,field",
        [(0.0, math.inf, "scale"), (0.0, math.nan, "scale"),
         (math.nan, 1.0, "mean"), (-math.inf, 1.0, "mean")],
    )
    def test_parameters_must_be_finite(self, mean, scale, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LogisticParams(mean, scale)

    @pytest.mark.parametrize("scale", [1e200, 1.4e154, 1e-200, 1e-320])
    def test_variance_must_be_a_positive_finite_float(self, scale):
        with pytest.raises(ValueError, match=re.escape(f"scale {scale} gives no positive finite")):
            LogisticParams(0.0, scale)

    @pytest.mark.parametrize("mean,scale", [(1e300, 1.0), (1e15, 1e-5), (-1.797e308, 1e153)])
    def test_default_grid_must_resolve(self, mean, scale):
        for pairing in (normal_vs_logistic, uniform_vs_logistic):
            with pytest.raises(ValueError, match=re.escape(f"mean {mean} and scale {scale} give no")):
                pairing(LogisticParams(mean, scale))


class TestSupDistance:
    def test_identical_cdfs(self):
        f = lambda t: logistic_cdf(t, 0.0, 1.0)
        report = sup_distance(f, f, -5.0, 5.0, 0.1)
        assert report.sup_distance == 0.0

    def test_report_invariant(self):
        report = normal_vs_logistic(LogisticParams(0.0, 1.0))
        gaps = [abs(a - b) for a, b in zip(report.cdf_a, report.cdf_b)]
        assert report.sup_distance == max(gaps)
        assert 0.0 <= report.sup_distance <= 1.0
        idx = report.grid.index(report.argmax_point)
        assert gaps[idx] == report.sup_distance

    def test_symmetric_in_arguments(self):
        f = lambda t: logistic_cdf(t, 0.0, 1.0)
        g = lambda t: normal_cdf(t, 0.0, 1.5)
        ab = sup_distance(f, g, -6.0, 6.0, 0.05)
        ba = sup_distance(g, f, -6.0, 6.0, 0.05)
        assert ab.sup_distance == ba.sup_distance
        assert ab.argmax_point == ba.argmax_point

    def test_coarser_grid_never_increases(self):
        f = lambda t: logistic_cdf(t, 0.0, 1.0)
        g = lambda t: normal_cdf(t, 0.0, 1.8)
        fine = sup_distance(f, g, -6.0, 6.0, 0.01)
        coarse = sup_distance(f, g, -6.0, 6.0, 0.02)
        assert coarse.sup_distance <= fine.sup_distance

    def test_grid_validation(self):
        f = lambda t: 0.5
        with pytest.raises(ValueError):
            sup_distance(f, f, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            sup_distance(f, f, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "lo,hi,step",
        [(-1e308, 1e308, 1.0), (0.0, 1e6, 1e-6), (0.0, 1.0, 5e-324), (0.0, 1e6, 1.0)],
    )
    def test_grids_past_the_point_cap_are_refused_at_once(self, lo, hi, step):
        f = lambda t: 0.5
        with pytest.raises(ValueError) as raised:
            sup_distance(f, f, lo, hi, step)
        assert str(raised.value) == f"a grid from {lo} to {hi} by {step} has more than 1000000 points"

    def test_a_grid_at_the_point_cap_is_accepted(self):
        assert _MAX_POINTS == 10**6
        assert _grid_count(0.0, 999999.0, 1.0) == 10**6
        assert _grid_count(0.0, 20000.0, 1.0) == 20001

    def test_normal_vs_logistic_value(self):
        # direct-evaluation oracle over the same grid
        lp = LogisticParams(0.0, 1.0)
        sd = lp.sd
        grid = [-6.0 * sd + i * (12.0 * sd / 1200.0) for i in range(1201)]
        oracle = max(abs(normal_cdf(t, 0.0, sd) - logistic_cdf(t, 0.0, 1.0)) for t in grid)
        report = normal_vs_logistic(lp)
        assert report.sup_distance == pytest.approx(oracle, abs=1e-15)
        assert report.sup_distance == pytest.approx(NORMAL_SUP, abs=1e-12)

    def test_uniform_vs_logistic_value(self):
        lp = LogisticParams(0.0, 1.0)
        sd = lp.sd
        hw = sd * math.sqrt(3.0)
        grid = [-6.0 * sd + i * (12.0 * sd / 1200.0) for i in range(1201)]
        oracle = max(abs(uniform_cdf(t, 0.0, hw) - logistic_cdf(t, 0.0, 1.0)) for t in grid)
        report = uniform_vs_logistic(lp)
        assert report.sup_distance == pytest.approx(oracle, abs=1e-15)
        assert report.sup_distance == pytest.approx(UNIFORM_SUP, abs=1e-12)
        assert report.sup_distance > 0.01

    def test_uniform_is_worse_than_normal_by_three(self):
        lp = LogisticParams(0.0, 1.0)
        ratio = uniform_vs_logistic(lp).sup_distance / normal_vs_logistic(lp).sup_distance
        assert ratio >= 3.0

    @pytest.mark.parametrize("scale", [0.25, 1.0, 50.0 / math.pi, 40.0])
    def test_normal_gap_is_scale_invariant(self, scale):
        report = normal_vs_logistic(LogisticParams(0.0, scale))
        assert report.sup_distance == pytest.approx(NORMAL_SUP, abs=1e-9)


class TestDiscreteVsLogistic:
    def test_shared_center_has_zero_gap(self):
        report = discrete_vs_logistic(three_d6())
        idx = report.grid.index(10.5)
        assert report.cdf_a[idx] == 0.5
        assert report.cdf_b[idx] == 0.5

    def test_3d6_sup_value(self):
        # oracle: exact step CDF vs the logistic formula at each half-integer
        d = three_d6()
        lp = moment_match_logistic(d)
        oracle = max(abs(float(d.cdf(k)) - logistic_cdf(k + 0.5, lp.mean, lp.scale)) for k in range(2, 19))
        report = discrete_vs_logistic(d)
        assert report.sup_distance == pytest.approx(oracle, abs=1e-15)
        assert report.sup_distance == pytest.approx(THREE_D6_SUP, abs=1e-12)

    def test_grid_is_half_integers(self):
        report = discrete_vs_logistic(three_d6())
        assert report.grid[0] == 2.5
        assert report.grid[-1] == 18.5
        assert all(x % 1 == 0.5 for x in report.grid)

    def test_single_die_is_worse_than_3d6(self):
        one_d6 = discrete_vs_logistic(die(6)).sup_distance
        assert one_d6 > THREE_D6_SUP

    def test_gap_shrinks_as_dice_are_added(self):
        sups = []
        for n in range(1, 6):
            dist = reduce(convolve, [die(6)] * n)
            sups.append(discrete_vs_logistic(dist).sup_distance)
        assert all(b <= a for a, b in zip(sups, sups[1:]))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            discrete_vs_logistic(DiscreteDist((5,), (Fraction(1),)))


def reference_report(d):
    """discrete_vs_logistic before its one-pass walk: a bisect per grid point for the step
    CDF and ``LogisticParams.cdf`` for the logistic; the first largest gap wins."""
    lp = moment_match_logistic(d)
    grid = tuple(k + 0.5 for k in range(d.support[0] - 1, d.support[-1] + 1))
    cum = (0, *accumulate(d.counts))
    steps = tuple(cum[bisect_right(d.support, x)] / d.den for x in grid)
    curve = tuple(lp.cdf(x) for x in grid)
    sup, argmax = 0.0, grid[0]
    for x, a, b in zip(grid, steps, curve):
        if abs(a - b) > sup:
            sup, argmax = abs(a - b), x
    return ComparisonReport(grid=grid, cdf_a=steps, cdf_b=curve, sup_distance=sup, argmax_point=argmax)


@st.composite
def gapped_distributions(draw):
    """Two or more outcomes with gaps between them, some counts repeated."""
    support = sorted(draw(st.sets(st.integers(-80, 80), min_size=2, max_size=12)))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    return DiscreteDist(tuple(support), tuple(Fraction(w, sum(weights)) for w in weights))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gapped_distributions())
@example(lambda: DiscreteDist((0, 3, 10), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))))
@example(lambda: DiscreteDist((-40, 40), (Fraction(1, 3), Fraction(2, 3))))
@example(SumRollOver(3, 6))
@example(lambda: die(1000))
@example(SumRollOver(16, 20))
def test_discrete_vs_logistic_matches_the_bisect_report(d):
    d = built(d)
    assert discrete_vs_logistic(d) == reference_report(d)


@st.composite
def wide_distributions(draw):
    """Few outcomes, some of them far apart, over denominators up to 10**60."""
    support = sorted(draw(st.sets(st.integers(-(10**6), 10**6), min_size=2, max_size=8)))
    weights = draw(st.lists(st.integers(1, 10**60), min_size=len(support), max_size=len(support)))
    return DiscreteDist(tuple(support), tuple(Fraction(w, sum(weights)) for w in weights))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(wide_distributions(), gapped_distributions()))
@example(SumRollOver(3, 6))
@example(lambda: die(1000))
@example(MaxPool(1700, 3))
def test_matched_moments_are_the_floats_of_the_fractions(d):
    d = built(d)
    lp = moment_match_logistic(d)
    assert lp.mean == float(d.mean())
    assert lp.scale == math.sqrt(3.0 * float(d.variance())) / math.pi


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFigureData:
    def test_fig2_shape(self):
        header, rows = _parse_csv(figure_data("fig2"))
        assert header == ["series", "x", "y"]
        assert {r[0] for r in rows} == {"mapping", "person_a_guide", "person_b_guide"}
        assert len(rows) == 8
        assert rows[0] == ["mapping", "25", "0"]
        assert rows[1] == ["mapping", "100", "75"]

    def test_fig3_center_and_clamps(self):
        header, rows = _parse_csv(figure_data("fig3"))
        assert header == ["modifier", "logistic", "uniform", "abs_diff"]
        assert len(rows) == 201
        by_mod = {r[0]: r for r in rows}
        assert by_mod["0"][1] == "0.5"
        assert by_mod["0"][2] == "0.5"
        assert by_mod["-50"][2] == "0"
        assert by_mod["50"][2] == "1"
        assert by_mod["-100"][2] == "0"
        assert by_mod["100"][2] == "1"

    def test_fig4_columns_and_consistency(self):
        header, rows = _parse_csv(figure_data("fig4"))
        assert header == ["modifier", "logistic", "normal", "abs_diff"]
        sd = 50.0 / math.sqrt(3.0)
        scale = 50.0 / math.pi
        for r in rows[::20]:
            m = float(r[0])
            assert float(r[1]) == pytest.approx(logistic_cdf(m, 0.0, scale), abs=1e-12)
            assert float(r[2]) == pytest.approx(normal_cdf(m, 0.0, sd), abs=1e-12)
            assert float(r[3]) == pytest.approx(abs(float(r[1]) - float(r[2])), abs=1e-11)

    def test_fig5_center_and_moments(self):
        header, rows = _parse_csv(figure_data("fig5"))
        assert header == ["x", "dice_cdf", "logistic_cdf", "abs_diff"]
        assert len(rows) == 17
        by_x = {r[0]: r for r in rows}
        assert by_x["10.5"][1] == "0.5"
        assert by_x["10.5"][2] == "0.5"
        assert by_x["2.5"][1] == "0"
        assert by_x["18.5"][1] == "1"

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_data("fig9")


def test_report_is_plain_data():
    report = discrete_vs_logistic(three_d6())
    assert isinstance(report, ComparisonReport)
    assert len(report.grid) == len(report.cdf_a) == len(report.cdf_b)


# --- the pruned curve summary -------------------------------------------------------


def summary_and_report(lp, curve):
    """What ``_curve_summary`` gives and what the full report gives, each as float hex
    strings (so a sign of zero counts), or the message of the ``ValueError`` raised."""

    def full(lp, curve):
        report = _curve_report(lp, curve)
        return report.sup_distance, report.argmax_point

    def outcome(f):
        try:
            sup, argmax = f(lp, curve)
        except ValueError as e:
            return str(e)
        return sup.hex(), argmax.hex()

    return outcome(_curve_summary), outcome(full)


def magnitudes(lo, hi):
    """Floats of either sign from 10**lo to 10**hi, spread over the exponents."""
    return st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0), st.integers(lo, hi),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_CURVES)),
    st.one_of(st.floats(-20.0, 20.0), magnitudes(-300, 300)),
    st.one_of(st.floats(0.2, 20.0), magnitudes(-300, 300).map(abs)),
)
@example("normal", 0.0, 1.0)
@example("uniform", 0.0, 1.0)
@example("normal", 1e300, 1e285)  # grid points closer than a unit in the last place
@example("uniform", -1e300, 1e285)
def test_curve_summary_is_the_full_grid_maximum(pair, mean, scale):
    try:
        lp = LogisticParams(mean, scale)
    except ValueError:
        return
    summary, full = summary_and_report(lp, _CURVES[pair](lp))
    assert summary == full


def test_uniform_kinks_on_the_grid():
    lp = LogisticParams(1e15, 1.0)
    curve = _CURVES["uniform"](lp)
    assert set(curve.kinks) <= set(_curve_report(lp, curve).grid)
    summary, full = summary_and_report(lp, curve)
    assert summary == full


def normal_member(lp, center, sd):
    bend = (lp.scale / sd) ** 2 / math.sqrt(2.0 * math.pi * math.e) + _LOGISTIC_BEND
    return lp, _Curve(lambda t: normal_cdf(t, center, sd), bend)


def uniform_member(lp, center, hw):
    return lp, _Curve(lambda t: uniform_cdf(t, center, hw), _LOGISTIC_BEND, (center - hw, center + hw))


def sine_member(lp, amp, w, tilt, phase):
    """The logistic plus a tilted sine: |f''| reaches amp * w**2 / scale**2 at each peak."""

    def bumpy(t):
        z = (t - lp.mean) / lp.scale
        return lp.cdf(t) + amp * math.sin(w * z + phase) + tilt * z

    return lp, _Curve(bumpy, amp * w * w)


@st.composite
def family_curves(draw):
    """A logistic and a curve with a declared bound on |f''|: any normal or uniform (not
    only the matched one), or the logistic plus a tilted sine whose bound is tight."""
    lp = LogisticParams(draw(st.floats(-20.0, 20.0)), draw(st.floats(0.2, 20.0)))
    center = lp.mean + draw(st.floats(-3.0, 3.0)) * lp.scale
    width = lp.scale * 10.0 ** draw(st.floats(-0.7, 0.7))
    kind = draw(st.sampled_from(("normal", "uniform", "sine")))
    if kind == "normal":
        return normal_member(lp, center, width)
    if kind == "uniform":
        return uniform_member(lp, center, width)
    amp, w = draw(st.floats(0.01, 0.2)), draw(st.floats(0.5, 8.0))
    return sine_member(lp, amp, w, draw(st.floats(-1e-3, 1e-3)), draw(st.floats(0.0, 2.0 * math.pi)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(family_curves())
# The grid maximum lies next to a kink, between two points read first.
@example(uniform_member(
    LogisticParams(-5.600363037531263, 3.199430547186454), -4.316604585930955, 7.904204875384208))
@example(uniform_member(
    LogisticParams(-6.235377038240092, 1.0968356816407372), -7.2563673186827415, 2.3580056008131787))
# A kink at grid index 591.78, inside the leaf (590, 592) that the recursion reaches by
# splitting (560, 600) four times; the grid maximum, at 591, is read only there.
@example(uniform_member(LogisticParams(4.25, 5.387), 5.112, 1.665))
def test_summary_holds_for_any_curve_within_its_bound(case):
    lp, curve = case
    summary, full = summary_and_report(lp, curve)
    assert summary == full


def test_a_stretch_whose_bound_only_reaches_the_floor_is_read():
    # Near 2**60 a unit in the last place is 128 or 256, so the bound's curvature and slack
    # terms vanish in rounding and a stretch's bound equals the larger gap at its ends. The
    # gap steps from 2**60 - 128 to 2**60 at index 49, inside the stretch (40, 80) whose bound
    # equals the floor: skipping it would move the first maximum to index 80.
    lp = LogisticParams(0.0, 1.0)
    curve = _Curve(lambda t: 2.0**60 + 6.4 * t, _LOGISTIC_BEND)
    report = _curve_report(lp, curve)
    assert report.argmax_point == report.grid[49]
    summary, full = summary_and_report(lp, curve)
    assert summary == full


def test_a_midpoint_read_raises_the_floor():
    # The normal pair's grid maximum at (0, 1) ties at indices 532 and 668, mirror images
    # about the mean, and beats every point read first. The search reads 668 first, as the
    # middle of the stretch (667, 670), and that read raises the floor; 532, the middle of
    # (530, 535), ties it and is the first maximum in grid order.
    lp = LogisticParams(0.0, 1.0)
    curve = _CURVES["normal"](lp)
    report = _curve_report(lp, curve)
    gaps = [abs(a - b) for a, b in zip(report.cdf_a, report.cdf_b)]
    assert report.argmax_point == report.grid[532]
    assert gaps[532] > max(gaps[i] for i in [*range(0, 1200, _STRIDE), 1200])
    summary, full = summary_and_report(lp, curve)
    assert summary == full


@pytest.mark.parametrize("pair", sorted(_CURVES))
def test_summary_reads_a_fraction_of_the_grid(pair):
    # 72 points for the normal and 64 for the uniform; if midpoint reads never raised the
    # floor, the normal would read 98 and the uniform 72.
    lp = LogisticParams(0.0, 1.0)
    curve = _CURVES[pair](lp)
    read = []
    _curve_summary(lp, curve._replace(cdf=lambda t: read.append(t) or curve.cdf(t)))
    assert len(_curve_report(lp, curve).grid) == 1201
    assert len(read) == {"normal": 72, "uniform": 64}[pair]
