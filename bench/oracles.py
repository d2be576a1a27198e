"""Answers computed apart from skillcheck, and the checks that use them.

Nothing here imports skillcheck. Each checker takes the exit code and the
stdout text of one CLI command and returns None when the output is right,
or a one-line reason when it is not. The tolerances absorb the CLI's
12-significant-digit rounding and nothing more.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Optional

import numpy as np

Check = Callable[[int, str], Optional[str]]

REL = 1e-11  # 12 significant digits leave at most 5e-12 relative error

# --- mechanics --------------------------------------------------------------
# A mechanic is (family, dice, sides, a, b); a and b hold the family's
# parameters: roll-under (target, -), roll-over and sum (modifier,
# difficulty), binomial (threshold, required), pool, step and max (-,
# difficulty).

SINGLE_DIE = ("roll-under", "roll-over", "step")


def mechanic_argv(m: tuple) -> list[str]:
    fam, n, s, a, b = m
    argv = ["--mechanic", fam, "--sides", str(s)]
    if fam not in SINGLE_DIE:
        argv += ["--dice", str(n)]
    if fam == "roll-under":
        argv += ["--target", str(a)]
    elif fam in ("roll-over", "sum"):
        argv += ["--modifier", str(a), "--difficulty", str(b)]
    elif fam == "binomial":
        argv += ["--threshold", str(a), "--required", str(b)]
    else:
        argv += ["--difficulty", str(b)]
    return argv


def outcome_of(m: tuple, faces: list[int]) -> int:
    fam = m[0]
    if fam in ("sum", "pool"):
        return sum(faces)
    if fam == "binomial":
        return sum(1 for f in faces if f >= m[3])
    if fam == "max":
        return max(faces)
    return faces[0]


def succeeds(m: tuple, outcome: int) -> bool:
    fam, _, _, a, b = m
    if fam == "roll-under":
        return outcome <= a
    if fam in ("roll-over", "sum"):
        return outcome + a >= b
    if fam == "binomial":
        return outcome >= b
    return outcome >= b


@lru_cache(maxsize=None)
def sum_counts(n: int, s: int) -> tuple[int, ...]:
    """Ways to roll each total n..n*s with n s-sided dice.

    The integer polynomial (x + ... + x^s)^n, built one die at a time with
    a sliding-window sum over prefix sums.
    """
    counts = [1]
    for _ in range(n):
        prefix = [0]
        for c in counts:
            prefix.append(prefix[-1] + c)
        width = len(counts) + s - 1
        counts = [
            prefix[min(i + 1, len(counts))] - prefix[max(0, i - s + 1)] for i in range(width)
        ]
    return tuple(counts)


@lru_cache(maxsize=None)
def ways(m: tuple) -> tuple[dict[int, int], int]:
    """Ways of each outcome with positive count, and the number of rolls s**n."""
    fam, n, s, a, _ = m
    if fam in SINGLE_DIE:
        return {k: 1 for k in range(1, s + 1)}, s
    total = s**n
    if fam in ("sum", "pool"):
        w = {n + i: c for i, c in enumerate(sum_counts(n, s))}
    elif fam == "binomial":
        hit, miss = s - a + 1, a - 1
        w = {k: comb(n, k) * hit**k * miss ** (n - k) for k in range(n + 1)}
    else:  # max: rolls with every face <= k, less those with every face <= k - 1
        w = {k: k**n - (k - 1) ** n for k in range(1, s + 1)}
    w = {k: c for k, c in w.items() if c}
    if sum(w.values()) != total:
        raise AssertionError(f"oracle counts for {m} do not sum to {total}")
    return w, total


def success_fraction(m: tuple) -> Fraction:
    w, total = ways(m)
    return Fraction(sum(c for k, c in w.items() if succeeds(m, k)), total)


def _close(printed: str, exact: float, tol: float = REL) -> bool:
    value = float(printed)
    return abs(value - exact) <= tol * max(abs(exact), 1e-300)


def _rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def check_dist(m: tuple) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        w, total = ways(m)
        rows = _rows(out, "outcome,num,den,float")
        if [int(r[0]) for r in rows] != sorted(w):
            return "support differs from the outcomes with positive count"
        mass_sum = Fraction(0)
        for k, num, den, flt in rows:
            mass = Fraction(int(num), int(den))
            if mass != Fraction(w[int(k)], total):
                return f"mass at {k} is {mass}, expected {w[int(k)]}/{total}"
            if not _close(flt, w[int(k)] / total):
                return f"float at {k} is {flt}"
            mass_sum += mass
        if mass_sum != 1:
            return f"masses sum to {mass_sum}"
        return None

    return check


def check_success(m: tuple) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((num, den, flt),) = _rows(out, "num,den,float")
        p = success_fraction(m)
        if Fraction(int(num), int(den)) != p:
            return f"success probability {num}/{den}, expected {p}"
        if not _close(flt, float(p)):
            return f"float {flt}, expected {float(p)}"
        return None

    return check


# --- curve comparisons ----------------------------------------------------------


def logistic(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def dice_vs_logistic(m: tuple) -> tuple[float, dict[float, float]]:
    """Sup gap between the step CDF and its moment-matched logistic at k + 0.5.

    Returns the sup and the gap at every evaluation point.
    """
    w, total = ways(m)
    mean = Fraction(sum(k * c for k, c in w.items()), total)
    var = Fraction(sum((k - mean) ** 2 * c for k, c in w.items()), total)
    mu, scale = float(mean), math.sqrt(3.0 * float(var)) / math.pi
    gaps = {}
    below = 0
    lo, hi = min(w), max(w)
    for k in range(lo - 1, hi + 1):
        below += w.get(k, 0)
        x = k + 0.5
        gaps[x] = abs(below / total - logistic((x - mu) / scale))
    return max(gaps.values()), gaps


def check_dice_summary(m: tuple) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((sup, argmax),) = _rows(out, "sup_distance,argmax")
        best, gaps = dice_vs_logistic(m)
        if not _close(sup, best):
            return f"sup {sup}, expected {best!r}"
        if abs(gaps.get(float(argmax), -1.0) - best) > 1e-12:
            return f"argmax {argmax} is not a point where the gap is {best!r}"
        return None

    return check


def _golden_max(f: Callable[[float], float], a: float, b: float) -> float:
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    for _ in range(80):
        if f(c) > f(d):
            b, d = d, c
            c = b - r * (b - a)
        else:
            a, c = c, d
            d = a + r * (b - a)
    return max(f(a), f(b), f(c), f(d))


@lru_cache(maxsize=None)
def true_sup(pair: str) -> float:
    """True sup |F(z) - logistic(z)| for the variance-matched normal or uniform.

    In units of the logistic scale the matched normal has sd pi/sqrt(3) and
    the matched uniform has halfwidth pi, whatever the mean and scale, so
    one value serves every command. A 1e-3 scan over [-12, 12] brackets the
    maximum and golden-section search pins it.
    """
    if pair == "normal":
        sd = math.pi / math.sqrt(3.0)

        def gap(z: float) -> float:
            return abs(0.5 * (1.0 + math.erf(z / (sd * math.sqrt(2.0)))) - logistic(z))
    else:

        def gap(z: float) -> float:
            return abs(min(1.0, max(0.0, (z + math.pi) / (2.0 * math.pi))) - logistic(z))

    step = 1e-3
    best = max((i * step for i in range(-12_000, 12_001)), key=gap)
    return _golden_max(gap, best - step, best + step)


def check_curve_summary(pair: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((sup, _),) = _rows(out, "sup_distance,argmax")
        oracle = true_sup(pair)
        value = float(sup)
        if value > oracle + 1e-11 or oracle - value >= 1e-4:
            return f"{pair} sup {sup}, true sup {oracle!r}"
        return None

    return check


def check_figure(which: str) -> Check:
    """fig3/fig4: logistic of scale 50/pi against the matched curve over -100..100;
    fig5: 3d6 against its logistic; fig2: the easy/hard line y = x - 25 with
    each guide polyline turning on it."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        if which == "fig2":
            rows = _rows(out, "series,x,y")
            pts: dict[str, list[tuple[float, float]]] = {}
            for s, x, y in rows:
                pts.setdefault(s, []).append((float(x), float(y)))
            if sorted(pts) != ["mapping", "person_a_guide", "person_b_guide"]:
                return f"series {sorted(pts)}"
            if any(y != x - 25.0 for x, y in pts["mapping"]):
                return "mapping is not y = x - 25"
            for s in ("person_a_guide", "person_b_guide"):
                (_, _), (x, y), (_, _) = pts[s]
                if y != x - 25.0:
                    return f"{s} does not turn on the mapping"
            return None
        if which == "fig5":
            m = ("sum", 3, 6, 0, 0)
            w, total = ways(m)
            _, gaps = dice_vs_logistic(m)
            rows = _rows(out, "x,dice_cdf,logistic_cdf,abs_diff")
            if [float(r[0]) for r in rows] != sorted(gaps):
                return "fig5 grid"
            for x, a, _, d in rows:
                cdf = sum(c for k, c in w.items() if k <= float(x)) / total
                if abs(float(a) - cdf) > REL or abs(float(d) - gaps[float(x)]) > REL:
                    return f"fig5 row {x}"
            return None
        scale, name = 50.0 / math.pi, "uniform" if which == "fig3" else "normal"
        rows = _rows(out, f"modifier,logistic,{name},abs_diff")
        if [int(r[0]) for r in rows] != list(range(-100, 101)):
            return f"{which} grid"
        for mod, lg, other, d in rows:
            t = float(mod)
            want_lg = logistic(t / scale)
            if which == "fig3":
                want = min(1.0, max(0.0, (t + 50.0) / 100.0))
            else:
                want = 0.5 * (1.0 + math.erf(t / (50.0 / math.sqrt(3.0) * math.sqrt(2.0))))
            if (
                abs(float(lg) - want_lg) > REL
                or abs(float(other) - want) > REL
                or abs(float(d) - abs(want_lg - want)) > REL
            ):
                return f"{which} row {mod}"
        return None

    return check


# --- scalar commands ----------------------------------------------------------


def check_values(header: str, expected: list[float]) -> Check:
    """One data row of floats, each within the rounding tolerance."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        (row,) = _rows(out, header)
        if len(row) != len(expected) or not all(_close(v, e) for v, e in zip(row, expected)):
            return f"{header}: {row}, expected {expected}"
        return None

    return check


def check_grade(factor: float) -> Check:
    """Grade = how many of 1, 10^0.5, 10, 10^1.5, 100 the factor reaches."""
    grade = sum(1 for b in (1.0, 10.0**0.5, 10.0, 10.0**1.5, 100.0) if factor >= b)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((g, label, w),) = _rows(out, "grade,label,log10L")
        if int(g) != grade or not label or not _close(w, math.log10(factor)):
            return f"grade row {g},{label},{w} for factor {factor}"
        return None

    return check


def check_probe(rc: int, out: str) -> Optional[str]:
    """An edge input passes when the CLI exits 0 or 1, prints no nan, and an
    exit 0 prints only finite numbers or the documented inf."""
    if rc not in (0, 1):
        return f"exit {rc}"
    if "nan" in out.lower():
        return "nan on stdout"
    if rc == 0:
        for line in out.splitlines()[1:]:
            for field in line.split(","):
                if field == "":
                    return "empty field"
                try:
                    value = float(field)
                except ValueError:
                    continue
                if not (math.isfinite(value) or field == "inf"):
                    return f"non-finite {field}"
    return None


# --- seeded commands: SplitMix64 replay ---------------------------------------

_MASK = (1 << 64) - 1


class Replay:
    """SplitMix64 (Steele, Lea & Flood 2014), counting the 64-bit draws used.

    Floats take the top 53 bits; a die face is v % sides + 1 for the first
    draw v below the largest multiple of sides that fits in 2**64.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK
        self.draws = 0

    def next(self) -> int:
        self.draws += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def unit(self) -> float:
        return (self.next() >> 11) * 2.0**-53

    def face(self, sides: int) -> int:
        limit = (1 << 64) - (1 << 64) % sides
        while True:
            v = self.next()
            if v < limit:
                return v % sides + 1


def model_probability(model: dict) -> float:
    slope, lower, upper = model.get("slope", 1.0), model.get("lower", 0.0), model.get("upper", 1.0)
    return lower + (upper - lower) * logistic(slope * (model["ability"] - model["difficulty"]))


def replay_trials(target, n: int, seed: int) -> tuple[list[int], float, int]:
    """Per-trial successes, exact probability and draws used for n checks.

    ``target`` is a model dict or a mechanic tuple.
    """
    rng = Replay(seed)
    if isinstance(target, dict):
        p = model_probability(target)
        trials = [int(rng.unit() < p) for _ in range(n)]
    else:
        p = float(success_fraction(target))
        count, sides = (1 if target[0] in SINGLE_DIE else target[1]), target[2]
        trials = [
            int(succeeds(target, outcome_of(target, [rng.face(sides) for _ in range(count)])))
            for _ in range(n)
        ]
    return trials, p, rng.draws


def replay_check(target, seed: int) -> tuple[tuple[int, float, str], int]:
    """(success, probability, raw_roll) of one check, and draws used."""
    rng = Replay(seed)
    if isinstance(target, dict):
        p = model_probability(target)
        return (int(rng.unit() < p), p, ""), rng.draws
    count, sides = (1 if target[0] in SINGLE_DIE else target[1]), target[2]
    outcome = outcome_of(target, [rng.face(sides) for _ in range(count)])
    return (int(succeeds(target, outcome)), float(success_fraction(target)), str(outcome)), rng.draws


def check_check(expected: tuple[int, float, str]) -> Check:
    success, p, raw = expected

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((s, prob, r),) = _rows(out, "success,probability,raw_roll")
        if int(s) != success or r != raw or not _close(prob, p):
            return f"check {s},{prob},{r}, replay {success},{p!r},{raw}"
        return None

    return check


def check_trials(trials: list[int]) -> Check:
    want = "trial,success\n" + "".join(f"{i},{t}\n" for i, t in enumerate(trials, 1))

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        if out != want:
            return "per-trial successes differ from the replay"
        return None

    return check


def check_aggregate(trials: list[int], p: float) -> Check:
    """Successes equal the replay, which is also the per-trial sum for the same
    seed; the rate lies within 5 standard errors of the exact probability."""
    n, successes = len(trials), sum(trials)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        ((n_out, s_out, rate, exact),) = _rows(out, "n,successes,rate,exact_probability")
        if int(n_out) != n or int(s_out) != successes:
            return f"aggregate {n_out},{s_out}, replay {n},{successes}"
        if not _close(rate, successes / n) or not _close(exact, p):
            return f"aggregate rate {rate} or exact {exact} off"
        if abs(successes / n - p) > 5.0 * math.sqrt(p * (1.0 - p) / n):
            return f"rate {successes / n} is more than 5 standard errors from {p}"
        return None

    return check


# --- fits ---------------------------------------------------------------------


def _log_sigmoid(z: float) -> float:
    return -math.log1p(math.exp(-z)) if z >= 0 else z - math.log1p(math.exp(z))


def check_fit(log: dict, ridge: float, tol: float, min_corr: float) -> Check:
    """Fit JSON against the generated log.

    ``log`` holds the record arrays ``person``, ``task``, ``y`` (indices
    into ``persons`` and ``tasks``) and the generating ``ability`` array.
    The fit is the maximum of the data log-likelihood minus ridge/2 times
    the squared logits, re-centred so the difficulties sum to 0. At such a
    point the data gradient minus ridge times the logit is the same
    constant (ridge times the shift) for every ability and difficulty. The
    fit stops once every gradient component is below ``tol``, so that
    constant may vary by 2 * tol; 1e-8 more absorbs the 12-digit rounding.
    """
    pi, ti, y = log["person"], log["task"], log["y"]
    persons, tasks = log["persons"], log["tasks"]
    succ_p = np.bincount(pi, y, len(persons))
    tot_p = np.bincount(pi, minlength=len(persons))
    succ_t = np.bincount(ti, y, len(tasks))
    tot_t = np.bincount(ti, minlength=len(tasks))
    extreme = sorted(
        [persons[i] for i in range(len(persons)) if succ_p[i] in (0, tot_p[i])]
        + [tasks[i] for i in range(len(tasks)) if succ_t[i] in (0, tot_t[i])]
    )
    regular = [i for i in range(len(persons)) if 0 < succ_p[i] < tot_p[i]]

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        fit = json.loads(out)
        if fit["converged"] is not True:
            return "not converged"
        if fit["extreme"] != extreme:
            return f"extreme {fit['extreme'][:5]}..., expected {extreme[:5]}..."
        a = np.array([fit["abilities"][p] for p in persons])
        d = np.array([fit["difficulties"][t] for t in tasks])
        if abs(d.sum()) > 1e-9 * max(1.0, np.abs(d).sum()):
            return f"difficulties sum to {d.sum()}"
        z = a[pi] - d[ti]
        resid = y - 1.0 / (1.0 + np.exp(-z))
        foc = np.concatenate(
            [np.bincount(pi, resid, len(persons)) - ridge * a,
             -np.bincount(ti, resid, len(tasks)) - ridge * d]
        )
        if foc.max() - foc.min() > 2.0 * tol + 1e-8:
            return f"first-order condition off by {foc.max() - foc.min():.3g}"
        ll = math.fsum(
            _log_sigmoid(zz if yy else -zz) for zz, yy in zip(z.tolist(), y.tolist())
        )
        if abs(fit["log_likelihood"] - ll) > 1e-9 * abs(ll):
            return f"log_likelihood {fit['log_likelihood']}, recomputed {ll}"
        corr = float(np.corrcoef(a[regular], log["ability"][regular])[0, 1])
        if not corr > min_corr:
            return f"ability correlation {corr:.3f} <= {min_corr}"
        return None

    return check
