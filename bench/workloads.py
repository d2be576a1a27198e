"""Seeded command lists for the three workloads.

A workload is one round of CLI commands in a fixed interleaved order:
each batch command is followed by a share of the interactive commands, so
that a slow period of the machine lands on both classes alike. A run
repeats the round. Every command carries the check of its output, built
from the oracles before any timing starts; the fit logs are written to
disk here too.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as o

INTERACTIVE, BATCH, PROBE = "interactive", "batch", "probe"
# Distinct interactive commands per workload: p50 and p90 are taken over
# them, so twelve lie beyond the p90.
INTERACTIVE_COMMANDS = 120


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: o.Check
    items: int = 0  # work items of a batch command
    draws: int = 0  # SplitMix64 draws the command consumes, from the replay


@dataclass
class Workload:
    ops: list[Op]  # one round, in order
    warmup: list[list[str]]  # one command of each kind on its smallest input


def _interleave(batch: list[Op], interactive: list[Op], probes: list[Op], passes: int) -> list[Op]:
    """batch[0], its share of interactive, batch[1], ...; probes spread evenly.

    The interactive list is walked ``passes`` times, so that every
    interactive command runs several times a round, at different moments.
    """
    interactive = interactive * passes
    per = len(interactive) / len(batch)
    ops: list[Op] = []
    for i, b in enumerate(batch):
        ops.append(b)
        ops.extend(interactive[round(i * per) : round((i + 1) * per)])
    step = len(ops) // (len(probes) + 1)
    for j, p in enumerate(probes, 1):
        ops.insert(j * step + j - 1, p)
    return ops


# --- exact ----------------------------------------------------------------------

# Boundary inputs that fail today on a program fault; each is kept as a counted
# failure so that the change which mends it shows as a smaller failed share.
PROBES = [
    ["evidence", "--factor", "1e200", "--factor", "1e200"],
    ["opposed", "--rating-a", "0", "--rating-b", "1000000"],
    ["opposed", "--skill-a", "inf", "--skill-b", "inf"],
    ["check", "--model", '{"ability":NaN,"difficulty":0}', "--seed", "1"],
]

# Large mechanics, one per family and command kind: (dist, dist --success,
# compare --pair dice --summary). The convolved families (sum, pool) reach
# 50d10; 10d100, the top of that range, would take 2.8 s by itself, more
# than half the batch time of a round, so it appears as a max pool, which
# has a closed form. The seed moves only difficulties and modifiers, each
# within a narrow band, so the cost of a round does not depend on it: a
# success probability sums the mass of every succeeding outcome, and a
# difficulty drawn from the whole range would make that sum 1 to 10,000
# terms long. Binomial targets are fixed, since the die's success chance
# sets the size of every exact mass.
def _batch_mechanics(r: random.Random) -> list[tuple[str, tuple]]:
    def near(mid: int, spread: int) -> int:
        return mid + r.randint(-spread, spread)

    def sumlike(fam: str, n: int, s: int) -> tuple:
        mid = n * (s + 1) // 2
        if fam == "sum":
            return ("sum", n, s, r.randint(-5, 5), near(mid, n))
        return ("pool", n, s, 0, near(mid, n))

    def single(fam: str, s: int) -> tuple:
        if fam == "roll-under":
            return (fam, 1, s, near(s // 2, s // 50), 0)
        if fam == "roll-over":
            return (fam, 1, s, r.randint(-50, 50), near(s // 2, s // 50))
        return (fam, 1, s, 0, near(s // 2, s // 50))

    return [
        ("dist", sumlike("sum", 50, 10)),
        ("success", sumlike("sum", 24, 12)),
        ("compare", sumlike("sum", 40, 6)),
        ("dist", sumlike("pool", 30, 8)),
        ("success", sumlike("pool", 20, 10)),
        ("compare", sumlike("pool", 16, 20)),
        ("dist", ("binomial", 50, 10, 6, near(25, 5))),
        ("success", ("binomial", 200, 20, 11, near(100, 5))),
        ("compare", ("binomial", 100, 12, 7, near(50, 5))),
        ("dist", ("max", 50, 100, 0, near(75, 5))),
        ("success", ("max", 100, 1000, 0, near(750, 10))),
        ("compare", ("max", 10, 100, 0, near(75, 5))),
        ("dist", single("roll-under", 1000)),
        ("success", single("roll-under", 10000)),
        ("compare", single("roll-under", 1000)),
        ("dist", single("roll-over", 1000)),
        ("success", single("roll-over", 10000)),
        ("compare", single("roll-over", 1000)),
        ("dist", single("step", 1000)),
        ("success", single("step", 10000)),
        ("compare", single("step", 1000)),
    ]


# Small mechanics (family, dice, sides) for interactive commands. A fixed
# list, so that the mix of costs is the same for every seed; the seed sets
# targets, modifiers and difficulties.
SMALL = [
    ("roll-under", 1, 20), ("roll-over", 1, 20), ("step", 1, 8), ("step", 1, 12),
    ("sum", 2, 6), ("sum", 3, 6), ("sum", 2, 10), ("binomial", 5, 10),
    ("binomial", 4, 6), ("pool", 3, 6), ("pool", 4, 4), ("max", 3, 10),
]


def _small_mechanic(r: random.Random, fam: str, n: int, s: int) -> tuple:
    if fam == "roll-under":
        return (fam, n, s, r.randint(1, s), 0)
    if fam in ("roll-over", "sum"):
        return (fam, n, s, r.randint(-3, 3), r.randint(n, n * s))
    if fam == "binomial":
        return (fam, n, s, r.randint(2, s), r.randint(0, n))
    return (fam, n, s, 0, r.randint(1, n * s if fam == "pool" else s))


def _mechanic_op(kind: str, cmd: str, m: tuple) -> Op:
    if cmd == "dist":
        return Op(kind, ["dist"] + o.mechanic_argv(m), o.check_dist(m), items=1)
    if cmd == "success":
        return Op(kind, ["dist"] + o.mechanic_argv(m) + ["--success"], o.check_success(m), items=1)
    argv = ["compare", "--pair", "dice", "--summary"] + o.mechanic_argv(m)
    return Op(kind, argv, o.check_dice_summary(m), items=1)


def _fmt(x: float) -> str:
    return repr(round(x, 6))


SCALAR_KINDS = ("grade", "evidence", "reliable", "skill", "logit", "elo", "elo-score")


def _scalar_op(r: random.Random, what: str) -> Op:
    """One grade, evidence or opposed command with seeded arguments."""
    if what == "grade":
        f = float(_fmt(10 ** r.uniform(-1.5, 3.0)))
        return Op(INTERACTIVE, ["grade", "--factor", _fmt(f)], o.check_grade(f))
    if what in ("evidence", "reliable"):
        prior = float(_fmt(10 ** r.uniform(-1, 1)))
        factors = [float(_fmt(10 ** r.uniform(-1, 1))) for _ in range(r.randint(1, 4))]
        argv = ["evidence", "--prior", _fmt(prior)]
        if what == "reliable":
            rel = float(_fmt(r.uniform(0.1, 1.0)))
            factors = factors[:1]
            odds = prior * factors[0] ** rel
            argv += ["--factor", _fmt(factors[0]), "--reliability", _fmt(rel)]
        else:
            odds = prior * math.prod(factors)
            for f in factors:
                argv += ["--factor", _fmt(f)]
        return Op(INTERACTIVE, argv, o.check_values("odds,probability", [odds, odds / (1 + odds)]))
    if what == "skill":
        a, b = float(_fmt(r.uniform(0.5, 20))), float(_fmt(r.uniform(0.5, 20)))
        argv = ["opposed", "--skill-a", _fmt(a), "--skill-b", _fmt(b)]
        return Op(INTERACTIVE, argv, o.check_values("probability", [a / (a + b)]))
    if what == "logit":
        a, b = float(_fmt(r.uniform(-3, 3))), float(_fmt(r.uniform(-3, 3)))
        argv = ["opposed", "--logit-a", _fmt(a), "--logit-b", _fmt(b)]
        return Op(INTERACTIVE, argv, o.check_values("probability", [o.logistic(a - b)]))
    ra, rb = float(r.randint(1000, 2400)), float(r.randint(1000, 2400))
    expected = 1.0 / (1.0 + 10.0 ** (-(ra - rb) / 400.0))
    argv = ["opposed", "--rating-a", _fmt(ra), "--rating-b", _fmt(rb)]
    if what == "elo":
        return Op(INTERACTIVE, argv, o.check_values("expected_a", [expected]))
    score = r.choice([0.0, 0.5, 1.0])
    delta = 32.0 * (score - expected)
    argv += ["--score", _fmt(score)]
    return Op(
        INTERACTIVE,
        argv,
        o.check_values("expected_a,new_rating_a,new_rating_b", [expected, ra + delta, rb - delta]),
    )


def exact(seed: int, workdir: Path) -> Workload:
    r = random.Random(seed)
    batch = [_mechanic_op(BATCH, cmd, m) for cmd, m in _batch_mechanics(r)]
    # 120 commands in fixed shares: each small mechanic under dist, dist
    # --success and compare dice (36), normal and uniform curves (24), the
    # four figures, and eight of each scalar kind (56).
    interactive = []
    for fam, n, s in SMALL:
        m = _small_mechanic(r, fam, n, s)
        interactive += [_mechanic_op(INTERACTIVE, cmd, m) for cmd in ("dist", "success", "compare")]
    for pair in ("normal", "uniform"):
        for _ in range(12):
            argv = ["compare", "--pair", pair, "--summary",
                    "--mean", _fmt(r.uniform(-20, 20)), "--scale", _fmt(r.uniform(0.2, 20))]
            interactive.append(Op(INTERACTIVE, argv, o.check_curve_summary(pair)))
    interactive += [Op(INTERACTIVE, ["figure", w], o.check_figure(w)) for w in ("fig2", "fig3", "fig4", "fig5")]
    interactive += [_scalar_op(r, what) for what in SCALAR_KINDS for _ in range(8)]
    probes = [Op(PROBE, argv, o.check_probe) for argv in PROBES]
    small = ("sum", 2, 4, 0, 5)
    warmup = [
        ["dist"] + o.mechanic_argv(small),
        ["dist"] + o.mechanic_argv(small) + ["--success"],
        ["compare", "--pair", "dice", "--summary"] + o.mechanic_argv(small),
        ["compare", "--pair", "normal", "--summary"],
        ["compare", "--pair", "uniform", "--summary"],
        ["figure", "fig2"],
        ["grade", "--factor", "2"],
        ["evidence", "--factor", "2"],
        ["opposed", "--skill-a", "1", "--skill-b", "2"],
    ]
    return Workload(_interleave(batch, interactive, probes, passes=2), warmup)


# --- resolve --------------------------------------------------------------------


def _small_model(r: random.Random) -> dict:
    model = {"ability": round(r.uniform(-3, 3), 3), "difficulty": round(r.uniform(-3, 3), 3)}
    if r.random() < 0.5:
        model["slope"] = round(r.uniform(0.3, 2.5), 3)
    if r.random() < 0.3:
        model["lower"] = r.choice([0.1, 0.2, 0.25])
    if r.random() < 0.3:
        model["upper"] = r.choice([0.9, 0.95, 0.99])
    return model


def _target_argv(target) -> list[str]:
    if isinstance(target, dict):
        return ["--model", json.dumps(target)]
    return o.mechanic_argv(target)


def _simulate_ops(target, n: int, seed: int, per_trial: bool, aggregate: bool) -> list[Op]:
    trials, p, draws = o.replay_trials(target, n, seed)
    argv = ["simulate"] + _target_argv(target) + ["--n", str(n), "--seed", str(seed)]
    ops = []
    if per_trial:
        ops.append(Op(BATCH, argv, o.check_trials(trials), items=n, draws=draws))
    if aggregate:
        ops.append(Op(BATCH, argv + ["--aggregate"], o.check_aggregate(trials, p), items=n, draws=draws))
    return ops


def resolve(seed: int, workdir: Path) -> Workload:
    r = random.Random(seed)

    def s() -> int:
        return r.randrange(1 << 63)

    mech = ("sum", 3, 6, 0, r.randint(8, 13))
    mech2 = ("binomial", 5, 10, r.randint(5, 8), r.randint(1, 4))
    model = _small_model(r)
    batch = (
        _simulate_ops(mech, 400, s(), per_trial=True, aggregate=True)
        + _simulate_ops(mech2, 20_000, s(), per_trial=False, aggregate=True)
        + _simulate_ops(model, 20_000, s(), per_trial=True, aggregate=True)
        + _simulate_ops(_small_model(r), 200_000, s(), per_trial=False, aggregate=True)
    )
    # 120 checks: seven of each small mechanic (84) and 36 models.
    targets = [_small_mechanic(r, *spec) for spec in SMALL for _ in range(7)]
    targets += [_small_model(r) for _ in range(36)]
    r.shuffle(targets)
    interactive = []
    for target in targets:
        seed_i = s()
        expected, draws = o.replay_check(target, seed_i)
        argv = ["check"] + _target_argv(target) + ["--seed", str(seed_i)]
        interactive.append(Op(INTERACTIVE, argv, o.check_check(expected), draws=draws))
    small = ("sum", 2, 4, 0, 5)
    warmup = [
        ["check"] + o.mechanic_argv(small) + ["--seed", "1"],
        ["check", "--model", '{"ability": 0, "difficulty": 0}', "--seed", "1"],
        ["simulate"] + o.mechanic_argv(small) + ["--n", "2", "--seed", "1"],
        ["simulate"] + o.mechanic_argv(small) + ["--n", "2", "--seed", "1", "--aggregate"],
    ]
    return Workload(_interleave(batch, interactive, [], passes=1), warmup)


# --- fit --------------------------------------------------------------------------

RIDGE = 0.01
# At the default --tol 1e-8 some logs never converge: near the optimum the
# Newton step's gain falls below the rounding of the objective, and the fit
# runs to --max-iter (about one session log in 550, and the 2000x500 log of
# seed 44, which would take some 6 minutes). At 1e-6 none of 11,000 session
# logs and 52 batch logs stalled, and none took more than 11 iterations.
# The iteration cap bounds the cost of a stall, should one occur.
TOL = 1e-6
MAX_ITER = 60
MIN_CORR = {INTERACTIVE: 0.5, BATCH: 0.9}


def _write_log(
    path: Path, rng: np.random.Generator, n_p: int, n_t: int, n_rec: int, planted: int
) -> dict:
    """Write an outcome log drawn from known logits; return it as arrays.

    Abilities ~ N(0, 1.5^2) and difficulties ~ N(0, 1); each record is a
    distinct (person, task) cell. With ``planted``, that many persons pass
    every task they try, as many fail them (unless they tried the last
    task), and everybody passes the last task: identifiers with all
    successes or all failures.
    """
    ability = rng.normal(0.0, 1.5, n_p)
    difficulty = rng.normal(0.0, 1.0, n_t)
    cells = rng.choice(n_p * n_t, size=n_rec, replace=False)
    person, task = cells // n_t, cells % n_t
    z = ability[person] - difficulty[task]
    y = (rng.random(n_rec) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    if planted:
        y[np.isin(person, np.arange(planted))] = 1.0
        y[np.isin(person, np.arange(planted, 2 * planted))] = 0.0
        y[task == n_t - 1] = 1.0
        ability[:planted] = 5.0
        ability[planted : 2 * planted] = -5.0
    persons = [f"p{i:05d}" for i in range(n_p)]
    tasks = [f"t{i:04d}" for i in range(n_t)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["person", "task", "success"])
        w.writerows(zip([persons[i] for i in person], [tasks[i] for i in task], y.astype(int).tolist()))
    return {"person": person, "task": task, "y": y, "persons": persons, "tasks": tasks,
            "ability": ability}


def _fit_op(kind: str, path: Path, log: dict) -> Op:
    argv = ["fit", "--input", str(path), "--ridge", repr(RIDGE), "--tol", repr(TOL),
            "--max-iter", str(MAX_ITER)]
    return Op(kind, argv, o.check_fit(log, RIDGE, TOL, MIN_CORR[kind]), items=len(log["y"]))


def fit(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    batch = []
    for i, (n_p, n_t, n_rec) in enumerate([(1000, 200, 60_000), (2000, 500, 300_000)]):
        path = workdir / f"batch{i}.csv"
        batch.append(_fit_op(BATCH, path, _write_log(path, rng, n_p, n_t, n_rec, planted=3)))
    interactive = []
    for i in range(INTERACTIVE_COMMANDS):
        n_p, n_t = int(rng.integers(10, 15)), int(rng.integers(30, 41))
        n_rec = int(rng.integers(300, min(450, n_p * n_t) + 1))
        path = workdir / f"session{i}.csv"
        interactive.append(_fit_op(INTERACTIVE, path, _write_log(path, rng, n_p, n_t, n_rec, planted=0)))
    smallest = min(interactive, key=lambda op: op.items)
    return Workload(_interleave(batch, interactive, [], passes=5), [smallest.argv])


WORKLOADS = {"exact": exact, "resolve": resolve, "fit": fit}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
