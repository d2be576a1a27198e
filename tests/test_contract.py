"""The CLI contract at the float and int edges, drawn by Hypothesis.

Every float flag of ``grade``, ``evidence``, ``opposed``, ``compare`` and
``fit`` is drawn from non-finite, huge, tiny, subnormal, underflowing and
negative values, in both negative spellings (``-2.5`` and ``-1e-5``). Every
int flag of ``dist``, ``check`` and ``simulate`` is drawn from zero, one,
the int64 edges and integers far past them. Each run must exit 0 with
finite values on stdout, or exit 1 with one line on stderr and nothing on
stdout. ``inf`` is a documented value only where odds outgrow a float:
``evidence`` odds, and the weight of evidence ``grade`` prints for an
infinite likelihood ratio. Integer cells are exact at any size. A Python
warning never reaches stderr; on exit 0 its only lines are ``warning: ``
lines about a fit.

The library's die entry points get the same treatment: each mechanic constructor
is drawn with every int argument from the same edges and the work bound's own,
and ``outcome_distribution`` and ``success_probability`` must give a value or a
``ValueError``, never another exception.

So do its float entry points, every float argument drawn from the same edges:
``FourPL``, ``LogisticParams``, ``update``, ``update_reliable``, ``Rating`` with
``elo_update``, and ``fit_rasch`` and ``RaschEstimator`` on logs of a few records.
Each gives finite values (infinite odds are documented), or a ``ValueError``
with a one-line message. A fit warns only of what ``fit_rasch`` documents.
"""

import contextlib
import dataclasses
import io
import json
import math
import warnings
from datetime import timedelta
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fit_logs import FIVE_RECORDS
from skillcheck import cli
from skillcheck.compare import LogisticParams, match_normal_to_logistic, match_uniform_to_logistic
from skillcheck.dice import outcome_distribution, success_probability
from skillcheck.estimate import OutcomeRecord, RaschEstimator, _warnings, fit_rasch
from skillcheck.evidence import update, update_reliable
from skillcheck.logistic import FourPL
from skillcheck.resolve import Rating, elo_expected, elo_update

EDGES = ("nan", "-nan", "inf", "-inf", "0", "1e308", "-1e308", "1e-308", "-1e-308",
         "1e-400", "-1e-400", "5e-324", "-2.5", "-1e-5")
# Columns that print inf for odds too large for a float.
INFINITE_ODDS = {("evidence", "odds"), ("grade", "log10L")}
INTS = ("0", "1", "-1", "2", str(2**63 - 1), str(2**63), str(-2**63), str(2**64 + 1), str(10**30),
        str(10**4000))
INT_FLAGS = ("--dice", "--sides", "--target", "--modifier", "--difficulty", "--threshold", "--required")
# Both sides of the work bound for sums: it accepts 3129d2, 115d100, 28d1000 and 1d123456, and
# refuses 3130d2, 116d100 and 1d123457.
WORK_EDGES = ("28", "100", "115", "116", "1000", "3129", "3130", "123456", "123457")
# Sampled work, trials times dice, stays under this: a huge --n is a long run, not a fault.
MAX_DRAWS = 10**5


@st.composite
def argvs(draw):
    """One valid command line, its float flags drawn from ``EDGES``."""

    def flag(name):
        value = draw(st.sampled_from(EDGES))
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    def maybe(name):
        return flag(name) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["grade", "evidence", "opposed", "compare", "fit"]))
    if command == "grade":
        return ["grade", *flag("--factor")]
    if command == "evidence":
        factors = [flag("--factor") for _ in range(draw(st.integers(0, 3)))]
        reliability = maybe("--reliability") if len(factors) == 1 else []  # needs one factor
        return ["evidence", *maybe("--prior"), *sum(factors, []), *reliability]
    if command == "opposed":
        kind = draw(st.sampled_from(["skill", "logit", "rating"]))
        argv = ["opposed", *flag(f"--{kind}-a"), *flag(f"--{kind}-b")]
        if kind == "rating":
            score = draw(st.sampled_from([[], ["--score", "0"], ["--score", "0.5"], ["--score", "1"]]))
            argv += [*maybe("--k"), *score]
        return argv
    if command == "compare":
        pair = draw(st.sampled_from(["normal", "uniform"]))
        summary = ["--summary"] if draw(st.booleans()) else []
        return ["compare", "--pair", pair, *maybe("--mean"), *maybe("--scale"), *summary]
    return ["fit", "--input", "-", *maybe("--ridge"), *maybe("--slope"), *maybe("--tol")]


@st.composite
def int_argvs(draw):
    """One valid ``dist``, ``check`` or ``simulate`` command line, its int flags drawn from ``INTS``."""
    command = draw(st.sampled_from(["dist", "check", "simulate"]))
    mechanic = draw(st.sampled_from(sorted(cli.MECHANICS)))
    fields = {f.name for f in dataclasses.fields(cli.MECHANICS[mechanic])}

    def under(factor):
        return [v for v in INTS if max(int(v), 1) * factor <= MAX_DRAWS]

    values = {}
    for flag in INT_FLAGS:
        if flag[2:] in fields or draw(st.booleans()):  # a family's own flags, and maybe the rest
            sampled = command != "dist" and flag == "--dice" and "dice" in fields
            values[flag] = draw(st.sampled_from(under(1) if sampled else INTS))
    if command != "dist":
        values["--seed"] = draw(st.sampled_from(INTS))
    if command == "simulate":
        dice = int(values["--dice"]) if "dice" in fields else 1
        values["--n"] = draw(st.sampled_from(under(max(dice, 1))))
    argv = [command, "--mechanic", mechanic]
    for flag, v in values.items():
        argv += [f"{flag}={v}"] if draw(st.booleans()) else [flag, v]
    switches = {"dist": [["--success"]], "check": [],
                "simulate": [["--aggregate"], ["--aggregate", "--mc-error"]]}
    return argv + draw(st.sampled_from([[], *switches[command]]))


def run(argv):
    """Exit code, stdout and stderr of one in-process run.

    A Python warning is shown on stderr as the interpreter would show it,
    every time it is raised.
    """
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch("sys.stdin", io.StringIO(FIVE_RECORDS)),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def assert_finite(command, out):
    if command == "fit":
        def refuse(constant):
            raise AssertionError(f"{constant} in fit output")

        json.loads(out, parse_constant=refuse)
        return
    header, *rows = out.splitlines()
    names = header.split(",")
    for row in rows:
        for name, cell in zip(names, row.split(","), strict=True):
            if cell.lstrip("-").isdigit():
                continue  # an exact integer, finite at any size
            try:
                value = float(cell)
            except ValueError:  # a label
                continue
            documented = (command, name) in INFINITE_ODDS and value == math.inf
            assert math.isfinite(value) or documented, (name, cell)


def assert_contract(argv):
    code, out, err = run(argv)
    if code == 0:
        assert_finite(argv[0], out)
        assert all(line.startswith("warning: ") for line in err.splitlines()), err
    else:
        assert (code, out, err.count("\n"), err.startswith("error: ")) == (1, "", 1, True), err


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(argvs())
# n * slope**2 in the Newton step overflowed from slope 1.35e154 and printed numpy warnings.
@example(["fit", "--input", "-", "--slope", "1e308"])
@example(["fit", "--input", "-", "--slope", "2e154"])
def test_every_float_flag_answers_or_is_a_one_line_error(argv):
    assert_contract(argv)


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(int_argvs())
def test_every_int_flag_answers_or_is_a_one_line_error(argv):
    assert_contract(argv)


@st.composite
def mechanics(draw):
    """One of the seven mechanic constructors and its arguments, each int drawn from the edges."""
    family = draw(st.sampled_from(list(cli.MECHANICS.values())))
    values = st.sampled_from([int(v) for v in INTS + WORK_EDGES])
    return family, [draw(values) for _ in dataclasses.fields(family)]


@settings(max_examples=1000, derandomize=True, deadline=timedelta(seconds=5))
@given(mechanics())
def test_every_mechanic_answers_or_raises_value_error(drawn):
    family, args = drawn
    try:
        mechanic = family(*args)
    except ValueError:
        return
    with contextlib.suppress(ValueError):
        outcome_distribution(mechanic)
    with contextlib.suppress(ValueError):
        assert 0 <= success_probability(mechanic) <= 1


# --- the library's float entry points ------------------------------------------

# The CLI's edges as floats, with asymptotes inside [0, 1] and the fit's slope bounds.
FLOATS = st.sampled_from([*(float(v) for v in EDGES), 0.25, 0.5, 1.0, 1e144, 2e154])
LIBRARY = settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))


def edge_or(default):
    """An edge or ``default``, so that most draws of several arguments make a valid call."""
    return st.one_of(st.just(default), FLOATS)


def answer(call):
    """``call()``, or None if it raises a ``ValueError`` with a one-line message."""
    try:
        return call()
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc), exc
        return None


def finite(*values):
    return all(math.isfinite(v) for v in values)


@LIBRARY
@given(FLOATS, FLOATS, edge_or(1.0), edge_or(0.0), edge_or(1.0))
# slope * (ability - difficulty) was 0 * inf = nan.
@example(1e308, -1e308, 0.0, 0.0, 1.0)
@example(-1e308, 1e308, 0.0, 0.25, 0.5)
def test_every_logistic_model_answers_or_raises_value_error(ability, difficulty, slope, lower, upper):
    model = answer(lambda: FourPL(ability, difficulty, slope, lower, upper))
    if model is not None:
        assert 0.0 <= model.probability() <= 1.0, model


@LIBRARY
@given(FLOATS, edge_or(1.0), FLOATS)
def test_every_logistic_match_answers_or_raises_value_error(mean, scale, t):
    lp = answer(lambda: LogisticParams(mean, scale))
    if lp is not None:
        assert finite(lp.variance, lp.sd, *match_normal_to_logistic(lp), *match_uniform_to_logistic(lp))
        if not math.isnan(t):  # a nan point has no defined chance; out of scope
            assert 0.0 <= lp.cdf(t) <= 1.0


@LIBRARY
@given(FLOATS, st.lists(FLOATS, max_size=3), FLOATS)
def test_every_odds_update_answers_or_raises_value_error(prior, factors, reliability):
    for odds in (answer(lambda: update(prior, factors)),
                 answer(lambda: update_reliable(prior, factors[0], reliability)) if factors else None):
        assert odds is None or odds >= 0.0  # +inf is certainty, documented; nan fails


@LIBRARY
@given(FLOATS, FLOATS, edge_or(32.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, math.nan]))
def test_every_elo_update_answers_or_raises_value_error(a, b, k, score):
    if not math.isnan(a - b):
        assert 0.0 <= elo_expected(a, b) <= 1.0
    ra, rb = answer(lambda: Rating(a, k)), answer(lambda: Rating(b, k))
    if ra is not None and rb is not None:
        pair = answer(lambda: elo_update(ra, rb, score))
        assert pair is None or finite(pair[0].value, pair[1].value)


@st.composite
def tiny_logs(draw):
    """One to six records among two or three people and two tasks."""
    cells = st.tuples(st.sampled_from("abc"), st.sampled_from(["t1", "t2"]), st.booleans())
    return [OutcomeRecord(*cell) for cell in draw(st.lists(cells, min_size=1, max_size=6))]


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(tiny_logs(), edge_or(1.0), edge_or(0.01), edge_or(1e-8), st.sampled_from([0, 1, 3, 500]))
def test_every_fit_of_a_tiny_log_answers_or_raises_value_error(records, slope, ridge, tol, max_iter):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = answer(lambda: fit_rasch(records, slope=slope, ridge=ridge, max_iter=max_iter, tol=tol))
    if result is None:
        assert not caught
        return
    assert {str(w.message) for w in caught} <= set(_warnings(result, ridge))
    assert finite(result.log_likelihood, *result.abilities.values(), *result.difficulties.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fit's own, checked above
        estimator = RaschEstimator(slope=slope, ridge=ridge, max_iter=max_iter, tol=tol).fit(records)
    assert estimator.result_ == result
    for person in estimator.abilities_:
        for task in estimator.difficulties_:
            assert 0.0 <= estimator.predict_proba(person, task) <= 1.0
