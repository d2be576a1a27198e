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

from skillcheck import cli

EDGES = ("nan", "-nan", "inf", "-inf", "0", "1e308", "-1e308", "1e-308", "-1e-308",
         "1e-400", "-1e-400", "5e-324", "-2.5", "-1e-5")
# Columns that print inf for odds too large for a float.
INFINITE_ODDS = {("evidence", "odds"), ("grade", "log10L")}
LOG = "person,task,success\na,t1,1\na,t2,0\nb,t1,0\nb,t2,1\nc,t1,1\n"
INTS = ("0", "1", "-1", "2", str(2**63 - 1), str(2**63), str(-2**63), str(2**64 + 1), str(10**30),
        str(10**4000))
INT_FLAGS = ("--dice", "--sides", "--target", "--modifier", "--difficulty", "--threshold", "--required")
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
    switch = {"dist": "--success", "check": None, "simulate": "--aggregate"}[command]
    return argv + [switch] if switch and draw(st.booleans()) else argv


def run(argv):
    """Exit code, stdout and stderr of one in-process run.

    A Python warning is shown on stderr as the interpreter would show it,
    every time it is raised.
    """
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch("sys.stdin", io.StringIO(LOG)),
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
