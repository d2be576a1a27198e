"""The CLI contract at the float edges, drawn by Hypothesis.

Every float flag of ``grade``, ``evidence``, ``opposed``, ``compare`` and
``fit`` is drawn from non-finite, huge, tiny, subnormal, underflowing and
negative values, in both negative spellings (``-2.5`` and ``-1e-5``). Each
run must exit 0 with finite values on stdout, or exit 1 with one line on
stderr and nothing on stdout. ``inf`` is a documented value only where odds
outgrow a float: ``evidence`` odds, and the weight of evidence ``grade``
prints for an infinite likelihood ratio.
"""

import contextlib
import io
import json
import math
import warnings
from datetime import timedelta
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from skillcheck import cli

EDGES = ("nan", "-nan", "inf", "-inf", "0", "1e308", "-1e308", "1e-308", "-1e-308",
         "1e-400", "-1e-400", "5e-324", "-2.5", "-1e-5")
# Columns that print inf for odds too large for a float.
INFINITE_ODDS = {("evidence", "odds"), ("grade", "log10L")}
LOG = "person,task,success\na,t1,1\na,t2,0\nb,t1,0\nb,t2,1\nc,t1,1\n"


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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch("sys.stdin", io.StringIO(LOG)),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("ignore", RuntimeWarning)  # fit's own, about the fit
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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
            try:
                value = float(cell)
            except ValueError:  # a label
                continue
            documented = (command, name) in INFINITE_ODDS and value == math.inf
            assert math.isfinite(value) or documented, (name, cell)


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(argvs())
def test_every_float_flag_answers_or_is_a_one_line_error(argv):
    code, out, err = run(argv)
    if code == 0:
        assert_finite(argv[0], out)
    else:
        assert (code, out, err.count("\n"), err.startswith("error: ")) == (1, "", 1, True), err
