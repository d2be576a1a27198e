"""End-to-end subcommand behavior: output formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shlex
import sys
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fit_logs import FIT_GOLDEN, FIVE_RECORDS, SOLVER_PATHS, TWELVE_BY_SIX, WARNED
from skillcheck import cli
from skillcheck.compare import LogisticParams, figure_data, normal_vs_logistic, uniform_vs_logistic
from skillcheck.dice import BinomialPool, MaxPool, SumRollOver, success_probability
from skillcheck.estimate import fit_rasch, read_outcome_csv
from skillcheck.logistic import FourPL
from skillcheck.resolve import _BLOCK, SplitMix64, resolve_mechanic, resolve_model, simulate_count


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(text, expected):
    """``text == expected``, naming the first line that differs: pytest's own diff of two
    long texts that differ from the start runs for minutes."""
    if text != expected:
        lines, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b), min(len(lines), len(want)))
        pytest.fail(f"line {i + 1}: {lines[i:i + 1]} != {want[i:i + 1]}, of {len(lines)} and {len(want)} lines")


class TestDist:
    def test_sum_3d6(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--mechanic", "sum", "--dice", "3", "--sides", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "outcome,num,den,float"
        assert len(lines) == 17
        total = Fraction(0)
        for row in lines[1:]:
            _, num, den, _ = row.split(",")
            total += Fraction(int(num), int(den))
        assert total == 1

    def test_success_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--mechanic", "roll-under", "--sides", "100",
            "--target", "60", "--success",
        )
        assert code == 0
        assert out == "num,den,float\n3,5,0.6\n"

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--mechanic", "sum", "--dice", "0", "--sides", "6")
        assert code == 1
        assert "error" in err

    def test_missing_flags_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "dist", "--mechanic", "roll-under", "--sides", "20")
        assert code == 2

    # A max pool inside the count and max bound whose masses need more than 4300 digits.
    BIG_POOL = ("--mechanic", "max", "--dice", "2000", "--sides", "300", "--difficulty", "300")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize("extra", [(), ("--success",)])
    def test_past_the_digit_limit_is_a_one_line_error(self, capsys, extra):
        code, out, err = run_cli(capsys, "dist", *self.BIG_POOL, *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"error: exact max masses of 2000d300 need more than {sys.get_int_max_str_digits()} "
            "decimal digits, past the limit for printing an integer\n"
        )

    def test_check_and_aggregate_answer_past_the_digit_limit(self, capsys):
        p = cli._fmt(float(success_probability(MaxPool(2000, 300, 300))))
        code, out, _ = run_cli(capsys, "check", *self.BIG_POOL, "--seed", "1")
        assert (code, out) == (0, f"success,probability,raw_roll\n1,{p},300\n")
        code, out, _ = run_cli(capsys, "simulate", *self.BIG_POOL, "--seed", "1", "--n", "10", "--aggregate")
        assert (code, out) == (0, f"n,successes,rate,exact_probability\n10,10,1,{p}\n")

    # Past the bound: refused at once, before any power as wide as sides**dice. Without the
    # width clause, max 1500000d3 ran for 6 s (dist --success) to 43 s (compare --summary).
    @pytest.mark.parametrize(
        "pool,message",
        [
            (("--mechanic", "max", "--dice", "1000000000", "--sides", "1000", "--difficulty", "5"),
             "exact max distributions need outcomes * (bits + 64) <= 10000000, "
             "got 1000 * (10000000000 + 64) for 1000000000d1000"),
            (("--mechanic", "sum", "--dice", "1000000000", "--sides", "6", "--difficulty", "5"),
             "exact sum distributions need outcomes * (bits + 64) <= 10000000, "
             "got 5000000001 * (3000000000 + 64) for 1000000000d6"),
            (("--mechanic", "max", "--dice", "1500000", "--sides", "3", "--difficulty", "3"),
             "exact max distributions need bits <= 262144, got 3000000 for 1500000d3"),
        ],
        ids=["max", "sum", "max-width"],
    )
    @pytest.mark.parametrize(
        "command",
        [("dist", "--success"), ("check", "--seed", "1"),
         ("simulate", "--seed", "1", "--n", "1", "--aggregate"),
         ("compare", "--pair", "dice", "--summary")],
        ids=["dist-success", "check", "aggregate", "compare"],
    )
    def test_far_past_the_caps_is_refused_first(self, capsys, pool, message, command):
        code, out, err = run_cli(capsys, command[0], *pool, *command[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")


# The batch commands of the benchmark's exact workload (seed 1) and the SHA-256 of their
# stdout, taken before success probabilities became closed forms, dist_to_csv shared the
# text of repeated masses and discrete_vs_logistic walked its grid in one pass.
EXACT_BATCH = [
    ("dist --mechanic sum --sides 10 --dice 50 --modifier -3 --difficulty 297",
     "dd62623c635a11efd2c99eeac60e633fa49cfc26c29aa7d5ea59f09a45943da7"),
    ("dist --mechanic sum --sides 12 --dice 24 --modifier -4 --difficulty 148 --success",
     "7d878bed4e4c22bb6da74b0fb111a94e6b64cae0796c9cfdb1df15bd7fd3f2d7"),
    ("compare --pair dice --summary --mechanic sum --sides 6 --dice 40 --modifier -4 --difficulty 163",
     "68d41e389b12c7fa039c377f416703f84549c59cfd83c90f52ea41da9cd471bc"),
    ("dist --mechanic pool --sides 8 --dice 30 --difficulty 153",
     "6f04386c190ac93ba550e8ef7f819bc366188759090b59f696f6d35079986a22"),
    ("dist --mechanic pool --sides 10 --dice 20 --difficulty 118 --success",
     "2cced61d88728eeceb94fded8ca9e5cd0ea7173ab07221a96e60dc94ebee279f"),
    ("compare --pair dice --summary --mechanic pool --sides 20 --dice 16 --difficulty 182",
     "76680631b3c18d5bc920b51191d3bfac8b95ff29338bc3eb988dbd4023d9ef32"),
    ("dist --mechanic binomial --sides 10 --dice 50 --threshold 6 --required 30",
     "31ef3739d21692dbd9beab1bedaf25eacf984cf3398b0fac6f1e7b3e2cdea629"),
    ("dist --mechanic binomial --sides 20 --dice 200 --threshold 11 --required 101 --success",
     "8f2b1e0ae043b2cbb871c9faaca0a1c5a22846637af5815d0a1c0050dc37f43d"),
    ("compare --pair dice --summary --mechanic binomial --sides 12 --dice 100 --threshold 7 --required 48",
     "1dc465c6cef866f27066c4a3de22d156ef08101a9dc6af87cf27dc1931bb5320"),
    ("dist --mechanic max --sides 100 --dice 50 --difficulty 71",
     "1bb76fa4e14b21b2b4358d25c5d561aa7b864e72c79bdeab219d6cfc7f9b68f5"),
    ("dist --mechanic max --sides 1000 --dice 100 --difficulty 755 --success",
     "8db7d16fc1b7b888985c1a6b896181250924854c2329acd67748a52489cda013"),
    ("compare --pair dice --summary --mechanic max --sides 100 --dice 10 --difficulty 70",
     "a7a4bcecf970885114b3981974dadaf3d560e637ee53889bc79b214ef5217125"),
    ("dist --mechanic roll-under --sides 1000 --target 504",
     "198361d31723a6f1ac445193bdf7f5c47aa250ab9c86cc5bc1ff02eadc9e287d"),
    ("dist --mechanic roll-under --sides 10000 --target 5021 --success",
     "9c796106353b60100e57430b27f1ae52e98dce9229209c0411d407eca685830e"),
    ("compare --pair dice --summary --mechanic roll-under --sides 1000 --target 518",
     "00d719f75906f91dcc1dd9259dd65cd4ca01f3294e1dd1bdce82c39069d545e8"),
    ("dist --mechanic roll-over --sides 1000 --modifier 47 --difficulty 480",
     "198361d31723a6f1ac445193bdf7f5c47aa250ab9c86cc5bc1ff02eadc9e287d"),
    ("dist --mechanic roll-over --sides 10000 --modifier 39 --difficulty 5028 --success",
     "0c8165965e0b837a4fb65a291d891d93a6f6f58db4cfa4e1ffcf86fca2491292"),
    ("compare --pair dice --summary --mechanic roll-over --sides 1000 --modifier -16 --difficulty 494",
     "00d719f75906f91dcc1dd9259dd65cd4ca01f3294e1dd1bdce82c39069d545e8"),
    ("dist --mechanic step --sides 1000 --difficulty 517",
     "198361d31723a6f1ac445193bdf7f5c47aa250ab9c86cc5bc1ff02eadc9e287d"),
    ("dist --mechanic step --sides 10000 --difficulty 4852 --success",
     "6b6e5ee4a788136375a2616dccbac3a65fb508c2f8ada973999758831ce7d3e1"),
    ("compare --pair dice --summary --mechanic step --sides 1000 --difficulty 500",
     "00d719f75906f91dcc1dd9259dd65cd4ca01f3294e1dd1bdce82c39069d545e8"),
]


@pytest.mark.parametrize("argv,digest", EXACT_BATCH, ids=[a for a, _ in EXACT_BATCH])
def test_exact_batch_stdout_is_unchanged(capsys, argv, digest):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCheck:
    def test_mechanic_check_deterministic(self, capsys):
        args = ("check", "--mechanic", "sum", "--dice", "3", "--sides", "6",
                "--difficulty", "11", "--seed", "42")
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2
        header, row = out1.strip().split("\n")
        assert header == "success,probability,raw_roll"
        success, prob, raw = row.split(",")
        assert success in ("0", "1")
        assert prob == "0.5"
        assert 3 <= int(raw) <= 18

    def test_model_check(self, capsys):
        model = json.dumps({"ability": 0.0, "difficulty": 0.0, "lower": 1.0, "upper": 1.0})
        code, out, _ = run_cli(capsys, "check", "--model", model, "--seed", "1")
        assert code == 0
        assert out == "success,probability,raw_roll\n1,1,\n"

    # The gap overflows a float. Slope 0 printed nan, and slope 1e-308 printed 1.
    @pytest.mark.parametrize("slope,shown", [("0", "0.5"), ("1e-308", "0.880797077978")])
    def test_a_model_whose_gap_overflows(self, capsys, slope, shown):
        model = f'{{"ability":1e308,"difficulty":-1e308,"slope":{slope}}}'
        code, out, _ = run_cli(capsys, "check", "--model", model, "--seed", "1")
        assert (code, out.splitlines()[1].split(",")[1:]) == (0, [shown, ""])
        code, out, _ = run_cli(capsys, "simulate", "--model", model, "--n", "0", "--seed", "1", "--aggregate")
        assert (code, out) == (0, f"n,successes,rate,exact_probability\n0,0,0,{shown}\n")

    def test_seed_required(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--mechanic", "step", "--sides", "8")
        assert code == 2

    def test_model_and_mechanic_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys, "check", "--model", "{}", "--mechanic", "step",
            "--sides", "8", "--seed", "1",
        )
        assert code == 2

    def test_bad_model_json(self, capsys):
        code, _, err = run_cli(capsys, "check", "--model", "{nope", "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("command", [("check",), ("simulate", "--n", "3"),
                                         ("simulate", "--n", "3", "--aggregate")])
    @pytest.mark.parametrize(
        "model,message",
        [
            ("1", "model must be a JSON object"),
            ("null", "model must be a JSON object"),
            ("[1]", "model must be a JSON object"),
            ('{"ability": [1], "difficulty": 0}', "model field ability must be a number, got [1]"),
            ('{"ability": {}, "difficulty": 0}', "model field ability must be a number, got {}"),
            ('{"ability": 0, "difficulty": "hard"}',
             "model field difficulty must be a number, got 'hard'"),
        ],
    )
    def test_model_that_is_not_numbers_is_a_one_line_error(self, capsys, command, model, message):
        code, out, err = run_cli(capsys, *command, "--model", model, "--seed", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestOpposed:
    def test_multiplicative(self, capsys):
        code, out, _ = run_cli(capsys, "opposed", "--skill-a", "10", "--skill-b", "1")
        assert code == 0
        assert out == "probability\n0.909090909091\n"

    def test_logit(self, capsys):
        code, out, _ = run_cli(capsys, "opposed", "--logit-a", "1.0", "--logit-b", "1.0")
        assert code == 0
        assert out == "probability\n0.5\n"

    def test_rating_expected(self, capsys):
        code, out, _ = run_cli(capsys, "opposed", "--rating-a", "1800", "--rating-b", "1400")
        assert code == 0
        assert out.startswith("expected_a\n0.90909090909")

    def test_rating_update(self, capsys):
        code, out, _ = run_cli(
            capsys, "opposed", "--rating-a", "1600", "--rating-b", "1600", "--score", "1",
        )
        assert code == 0
        assert out == "expected_a,new_rating_a,new_rating_b\n0.5,1616,1584\n"

    def test_mixed_modes_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "opposed", "--skill-a", "3", "--skill-b", "2", "--rating-a", "1500",
        )
        assert code == 2

    def test_nonpositive_skill_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "opposed", "--skill-a", "0", "--skill-b", "2")
        assert code == 1


class TestGradeAndEvidence:
    def test_grade(self, capsys):
        code, out, _ = run_cli(capsys, "grade", "--factor", "5")
        assert code == 0
        assert out == "grade,label,log10L\n2,substantial,0.698970004336\n"

    def test_grade_against(self, capsys):
        code, out, _ = run_cli(capsys, "grade", "--factor", "0.5")
        assert code == 0
        assert out.startswith("grade,label,log10L\n0,against the hypothesis,")

    def test_evidence_batch(self, capsys):
        code, out, _ = run_cli(
            capsys, "evidence", "--prior", "1", "--factor", "3", "--factor", "4",
        )
        assert code == 0
        assert out == "odds,probability\n12,0.923076923077\n"

    def test_evidence_reliability(self, capsys):
        code, out, _ = run_cli(
            capsys, "evidence", "--prior", "1", "--factor", "100", "--reliability", "0.5",
        )
        assert code == 0
        assert out == "odds,probability\n10,0.909090909091\n"

    def test_reliability_needs_single_factor(self, capsys):
        code, _, _ = run_cli(
            capsys, "evidence", "--factor", "2", "--factor", "3", "--reliability", "0.5",
        )
        assert code == 2

    def test_bad_factor_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "evidence", "--factor", "-1")
        assert code == 1


class TestCompare:
    def test_normal_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--pair", "normal", "--scale", "1", "--summary",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "sup_distance,argmax"
        assert float(row.split(",")[0]) == pytest.approx(0.0226624594801, abs=1e-9)

    def test_uniform_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--pair", "uniform", "--scale", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,uniform,logistic,abs_diff"
        assert len(lines) == 1202

    def test_dice_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--pair", "dice", "--mechanic", "sum",
            "--dice", "3", "--sides", "6", "--summary",
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[0]) == pytest.approx(
            0.03243874556, abs=1e-9
        )

    def test_a_collapsed_grid_reads_each_point_once(self, capsys):
        # mean +/- 6 sd spans 1201 grid indices: 3 distinct floats at 1e17, 133 (16384 apart)
        # at 1e20.
        code, out, err = run_cli(capsys, "compare", "--pair", "normal", "--mean", "1e17", "--scale", "1")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(r[1]) for r in rows] == [0.0, 0.5, 1.0]
        for mean, scale, points in ((1e17, 1.0, 3), (1e20, 1e5, 133)):
            grid = normal_vs_logistic(LogisticParams(mean, scale)).grid
            assert len(grid) == points
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_dice_rows_are_fig5(self, capsys):
        argv = ("compare", "--pair", "dice", "--mechanic", "sum", "--dice", "3", "--sides", "6")
        assert run_cli(capsys, *argv) == run_cli(capsys, "figure", "fig5")

    # The (mean, scale) of every curve command in this file, error cases included.
    @pytest.mark.parametrize(
        "mean,scale",
        [("0", "1"), ("0", "2"), ("0", "inf"), ("0", "1e200"), ("0", "1e-200"), ("0", "1e-320"),
         ("1e300", "1"), ("1e308", "1e307"), ("-7.25", "0.3"), ("1e15", "1")],
    )
    @pytest.mark.parametrize("pair", ["normal", "uniform"])
    def test_curve_summary_prints_the_full_grid_maximum(self, capsys, pair, mean, scale):
        got = run_cli(capsys, "compare", "--pair", pair, "--mean", mean, "--scale", scale, "--summary")
        full = {"normal": normal_vs_logistic, "uniform": uniform_vs_logistic}[pair]
        try:
            report = full(LogisticParams(float(mean), float(scale)))
        except ValueError as e:
            assert got == (1, "", f"error: {e}\n")
        else:
            row = f"{cli._fmt(report.sup_distance)},{cli._fmt(report.argmax_point)}"
            assert got == (0, f"sup_distance,argmax\n{row}\n", "")


class TestFigure:
    # The sha256 of each figure's stdout, as first released.
    DIGESTS = {
        "fig2": "6fbe1f01510f24edda8353a198fa7ef9122aff77c34f1671a3bc3bd35db73aab",
        "fig3": "f5c9c0a645ae30c026ed47ffef70e95505a79123eeb5c01e296d71f06c9a4afc",
        "fig4": "e07e9ee3ca9483f5d011545f02c9cee786a8af0b5a31238df1bff65f8f9a93b3",
        "fig5": "4a0fc1133b8f9946637eab3fba8db9a6655242a6a62191a03ad8b17843ee186c",
    }

    @pytest.mark.parametrize("which", list(DIGESTS))
    def test_matches_library(self, capsys, which):
        code, out, _ = run_cli(capsys, "figure", which)
        assert code == 0
        assert out == figure_data(which)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[which]

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "figure", "fig4")
        _, out2, _ = run_cli(capsys, "figure", "fig4")
        assert out1 == out2

    def test_unknown_figure_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "fig7")
        assert code == 2


def _twelve_by_six_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(TWELVE_BY_SIX)
    return path


class TestFit:
    def test_end_to_end(self, capsys, tmp_path):
        path = _twelve_by_six_log(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert set(payload["abilities"]) == {f"p{i}" for i in range(12)}
        assert set(payload["difficulties"]) == {f"t{j}" for j in range(6)}

    def test_golden_output(self, capsys, tmp_path):
        path = _twelve_by_six_log(tmp_path)
        assert run_cli(capsys, "fit", "--input", str(path)) == (0, FIT_GOLDEN, "")

    def test_malformed_row_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("person,task,success\na,t,1\nb,t,maybe\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("log", WARNED)
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_warnings_are_one_warning_line_each_on_every_call(
        self, capsys, tmp_path, monkeypatch, log, source
    ):
        flags, text, warned, digest, _ = WARNED[log]
        path = tmp_path / "log.csv"
        path.write_text(text)
        expected = (0, digest, "".join(f"warning: {w}\n" for w in warned))
        for _ in range(2):  # Python would show a warning from one place only the first time
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv = ("fit", "--input", str(path) if source == "path" else "-", *flags)
            code, out, err = run_cli(capsys, *argv)
            assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == expected

    @pytest.mark.parametrize("log", SOLVER_PATHS)
    def test_rare_solver_paths(self, capsys, tmp_path, log):
        flags, text, (warned,), digest, _ = SOLVER_PATHS[log]
        path = tmp_path / "log.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), *flags)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, f"warning: {warned}\n")

    def test_stdin_matches_path(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWELVE_BY_SIX))
        assert run_cli(capsys, "fit", "--input", "-") == (0, FIT_GOLDEN, "")

    @pytest.mark.parametrize("header", ["person,task,success", '"person","task","success"'])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_byte_order_mark_before_the_header_is_skipped(
        self, capsys, tmp_path, monkeypatch, header, newline
    ):
        # Excel's "CSV UTF-8" export starts with one. Only the plain log (an unquoted header
        # and \n) takes the numpy path from a path; the others take the csv reader.
        body = TWELVE_BY_SIX.split("\n", 1)[1]
        text = ("\ufeff" + header + "\n" + body).replace("\n", newline)
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        assert run_cli(capsys, "fit", "--input", str(path)) == (0, FIT_GOLDEN, "")
        monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
        assert run_cli(capsys, "fit", "--input", "-") == (0, FIT_GOLDEN, "")

    @pytest.mark.parametrize(
        "text",
        [
            "who,what,result\na,t,1\n",
            "",
            "person,task,success\na,t,1\nb,t\n",
            "person,task,success\na,t,1\nb,t,maybe\n",
            "person,task,success\n,t,1\n",
            "person,task,success\na,,1\n",
            "person,task,success\n",
            "person,task,success\na,t,1\nb," + "t" * (csv.field_size_limit() + 1) + ",0\n",
            'person,task,success\n"a\nb",t,1\nc,t,maybe\n',  # line 4
        ],
        ids=["header", "empty", "two_fields", "maybe", "no_person", "no_task", "no_records",
             "oversize_field", "quoted_newline"],
    )
    def test_input_errors_match_the_library(self, capsys, tmp_path, monkeypatch, text):
        with pytest.raises(ValueError) as exc:
            fit_rasch(read_outcome_csv(io.StringIO(text)))
        expected = (1, "", f"error: {exc.value}\n")
        path = tmp_path / "log.csv"
        path.write_text(text)
        assert run_cli(capsys, "fit", "--input", str(path)) == expected
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "fit", "--input", "-") == expected

    def test_nul_byte_is_an_identifier_or_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("person,task,success\na\0b,t,1\nc,t,0\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        if code == 1:  # the csv reader before Python 3.11
            assert (out, err) == ("", "error: line 2: line contains NUL\n")
        else:
            assert (code, sorted(json.loads(out)["abilities"])) == (0, ["a\0b", "c"])

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", "/nonexistent/x.csv")
        assert code == 1


class TestSimulate:
    def test_trial_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--mechanic", "step", "--sides", "8",
            "--difficulty", "5", "--n", "5", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trial,success"
        assert len(lines) == 6
        assert all(line.split(",")[1] in ("0", "1") for line in lines[1:])

    def test_aggregate_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--mechanic", "sum", "--dice", "3", "--sides", "6",
            "--difficulty", "11", "--n", "2000", "--seed", "17", "--aggregate",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "n,successes,rate,exact_probability"
        n, successes, rate, exact = row.split(",")
        mech = SumRollOver(dice=3, sides=6, modifier=0, difficulty=11)
        expected = simulate_count(mech, 2000, SplitMix64(17))
        assert int(successes) == expected
        assert exact == "0.5"
        assert float(rate) == pytest.approx(int(successes) / 2000, abs=1e-12)

    def test_model_simulation(self, capsys):
        model = json.dumps({"ability": 0.5, "difficulty": 0.0})
        code, out, _ = run_cli(
            capsys, "simulate", "--model", model, "--n", "100", "--seed", "5",
            "--aggregate",
        )
        assert code == 0
        assert out.startswith("n,successes,rate,exact_probability\n100,")

    def test_a_zero_slope_model_whose_gap_overflows_is_a_coin(self, capsys):
        argv = ("simulate", "--n", "300", "--seed", "3", "--model")
        _, out, _ = run_cli(capsys, *argv, '{"ability":1e308,"difficulty":-1e308,"slope":0}')
        _, coin, _ = run_cli(capsys, *argv, '{"ability":0,"difficulty":0}')
        assert out == coin
        assert 100 < coin.count(",1\n") < 200

    def test_seed_required(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--mechanic", "step", "--sides", "6", "--n", "5")
        assert code == 2

    def test_byte_identical_runs(self, capsys):
        args = ("simulate", "--mechanic", "max", "--dice", "2", "--sides", "6",
                "--difficulty", "5", "--n", "50", "--seed", "77")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "target",
        [
            ("--mechanic", "roll-under", "--sides", "20", "--target", "9"),
            ("--mechanic", "roll-over", "--sides", "20", "--modifier", "2", "--difficulty", "13"),
            ("--mechanic", "sum", "--dice", "3", "--sides", "6", "--difficulty", "11"),
            ("--mechanic", "binomial", "--dice", "5", "--sides", "10",
             "--threshold", "6", "--required", "3"),
            ("--mechanic", "pool", "--dice", "4", "--sides", "4", "--difficulty", "10"),
            ("--mechanic", "step", "--sides", "8", "--difficulty", "5"),
            ("--mechanic", "max", "--dice", "3", "--sides", "10", "--difficulty", "8"),
            ("--model", json.dumps({"ability": 0.3, "difficulty": 0.0, "lower": 0.2})),
        ],
        ids=lambda t: t[1] if t[0] == "--mechanic" else "model",
    )
    def test_trial_rows_match_aggregate(self, capsys, target):
        args = ("simulate",) + target + ("--n", "300", "--seed", "23")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == [str(i) for i in range(1, 301)]
        code, agg, _ = run_cli(capsys, *args, "--aggregate")
        assert code == 0
        successes = int(agg.strip().split("\n")[1].split(",")[1])
        assert sum(row.endswith(",1") for row in rows) == successes

    MODEL = (("--model", '{"ability": 0.4, "difficulty": 0.1, "upper": 0.9}'),
             FourPL(0.4, 0.1, upper=0.9), resolve_model)

    @pytest.mark.parametrize(
        "flags,target,resolve,n",
        [
            (*MODEL, 8300),  # past one block of draws
            (("--mechanic", "binomial", "--dice", "5", "--sides", "10", "--threshold", "6",
              "--required", "3"), BinomialPool(5, 10, 6, 3), resolve_mechanic, 8300),
            # Trial 10,000 (4 to 5 digits) is inside block 2, and 100,000 inside block 13.
            (*MODEL, 100_001),
        ],
        ids=["model", "mechanic", "model-past-two-width-changes"],
    )
    def test_trial_rows_are_the_scalar_checks(self, capsys, flags, target, resolve, n):
        code, out, err = run_cli(capsys, "simulate", *flags, "--n", str(n), "--seed", "-9")
        rng = SplitMix64(-9)
        rows = "".join(f"{i},{int(resolve(target, rng).success)}\n" for i in range(1, n + 1))
        assert (code, err) == (0, "")
        assert_same_text(out, "trial,success\n" + rows)

    @pytest.mark.parametrize(
        "target",
        [("--model", '{"ability": 0, "difficulty": 0}'), ("--mechanic", "step", "--sides", "6")],
        ids=["model", "mechanic"],
    )
    def test_zero_trials_print_the_header(self, capsys, target):
        assert run_cli(capsys, "simulate", *target, "--n", "0", "--seed", "1") == (
            0, "trial,success\n", "")

    @pytest.mark.parametrize(
        "command",
        [("check",), ("simulate", "--n", "3"), ("simulate", "--n", "3", "--aggregate")],
        ids=["check", "per-trial", "aggregate"],
    )
    def test_unrollable_die_is_a_one_line_error(self, capsys, command):
        die = ("--mechanic", "roll-under", "--sides", str(2**64 + 1), "--target", "1")
        code, out, err = run_cli(capsys, *command, *die, "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: dice * sides must be below 2**63, got 1 * 18446744073709551617\n"

    @pytest.mark.parametrize("mode", [(), ("--aggregate",)], ids=["per-trial", "aggregate"])
    def test_negative_trials_rejected(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "simulate", "--mechanic", "sum", "--dice", "3", "--sides", "6",
            "--difficulty", "11", "--n", "-5", "--seed", "1", *mode,
        )
        assert (code, out) == (1, "")
        assert err == "error: trial count must be nonnegative, got -5\n"


def f_string_rows(start, flags):
    """The rows as ``simulate`` once wrote them, one f-string per trial."""
    return "".join(f"{t},{s}\n" for t, s in zip(range(start, start + len(flags)), flags.view("u1").tolist()))


@st.composite
def trial_blocks(draw):
    """A first trial number and a block of up to ``_BLOCK`` flags: all 0, all 1 or mixed."""
    start = draw(st.one_of(
        st.integers(1, 19).flatmap(lambda k: st.integers(max(1, 10**k - _BLOCK - 2), 10**k + 2)),
        st.builds(lambda j, d: _BLOCK * j + 1 + d, st.integers(0, 2**40), st.integers(0, 2)),
        st.integers(1, 2**63),
    ))
    n = draw(st.one_of(st.sampled_from([0, 1, _BLOCK]), st.integers(0, _BLOCK)))
    kind = draw(st.sampled_from(["zeros", "ones", "mixed"]))
    if kind == "mixed":
        flags = np.random.default_rng(draw(st.integers(0, 2**32))).random(n) < 0.5
    else:
        flags = np.full(n, kind == "ones")
    return start, flags


class TestTrialRows:
    @settings(max_examples=300)
    @given(trial_blocks())
    # Blocks across 1 -> 2, 5 -> 6 and 19 -> 20 digits, and the top start drawn.
    @example((9, np.arange(_BLOCK) % 3 == 0))
    @example((99_999, np.arange(_BLOCK) % 3 == 0))
    @example((10**19 - 1, np.arange(_BLOCK) % 3 == 0))
    @example((2**63, np.arange(_BLOCK) % 3 == 0))
    def test_equal_the_f_string_rows(self, block):
        start, flags = block
        assert_same_text(cli._trial_rows(start, flags), f_string_rows(start, flags))


class TestMonteCarloError:
    SUM = ("--mechanic", "sum", "--dice", "3", "--sides", "6", "--difficulty", "11")
    TARGETS = {
        "sum": SUM,
        "binomial": ("--mechanic", "binomial", "--dice", "5", "--sides", "10", "--threshold", "6",
                     "--required", "3"),
        "max": ("--mechanic", "max", "--dice", "3", "--sides", "10", "--difficulty", "8"),
    }

    def aggregate(self, capsys, *argv):
        code, out, err = run_cli(capsys, "simulate", *argv, "--aggregate", "--mc-error")
        assert (code, err) == (0, ""), err
        header, row, end = out.split("\n")
        assert (header, end) == ("n,successes,rate,exact_probability,std_error,z", "")
        return row.split(",")

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_formula(self, capsys, n):
        argv = (*self.SUM, "--n", str(n), "--seed", "17")
        successes, rate, p, std_error, z = self.aggregate(capsys, *argv)[1:]
        expected = math.sqrt(0.5 * 0.5 / n)
        assert float(std_error) == pytest.approx(expected, rel=1e-11)
        assert float(z) == pytest.approx((int(successes) / n - 0.5) / expected, rel=1e-11, abs=1e-12)

    def test_default_stdout_is_unchanged(self, capsys):
        argv = ("simulate", *self.SUM, "--n", "2000", "--seed", "17", "--aggregate")
        _, default, _ = run_cli(capsys, *argv)
        assert default == "n,successes,rate,exact_probability\n2000,1010,0.505,0.5\n"  # as released
        _, with_error, _ = run_cli(capsys, *argv, "--mc-error")
        assert [line.rsplit(",", 2)[0] for line in with_error.splitlines()] == default.splitlines()

    @pytest.mark.parametrize(
        "target,p",
        [
            (("--model", '{"ability": 0, "difficulty": 0, "upper": 0}'), "0"),
            (("--model", '{"ability": 0, "difficulty": 0, "lower": 1}'), "1"),
            (("--model", '{"ability": -1e308, "difficulty": 1e308}'), "0"),
            (("--mechanic", "step", "--sides", "6", "--difficulty", "7"), "0"),
            (("--mechanic", "step", "--sides", "6", "--difficulty", "1"), "1"),
        ],
        ids=["model-0", "model-1", "model-gap-overflows", "mechanic-0", "mechanic-1"],
    )
    def test_a_certain_outcome_has_no_error(self, capsys, target, p):
        row = self.aggregate(capsys, *target, "--n", "25", "--seed", "3")
        assert row == ["25", "0" if p == "0" else "25", p, p, "0", "0"]

    def test_a_subnormal_probability_keeps_a_finite_error(self, capsys):
        model = '{"ability": 0, "difficulty": 0, "upper": 1e-320}'
        row = self.aggregate(capsys, "--model", model, "--n", "10000", "--seed", "3")[2:]
        assert all(math.isfinite(float(cell)) for cell in row)
        assert float(row[2]) > 0  # p(1 - p)/n would underflow to 0

    def test_zero_trials_is_a_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *self.SUM, "--n", "0", "--seed", "1",
                                 "--aggregate", "--mc-error")
        assert (code, out, err) == (1, "", "error: --mc-error needs at least one trial, got --n 0\n")

    def test_needs_aggregate(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *self.SUM, "--n", "3", "--seed", "1", "--mc-error")
        assert (code, out) == (2, "")
        assert err.endswith("error: --mc-error needs --aggregate\n")

    @pytest.mark.parametrize("name", TARGETS)
    def test_z_covers_about_95_percent(self, capsys, name):
        runs = [self.aggregate(capsys, *self.TARGETS[name], "--n", "1000", "--seed", str(seed))
                for seed in range(1, 201)]
        share = sum(abs(float(row[-1])) < 1.96 for row in runs) / len(runs)
        assert 0.90 <= share <= 0.99


class TestDomainEdges:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("evidence", "--factor", "1e200", "--factor", "1e200"), "odds,probability\ninf,1\n"),
            (("opposed", "--rating-a", "0", "--rating-b", "1000000"), "expected_a\n0\n"),
            (("opposed", "--rating-a", "1000000", "--rating-b", "0"), "expected_a\n1\n"),
            (("opposed", "--skill-a", "1e308", "--skill-b", "1e308"), "probability\n0.5\n"),
            # The pair's total overflows a float, but both new ratings are finite.
            (("opposed", "--rating-a", "1e308", "--rating-b", "1e308", "--score", "1"),
             "expected_a,new_rating_a,new_rating_b\n0.5,1e+308,1e+308\n"),
            (("opposed", "--rating-a", "1e308", "--rating-b", "1e308", "--score", "1",
              "--k", "1e308"), "expected_a,new_rating_a,new_rating_b\n0.5,1.5e+308,5e+307\n"),
        ],
    )
    def test_overflow_prints_the_limit(self, capsys, argv, expected):
        assert run_cli(capsys, *argv)[:2] == (0, expected)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("opposed", "--skill-a", "inf", "--skill-b", "inf"), "opposed skills must be"),
            (("opposed", "--logit-a", "inf", "--logit-b", "inf"), "logit skills have no"),
            (("check", "--model", '{"ability":NaN,"difficulty":0}', "--seed", "1"),
             "ability must be finite, got nan"),
            (("compare", "--pair", "normal", "--scale", "inf"), "scale must be finite, got inf"),
        ],
    )
    def test_non_finite_input_is_a_one_line_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("compare", "--pair", "normal", "--scale", "1e200"), "scale 1e+200 gives no"),
            (("compare", "--pair", "uniform", "--scale", "1e200"), "scale 1e+200 gives no"),
            (("compare", "--pair", "normal", "--scale", "1e-200"), "scale 1e-200 gives no"),
            (("compare", "--pair", "uniform", "--scale", "1e-320"), "scale 1e-320 gives no"),
            (("compare", "--pair", "normal", "--mean", "1e300", "--scale", "1"),
             "mean 1e+300 and scale 1.0 give no finite grid"),
            (("compare", "--pair", "uniform", "--mean", "1e308", "--scale", "1e307", "--summary"),
             "scale 1e+307 gives no"),
            # The first sums past the work bound (3129d2 and 115d100 are the last inside it).
            (("dist", "--mechanic", "sum", "--dice", "3130", "--sides", "2", "--success"),
             "exact sum distributions need outcomes * (bits + 64) <= 10000000, "
             "got 3131 * (3130 + 64) for 3130d2"),
            (("dist", "--mechanic", "pool", "--dice", "1", "--sides", "123457"),
             "exact sum distributions need outcomes * (bits + 64) <= 10000000, "
             "got 123457 * (17 + 64) for 1d123457"),
            (("compare", "--pair", "dice", "--mechanic", "sum", "--dice", "116", "--sides", "100"),
             "exact sum distributions need"),
            (("check", "--mechanic", "sum", "--dice", "3130", "--sides", "2", "--seed", "1"),
             "exact sum distributions need"),
            (("simulate", "--mechanic", "max", "--dice", "131073", "--sides", "3", "--n", "1",
              "--seed", "1", "--aggregate"),
             "exact max distributions need bits <= 262144, got 262146 for 131073d3"),
            # (2/3)**2000 underflows, and with it the float variance.
            *((("compare", "--pair", "dice", *summary, "--mechanic", "max", "--dice", "2000",
                "--sides", "3"), "cannot match a logistic: the variance underflows to 0.0 as a float")
              for summary in ((), ("--summary",))),
            *((("fit", "--input", "-", *flags), message) for flags, message in (
                (("--slope", "inf"), "slope must be nonnegative and finite, got inf"),
                (("--ridge", "nan"), "ridge must be nonnegative and finite, got nan"),
                (("--ridge", "inf"), "ridge must be nonnegative and finite, got inf"),
            )),
            (("dist", "--mechanic", "max", "--dice", "100000", "--sides", "1000", "--success"),
             "exact max distributions need outcomes * (bits + 64) <= 10000000, "
             "got 1000 * (1000000 + 64) for 100000d1000"),
            (("dist", "--mechanic", "binomial", "--dice", "20000", "--sides", "10",
              "--threshold", "6", "--required", "1"), "exact count distributions need"),
            (("check", "--mechanic", "max", "--dice", "1", "--sides", "124000", "--seed", "1"),
             "exact max distributions need"),
            (("compare", "--pair", "dice", "--mechanic", "max", "--dice", "1", "--sides", "124000"),
             "exact max distributions need"),
            (("simulate", "--mechanic", "binomial", "--dice", "4000", "--sides", "10",
              "--threshold", "6", "--required", "1", "--n", "3", "--seed", "1", "--aggregate"),
             "exact count distributions need"),
            *(((*command, "--mechanic", *mechanic, "--sides", "124000"),
               "exact face distributions need outcomes * (bits + 64) <= 10000000, "
               "got 124000 * (17 + 64) for 1d124000")
              for command in (("dist",), ("compare", "--pair", "dice"))
              for mechanic in (("step",), ("roll-under", "--target", "5"), ("roll-over",))),
            (("fit", "--input", "-", "--slope", "2e154"), "slope must be at most 1e+144, got 2e+154"),
        ],
    )
    def test_out_of_range_input_is_a_one_line_error(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(FIVE_RECORDS))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    # Every float flag, after the arguments that make it count.
    FLOAT_FLAGS = [
        (("grade",), "--factor"),
        (("evidence",), "--prior"),
        (("evidence",), "--factor"),
        (("evidence", "--factor", "2"), "--reliability"),
        *((("opposed", f"--{kind}-{other}", "1"), f"--{kind}-{side}")
          for kind in ("skill", "logit", "rating") for side, other in (("a", "b"), ("b", "a"))),
        (("opposed", "--rating-a", "0", "--rating-b", "0", "--score", "1"), "--k"),
        (("compare", "--pair", "normal", "--summary"), "--mean"),
        (("compare", "--pair", "uniform", "--summary"), "--scale"),
        *((("fit", "--input", "-"), flag) for flag in ("--ridge", "--slope", "--tol")),
    ]

    @pytest.mark.parametrize("before,flag", FLOAT_FLAGS)
    @pytest.mark.parametrize("value", ["-1e-5", "-1E3", "-1e308", "-1e-400", "-inf", "-Infinity", "-nan"])
    def test_negative_floats_in_every_spelling_are_values(
        self, capsys, monkeypatch, before, flag, value
    ):
        results = []
        for argv in ((*before, flag, value), (*before, f"{flag}={value}")):
            monkeypatch.setattr("sys.stdin", io.StringIO(FIVE_RECORDS))
            results.append(run_cli(capsys, *argv))
        assert results[0] == results[1]
        assert results[0][0] in (0, 1)

    def test_negative_zero_score_is_a_choice(self, capsys):
        rating = ("opposed", "--rating-a", "1500", "--rating-b", "1400")
        assert run_cli(capsys, *rating, "--score", "-0e0") == run_cli(capsys, *rating, "--score", "0")

    @pytest.mark.parametrize("value", ["-x", "-e5", "--1"])
    def test_a_dash_word_is_still_a_missing_value(self, capsys, value):
        code, out, err = run_cli(capsys, "compare", "--pair", "normal", "--mean", value)
        assert (code, out) == (2, "")
        assert "argument --mean: expected one argument" in err

    def test_work_bound_spares_sampling_and_one_die_closed_forms(self, capsys):
        big = ("--dice", "3130", "--sides", "2")  # the first d2 sum past the bound
        code, out, _ = run_cli(capsys, "simulate", "--mechanic", "sum", *big,
                               "--difficulty", "4695", "--n", "3", "--seed", "1")
        assert (code, out.count("\n")) == (0, 4)
        # Past the old dice * sides <= 1000 cap of sums, inside the bound.
        code, out, _ = run_cli(capsys, "dist", "--mechanic", "sum", "--dice", "60", "--sides", "100",
                               "--difficulty", "3030", "--success")
        assert code == 0 and out.startswith("num,den,float\n")
        code, out, _ = run_cli(capsys, "dist", "--mechanic", "step", "--sides", "124000", "--success")
        assert code == 0 and out.startswith("num,den,float\n")


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "usage" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("dist --sides 6", "--mechanic is required"),
            ("check --mechanic sum --seed 1", "--sides is required"),
            ("opposed --skill-a 1", "both --skill-a and --skill-b are required"),
            ("evidence --reliability 0.5", "--reliability needs exactly one --factor"),
            ("check --mechanic sum --seed 1 --model {}", "give exactly one of --model or --mechanic"),
        ],
    )
    def test_a_missing_flag_is_named_on_the_last_stderr_line(self, capsys, argv, message):
        # An error found after parsing prints the subcommand's usage, as argparse's own do.
        code, out, err = run_cli(capsys, *argv.split())
        command = argv.split()[0]
        assert (code, out, err.splitlines()[-1]) == (2, "", f"skillcheck {command}: error: {message}")
        assert err.startswith(f"usage: skillcheck {command} [-h]")


class TestParserReuse:
    """``main`` reuses one parser; its output must match a fresh parser per call."""

    def _sequence(self, tmp_path):
        log = str(_twelve_by_six_log(tmp_path))
        sum3d6 = ["--mechanic", "sum", "--dice", "3", "--sides", "6"]
        return [
            ["dist", *sum3d6, "--modifier", "3", "--difficulty", "14", "--success"],
            ["dist", *sum3d6, "--difficulty", "14", "--success"],  # --modifier back to 0
            ["dist", *sum3d6],  # --success and --difficulty back to their defaults
            ["check", *sum3d6, "--difficulty", "11", "--seed", "42"],
            ["fit", "--input", log, "--ridge", "0.5"],
            ["fit", "--input", log],  # --ridge back to its default
            ["dist", "--mechanic", "sum", "--sides", "6", "--bogus"],  # usage error, exit 2
            ["check", "--model", '{"ability": 1, "difficulty": 0}', "--seed", "7"],
            ["--help"],
            ["dist", "--mechanic", "sum", "--dice", "0", "--sides", "6"],  # domain error, exit 1
            ["check", *sum3d6, "--seed", "42"],
            ["compare", "--pair", "dice", "--summary", *sum3d6],
            ["compare", "--pair", "dice", *sum3d6],  # --summary back to off
            ["dist", "--help"],
            ["dist", *sum3d6, "--success"],
        ]

    def _run_all(self, capsys, argvs):
        return [run_cli(capsys, *argv) for argv in argvs]

    def test_interleaved_calls_match_a_fresh_parser_each(self, capsys, tmp_path, monkeypatch):
        argvs = self._sequence(tmp_path) * 2
        reused = self._run_all(capsys, argvs)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._run_all(capsys, argvs)
        assert reused == fresh
        assert {code for code, _, _ in reused} == {0, 1, 2}
        assert reused[:len(argvs) // 2] == reused[len(argvs) // 2:]

    def test_build_parser_still_returns_a_new_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()


def _reference_main(argv):
    """``cli.main`` with every command line through the top-level parser, as before the
    direct route: the reference that the dispatch tests compare ``main`` with."""
    try:
        args = cli._parser().parse_args(argv)
        args.func(args, args.parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _outcome(route, argv):
    """Exit code, stdout and stderr of ``route(argv)``, with an empty stdin, so that a drawn
    ``fit --input -`` stops at reading the log."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(""))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = route(argv)
    return code, out.getvalue(), err.getvalue()


_MODEL = '{"ability": 1, "difficulty": 0}'
_HUGE = str(2**63)
# Command lines on the edges of the dispatch: the empty one, help, unknown, misspelt and
# prefix command names, a global flag no command has, `--`, trailing and early -h,
# abbreviations, `=` forms, extra positionals, unknown flags and missing values.
DISPATCH_EDGES = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["frobnicate"],
    ["chec", "--seed", "1"],
    ["Check", "--seed", "1"],
    ["--", "grade", "--factor", "2"],
    ["--stats", "grade", "--factor", "2"],
    ["grade"],
    ["grade", "--factor", "2"],
    ["grade", "--factor", "2", "--extra"],
    ["grade", "--factor", "2", "x"],
    ["grade", "--factor=2", "x"],
    ["grade", "--", "--factor", "2"],
    ["grade", "--factor", "2", "--"],
    ["grade", "-h", "--factor", "2"],
    ["grade", "--factor", "2", "-h"],
    ["grade", "--fac", "2"],
    ["grade", "--f=2"],
    ["grade", "--factor", "-1e-5"],
    ["grade", "--factor", "-inf"],
    ["grade", "--factor", "nan"],
    ["grade", "--factor", "x"],
    ["grade", "--factor"],
    ["grade", "--factor", "2", "--factor", "3"],
    ["grade", "-x"],
    ["grade", "--factor", "2", "-5"],
    ["dist", "--mech", "sum", "--sides", "6", "--dice", "3"],
    ["dist", "--m", "sum", "--sides", "6"],
    ["dist", "--mechanic=sum", "--sides=6", "--dice=3", "--success", "extra"],
    ["check", "--seed", "1", "--model", _MODEL],
    ["check", "--model", "{}", "--seed", _HUGE],
    ["check", "--mechanic", "sum", "--sides", "6", "--seed", "1", "--", "x"],
    ["check", "-h"],
    ["check", "--seed"],
    ["opposed", "--rating-a", "1500", "--rating-b", "1400", "--score", "1", "--k=16"],
    ["opposed", "--rating", "1500"],
    ["evidence", "--factor", "2", "--factor", "3", "--prior=0.5"],
    ["compare", "--pair", "normal", "--summary", "--mean", "-1e-5"],
    ["figure", "fig3", "fig4"],
    ["figure"],
    ["figure", "--", "fig3"],
    ["fit", "--input", "-", "--bogus"],
    ["simulate", "--model", _MODEL, "--n", "3", "--seed", "1", "--aggregate", "--mc-error"],
    # Edges of the plain reading from a command's flag table: empty and dash values, a flag
    # as a value, values outside the choices, repeated appends and switches, a required flag
    # left out, a positional and `--` mid-line.
    ["check", "--model", "", "--seed", "1"],
    ["check", "--model", "-", "--seed", "1"],
    ["fit", "--input", ""],
    ["fit", "--input", "-"],
    ["check", "--model", "--seed", "1"],
    ["check", "--model", "--seed", "--seed", "1"],
    ["fit", "--input", "-x"],
    ["opposed", "--rating-a", "1500", "--rating-b", "1400", "--score", "nan"],
    ["opposed", "--rating-a", "1500", "--rating-b", "1400", "--score", "0.5"],
    ["opposed", "--rating-a", "1500", "--rating-b", "1400", "--score", "0.25"],
    ["dist", "--mechanic", "Sum", "--sides", "6"],
    ["compare", "--pair", "Normal", "--summary"],
    ["evidence", "--factor", "2", "--factor", "3", "--factor", "0.5"],
    ["evidence", "--factor", "2", "--prior", "3", "--factor", "x"],
    ["dist", "--mechanic", "sum", "--sides", "6", "--success", "--success"],
    ["dist", "--mechanic", "sum", "--sides", "6", "--success", "x"],
    ["check", "--mechanic", "sum", "--dice", "3", "--sides", "6"],
    ["simulate", "--model", _MODEL, "--seed", "1"],
    ["fit"],
    ["figure", "fig2"],
    ["check", "--model", _MODEL, "--", "--seed", "1"],
    ["grade", "--factor", "2", "--factor"],
    ["grade", "--factor", "1e400"],
    ["opposed", "--logit-a", "-.5", "--logit-b", "-Infinity"],
]

_COMMANDS = cli.build_parser().get_default("commands")
# Each command's long flags, read from its usage line.
_FLAGS = {name: re.findall(r"--[a-z][a-z-]*", p.format_usage()) for name, p in _COMMANDS.items()}
_ALL_FLAGS = sorted({flag for flags in _FLAGS.values() for flag in flags})
_NAMES = [*_COMMANDS, "chec", "checkx", "Grade", "dis", "frobnicate", "--", "-h", "--stats"]
# Values and stray positionals. --n takes only small ones, so that no drawn simulate runs long.
_VALUES = ["0", "1", "6", "-2", "2.5", "-1e-5", "1E3", "-1e308", "inf", "-inf", "nan", "-nan",
           str(-2**63 - 1), "sum", "binomial", "normal", "dice", "fig3", "-", "-x", "", _MODEL, "{}"]
_SMALL = ["0", "1", "3", "-2", "2.5", "x"]
# A command line each command runs, for draws to start from, so that many of them reach the command.
_RUNS = {
    "dist": ["--mechanic", "sum", "--dice", "3", "--sides", "6"],
    "check": ["--model", _MODEL, "--seed", "1"],
    "opposed": ["--rating-a", "1500", "--rating-b", "1400"],
    "grade": ["--factor", "2"],
    "evidence": ["--factor", "2"],
    "compare": ["--pair", "normal", "--summary"],
    "figure": ["fig2"],
    "fit": ["--input", "-"],
    "simulate": ["--mechanic", "sum", "--dice", "3", "--sides", "6", "--n", "3", "--seed", "1"],
}


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(_NAMES))
    own = _FLAGS.get(name) or _ALL_FLAGS  # figure has no flag of its own
    argv = [name, *draw(st.sampled_from([[], _RUNS.get(name, [])]))]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(own) | st.sampled_from(_ALL_FLAGS))
        value = draw(st.sampled_from(_SMALL if flag == "--n" else [*_VALUES, _HUGE]))
        piece = draw(st.sampled_from(["pair", "equals", "prefix", "bare", "stray", "token"]))
        if piece == "pair":
            argv += [flag, value]
        elif piece == "equals":
            argv.append(f"{flag}={value}")
        elif piece == "prefix":  # an abbreviation, unique, ambiguous or none at all
            argv += [flag[: draw(st.integers(3, len(flag)))], value]
        elif piece == "bare":
            argv.append(flag)
        elif piece == "stray":  # never a large --n: a bare --n may come just before it
            argv.append(draw(st.sampled_from(_VALUES)))
        else:
            argv.append(draw(st.sampled_from(["--", "-h", "--help", "--bogus", "-x", "--he"])))
    return argv


@st.composite
def _flag_value_argvs(draw):
    """A known command with its own exact flags only, each with a drawn value or none, so
    that most lines have the plain shape and reach the flag table's type, choice and
    required-flag checks."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    argv = [name, *draw(st.sampled_from([[], _RUNS[name]]))]
    for _ in range(draw(st.integers(0, 6))):
        argv.append(draw(st.sampled_from(_FLAGS[name] or _ALL_FLAGS)))
        if draw(st.integers(0, 5)):
            argv.append(draw(st.sampled_from([*_VALUES, _HUGE])))
    return argv


def _assert_plain_reading_agrees(argv):
    """For a known command, ``cli._parse_plain`` gives None or the namespace that the
    command's parser gives, with no leftovers."""
    commands = cli._parser().get_default("commands")
    if not argv or argv[0] not in commands:
        return
    parser = commands[argv[0]]
    plain = cli._parse_plain(parser, argv[1:])
    if plain is None:
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args, extras = parser.parse_known_args(argv[1:])
    except SystemExit:
        pytest.fail(f"read plainly, but argparse exits: {err.getvalue()}")
    # As reprs, so that a nan equals a nan and -0.0 differs from 0.0.
    assert (extras, repr(vars(plain))) == ([], repr(vars(args)))


# One command line of each interactive shape the benchmark runs, written out.
BENCHMARK_SHAPES = [
    ["check", "--mechanic", "sum", "--sides", "6", "--dice", "3", "--modifier", "-2",
     "--difficulty", "11", "--seed", "5480284379122436283"],
    ["check", "--mechanic", "roll-under", "--sides", "20", "--target", "12", "--seed", "17"],
    ["check", "--model", '{"ability": -1.25, "difficulty": 0.4, "slope": 1.3}', "--seed", "92"],
    ["dist", "--mechanic", "binomial", "--sides", "10", "--dice", "5", "--threshold", "6",
     "--required", "3"],
    ["dist", "--mechanic", "pool", "--sides", "6", "--dice", "3", "--difficulty", "9", "--success"],
    ["compare", "--pair", "dice", "--summary", "--mechanic", "max", "--sides", "10", "--dice", "3",
     "--difficulty", "7"],
    ["compare", "--pair", "normal", "--summary", "--mean", "-13.048861", "--scale", "4.26502"],
    ["compare", "--pair", "uniform", "--summary", "--mean", "-0.75", "--scale", "19.5"],
    ["grade", "--factor", "31.622777"],
    ["evidence", "--prior", "0.5", "--factor", "2.0", "--factor", "0.3", "--factor", "4.1"],
    ["evidence", "--prior", "1.2", "--factor", "3.0", "--reliability", "0.6"],
    ["opposed", "--skill-a", "3.5", "--skill-b", "7.25"],
    ["opposed", "--logit-a", "-0.5", "--logit-b", "1.25"],
    ["opposed", "--rating-a", "1500.0", "--rating-b", "1720.0"],
    ["opposed", "--rating-a", "1500.0", "--rating-b", "1720.0", "--score", "0.5"],
    ["fit", "--input", "fit-1/session0.csv", "--ridge", "0.01", "--tol", "1e-06", "--max-iter", "60"],
    ["simulate", "--mechanic", "sum", "--sides", "6", "--dice", "3", "--modifier", "0",
     "--difficulty", "10", "--n", "400", "--seed", "77", "--aggregate"],
    ["simulate", "--model", _MODEL, "--n", "20000", "--seed", "78", "--aggregate"],
]


def _parser_with(*flags):
    """A command parser as ``build_parser`` makes one, with ``flags``: (name, kwargs) pairs."""
    parser = argparse.ArgumentParser()
    parser._negative_number_matcher = cli._NEGATIVE_NUMBER
    for name, kwargs in flags:
        parser.add_argument(name, **kwargs)
    return parser


class TestDispatch:
    """A known command goes straight to its own parser; the bytes equal the top-level route's."""

    @pytest.mark.parametrize("argv", DISPATCH_EDGES, ids=shlex.join)
    def test_edges_match_the_top_level_route(self, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        assert _outcome(cli.main, argv) == _outcome(_reference_main, argv)

    @settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
    @given(argv=_argvs())
    def test_drawn_command_lines_match_the_top_level_route(self, tmp_path_factory, argv):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("COLUMNS", "80")
            mp.chdir(tmp_path_factory.getbasetemp())
            assert _outcome(cli.main, argv) == _outcome(_reference_main, argv)

    def test_a_known_command_skips_the_top_level_pass(self, monkeypatch):
        def parse_args(argv=None):
            raise AssertionError(f"top-level pass over {argv}")

        parser = cli.build_parser()
        parser.parse_args = parse_args
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        monkeypatch.setattr("sys.argv", ["skillcheck", "grade", "--factor", "3"])
        argvs = (None, ["grade", "--factor", "3"], ["grade", "--factor", "3", "x"])
        assert [_outcome(cli.main, argv)[0] for argv in argvs] == [0, 0, 2]

    def test_argv_none_reads_sys_argv_and_a_tuple_works(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["skillcheck", "grade", "--factor", "3"])
        expected = (0, "grade,label,log10L\n1,barely worth a mention,0.47712125472\n", "")
        assert _outcome(cli.main, None) == _outcome(cli.main, ("grade", "--factor", "3")) == expected

    @pytest.mark.parametrize("argv", DISPATCH_EDGES, ids=shlex.join)
    def test_edges_read_plainly_match_the_command_parser(self, argv):
        _assert_plain_reading_agrees(argv)

    @settings(max_examples=1000, derandomize=True, deadline=timedelta(seconds=5))
    @given(argv=st.one_of(_argvs(), _flag_value_argvs()))
    def test_drawn_command_lines_read_plainly_match_the_command_parser(self, argv):
        _assert_plain_reading_agrees(argv)

    @pytest.mark.parametrize("argv", BENCHMARK_SHAPES, ids=shlex.join)
    def test_the_benchmarks_interactive_shapes_are_read_plainly(self, argv):
        commands = cli._parser().get_default("commands")
        assert cli._parse_plain(commands[argv[0]], argv[1:]) is not None
        _assert_plain_reading_agrees(argv)

    def test_a_seed_past_the_int_digit_limit_is_left_to_argparse(self, monkeypatch):
        argv = ["check", "--mechanic", "sum", "--sides", "6", "--seed", "9" * 5000]
        assert cli._parse_plain(cli._parser().get_default("commands")["check"], argv[1:]) is None
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(cli.main, argv) == _outcome(_reference_main, argv)
        assert _outcome(cli.main, argv)[0] == 2

    def test_each_command_but_figure_has_a_flag_table_of_all_its_actions(self):
        for name, parser in cli.build_parser().get_default("commands").items():
            plain = cli._plain_flags(parser)
            if name == "figure":  # its one positional goes to argparse
                assert plain is None
                continue
            assert plain is not None, name
            flags, _, _ = plain
            for action in parser._actions:
                kept = [flags.get(s) is action for s in action.option_strings]
                assert kept == [action.dest != "help"] * len(action.option_strings), (name, action)

    @pytest.mark.parametrize("name,kwargs", [
        ("--x", {"nargs": "+"}),
        ("--x", {"nargs": 1}),
        ("--x", {"nargs": "?"}),
        ("--x", {"action": "count"}),
        ("--x", {"action": "store_const", "const": 1}),
        ("--x", {"action": "store_false"}),
        ("--x", {"action": "extend", "nargs": "+"}),
        ("--x", {"action": argparse.BooleanOptionalAction}),
        ("--x", {"default": "1", "type": int}),
        ("-x", {}),
        ("x", {}),
    ])
    def test_a_flag_of_another_kind_sends_its_parser_to_argparse(self, name, kwargs):
        assert cli._plain_flags(_parser_with(("--y", {"type": int}))) is not None
        assert cli._plain_flags(_parser_with(("--y", {"type": int}), (name, kwargs))) is None

    def test_a_parser_argparse_reads_otherwise_goes_to_argparse(self):
        parsers = [_parser_with(("--y", {})) for _ in range(2)]
        parsers[0].add_mutually_exclusive_group().add_argument("--z")
        parsers[1]._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's own
        assert [cli._plain_flags(p) for p in parsers] == [None] * 2
