"""End-to-end subcommand behavior: output formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import shlex
import sys
from fractions import Fraction

import pytest

from skillcheck import cli
from skillcheck.compare import LogisticParams, figure_data, normal_vs_logistic, uniform_vs_logistic
from skillcheck.dice import BinomialPool, MaxPool, SumRollOver, success_probability
from skillcheck.estimate import fit_rasch, read_outcome_csv
from skillcheck.logistic import FourPL
from skillcheck.resolve import SplitMix64, resolve_mechanic, resolve_model, simulate_count


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    rng = SplitMix64(9)
    lines = ["person,task,success"]
    for i in range(12):
        for j in range(6):
            p = 1.0 if i % 3 else 0.3
            lines.append(f"p{i},t{j},{int(rng.random() < p * 0.8)}")
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# ``fit`` stdout for the 12x6 log, byte for byte, from the marginal-logit start.
FIT_GOLDEN = """{
  "abilities": {
    "p0": -1.64712303679,
    "p1": 1.6509703624,
    "p10": 4.92419158749,
    "p11": 0.720486253457,
    "p2": 0.720486253457,
    "p3": -1.64712303679,
    "p4": 1.6509703624,
    "p5": 0.720486253457,
    "p6": -1.64712303679,
    "p7": 1.6509703624,
    "p8": 1.6509703624,
    "p9": -4.85732014576
  },
  "difficulties": {
    "t0": -0.0856640844255,
    "t1": 0.504082267062,
    "t2": -0.0856640844255,
    "t3": 0.504082267062,
    "t4": -0.0856640844255,
    "t5": -0.751172280848
  },
  "log_likelihood": -29.596049971,
  "converged": true,
  "iterations": 5,
  "extreme": [
    "p10",
    "p9"
  ]
}
"""


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

    DISCONNECTED = "person/task graph is disconnected; logits are only comparable within a component"
    # Flags, log, the warnings it gives in order, and the sha256 of its stdout.
    WARNED = {
        "disconnected": (
            (), "person,task,success\na,t1,1\na,t1,0\nb,t2,1\nb,t2,0\n", [DISCONNECTED],
            "1074cc9dc4b68b7fc6e78f336d89ff16ffdd768e4d6c6fe98cb7d25f84dfaa29",
        ),
        "all_success": (
            ("--ridge", "0"), "person,task,success\na,t1,1\nb,t2,1\n",
            ["unpenalized fit with all-success or all-failure identifiers diverges: "
             "['a', 'b', 't1', 't2']", DISCONNECTED],
            "3fffc6cc8dd7992864216f2e503c8f5ccc2ec9da1e63777ad73ca0cb3f577809",
        ),
    }

    @pytest.mark.parametrize("log", WARNED)
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_warnings_are_one_warning_line_each_on_every_call(
        self, capsys, tmp_path, monkeypatch, log, source
    ):
        flags, text, warned, digest = self.WARNED[log]
        path = tmp_path / "log.csv"
        path.write_text(text)
        expected = (0, digest, "".join(f"warning: {w}\n" for w in warned))
        for _ in range(2):  # Python would show a warning from one place only the first time
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv = ("fit", "--input", str(path) if source == "path" else "-", *flags)
            code, out, err = run_cli(capsys, *argv)
            assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == expected

    # Small logs that reach the solver's rare paths at ridge 0 and slope 3, with the
    # identifiers their one warning names and the sha256 of their stdout.
    SOLVER_PATHS = {
        "step_halved": (
            "p0,t0,1 p0,t0,0 p0,t1,1", "['t1']",
            "580110a7ce455774cef0edff591f3c743ecf706377073d5621ce4b3dcb7b01cf",
        ),
        "line_search_fails": (
            "p0,t1,1 " * 7 + "p1,t0,0 " + "p1,t1,1 " * 3 + "p3,t0,1 " * 2 + "p4,t1,0 " * 6 + "p4,t2,1 " * 5,
            "['p0', 'p3', 't2']",
            "9feda67d8ef681fafe5ac40f3fcfea4e5f7c896debec2543a026f06a40b93296",
        ),
        "newton_not_finite": (
            "p1,t1,1 " * 6 + "p2,t0,1 " * 14 + "p2,t1,0 " * 7,
            "['p1', 't0']",
            "224f158a23d69bfb53edba8a3eb4352859399c243111a1d8e7faab5876140be6",
        ),
    }

    @pytest.mark.parametrize("log", SOLVER_PATHS)
    def test_rare_solver_paths(self, capsys, tmp_path, log):
        rows, extreme, digest = self.SOLVER_PATHS[log]
        path = tmp_path / "log.csv"
        path.write_text("person,task,success\n" + "\n".join(rows.split()) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--ridge", "0", "--slope", "3")
        warning = f"warning: unpenalized fit with all-success or all-failure identifiers diverges: {extreme}\n"
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, warning)

    def test_stdin_matches_path(self, capsys, tmp_path, monkeypatch):
        path = _twelve_by_six_log(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        assert run_cli(capsys, "fit", "--input", "-") == (0, FIT_GOLDEN, "")

    @pytest.mark.parametrize("header", ["person,task,success", '"person","task","success"'])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_byte_order_mark_before_the_header_is_skipped(
        self, capsys, tmp_path, monkeypatch, header, newline
    ):
        # Excel's "CSV UTF-8" export starts with one. Only the plain log (an unquoted header
        # and \n) takes the numpy path from a path; the others take the csv reader.
        body = _twelve_by_six_log(tmp_path).read_text().split("\n", 1)[1]
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

    @pytest.mark.parametrize(
        "flags,target,resolve",
        [
            (("--model", '{"ability": 0.4, "difficulty": 0.1, "upper": 0.9}'),
             FourPL(0.4, 0.1, upper=0.9), resolve_model),
            (("--mechanic", "binomial", "--dice", "5", "--sides", "10", "--threshold", "6",
              "--required", "3"), BinomialPool(5, 10, 6, 3), resolve_mechanic),
        ],
        ids=["model", "mechanic"],
    )
    def test_trial_rows_are_the_scalar_checks(self, capsys, flags, target, resolve):
        n = 8300  # past one block of draws
        code, out, err = run_cli(capsys, "simulate", *flags, "--n", str(n), "--seed", "-9")
        rng = SplitMix64(-9)
        rows = "".join(f"{i},{int(resolve(target, rng).success)}\n" for i in range(1, n + 1))
        assert (code, out, err) == (0, "trial,success\n" + rows, "")

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


class TestDomainEdges:
    FIVE_RECORDS = "person,task,success\na,t1,1\na,t2,0\nb,t1,0\nb,t2,1\nc,t1,1\n"  # ``fit --input -``

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
        monkeypatch.setattr("sys.stdin", io.StringIO(self.FIVE_RECORDS))
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
            monkeypatch.setattr("sys.stdin", io.StringIO(self.FIVE_RECORDS))
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
