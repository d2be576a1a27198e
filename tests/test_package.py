"""The package surface: one name table, resolved lazily, and numpy off the import path."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from fit_logs import TWELVE_BY_SIX
import skillcheck

# The public names as they stood when the table replaced the eager imports.
PUBLIC = [
    "BinomialPool", "CheckResult", "ComparisonReport", "DiscreteDist", "EvidenceGrade",
    "FitResult", "FourPL", "GeneralPool", "LogisticParams", "Logit", "MaxPool", "Mechanic",
    "Odds", "OutcomeRecord", "Probability", "Rating", "SplitMix64", "StepDie",
    "SumRollOver", "UniformRollOver", "UniformRollUnder", "constant", "convolve", "die",
    "discrete_vs_logistic", "dist_to_csv", "elo_expected", "elo_update", "figure_data",
    "fit_rasch", "gradient", "jeffreys_grade", "log_likelihood", "logistic_cdf", "logit",
    "match_normal_to_logistic", "match_uniform_to_logistic", "moment_match_logistic",
    "normal_cdf", "normal_vs_logistic", "odds_to_prob", "opposed", "opposed_logit",
    "outcome_distribution", "prob_to_odds", "rasch_ratio", "read_outcome_csv",
    "resolve_mechanic", "resolve_model", "sigmoid", "simulate_count", "success_probability",
    "sup_distance", "uniform_cdf", "uniform_vs_logistic", "update", "update_reliable",
    "weight_of_evidence",
]


def test_all_is_the_pinned_list():
    assert skillcheck.__all__ == PUBLIC
    assert len(PUBLIC) == 58


SUBMODULES = ("compare", "dice", "estimate", "evidence", "logistic", "resolve")


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_modules_object(name):
    modules = [importlib.import_module(f"skillcheck.{m}") for m in SUBMODULES]
    (home,) = [m for m in modules if name in m.__all__]
    assert getattr(skillcheck, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from skillcheck import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


# What ``from skillcheck.<module> import *`` binds: the module's row of the package table,
# plus the names compare and evidence export only at module level.
MODULE_ONLY = {"compare": {"FIGURE_IDS", "report_csv"}, "evidence": {"GRADE_BOUNDARIES", "GRADE_LABELS"}}
STAR_COUNTS = {"compare": 12, "dice": 15, "estimate": 6, "evidence": 7, "logistic": 12, "resolve": 10}


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_star_import_binds_its_row_and_module_only_names(module):
    namespace = {}
    exec(f"from skillcheck.{module} import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    home = {name for name in PUBLIC if skillcheck._HOME[name] == module}
    assert bound == home | MODULE_ONLY.get(module, set())
    assert len(bound) == STAR_COUNTS[module]


def test_dir_lists_every_name_and_submodule():
    listed = dir(skillcheck)
    assert set(PUBLIC) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_the_readme_quickstart_runs(tmp_path, monkeypatch):
    # The README's "Library quickstart" block as written, so that it cannot keep a public
    # name that is gone. Its log has the ids the block names, connected, so the fit warns
    # of nothing.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("\n## Library quickstart\n", 1)[1]
    block = quickstart.split("\n```python\n", 1)[1].split("\n```\n", 1)[0]
    rows = ["alice,lockpicking,1", "alice,climbing,0", "bob,lockpicking,0", "bob,climbing,1"]
    (tmp_path / "log.csv").write_text("\n".join(["person,task,success", *rows, ""]))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


def _run(script, *args):
    """Run ``script`` in a fresh interpreter that imports this package's sources."""
    src = Path(skillcheck.__file__).resolve().parent.parent
    script = f"import sys; sys.path.insert(0, {str(src)!r})\n" + script
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_the_fit_log_table_imports_neither_skillcheck_nor_numpy():
    # tests/same_bytes.py loads it before it imports the source tree it is given.
    tests = Path(__file__).resolve().parent
    _run(
        f"sys.path.insert(0, {str(tests)!r}); import fit_logs\n"
        "loaded = {'skillcheck', 'numpy'} & set(sys.modules)\nassert not loaded, loaded"
    )


def test_submodules_resolve_as_attributes():
    _run("import skillcheck; assert skillcheck.estimate is sys.modules['skillcheck.estimate']")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'report_csv'"):
        skillcheck.report_csv
    assert not hasattr(skillcheck, "nonexistent")


_NO_NUMPY = """
import contextlib, io
import skillcheck, skillcheck.cli
assert "numpy" not in sys.modules, "numpy loaded by import"
sum3d6 = ["--mechanic", "sum", "--dice", "3", "--sides", "6"]
for argv in [
    ["dist", *sum3d6],
    ["dist", *sum3d6, "--success"],
    ["check", *sum3d6, "--difficulty", "11", "--seed", "1"],
    ["check", "--model", '{"ability": 1, "difficulty": 0}', "--seed", "1"],
    ["compare", "--pair", "normal"],
    ["compare", "--pair", "uniform", "--summary"],
    ["compare", "--pair", "dice", *sum3d6],
    ["figure", "fig2"], ["figure", "fig3"], ["figure", "fig4"], ["figure", "fig5"],
    ["grade", "--factor", "5"],
    ["evidence", "--factor", "3", "--factor", "2"],
    ["opposed", "--skill-a", "3", "--skill-b", "1"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert skillcheck.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"numpy loaded by {argv}"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert skillcheck.cli.main(["fit", "--input", sys.argv[1]]) == 0
assert "numpy" in sys.modules
assert '"converged": true' in out.getvalue(), out.getvalue()
"""


def test_numpy_loads_only_for_fit(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(TWELVE_BY_SIX)
    _run(_NO_NUMPY, str(log))
