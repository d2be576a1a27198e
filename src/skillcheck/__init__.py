"""Dice mechanics, logistic task resolution and skill estimation.

Exact distributions for the classic die mechanics, the one-to-four
parameter logistic task-resolution models, odds-scale evidence
combination, CDF comparison tooling, seeded sampling with Elo updates,
and maximum-likelihood recovery of skill logits from outcome logs.

``_EXPORTS`` is the one list of public names: each submodule's ``__all__``
reads its row. Each name is imported from its home module on first access
(PEP 562), so numpy loads only when a fitting name is first used.
"""

import importlib

__version__ = "0.1.0"

# Public names by home module; each submodule's ``__all__`` is its row (compare and
# evidence add module-only names). A new public name is written here and nowhere else.
_EXPORTS = {
    "compare": (
        "ComparisonReport", "LogisticParams", "discrete_vs_logistic", "figure_data",
        "match_normal_to_logistic", "match_uniform_to_logistic", "moment_match_logistic",
        "normal_vs_logistic", "sup_distance", "uniform_vs_logistic",
    ),
    "dice": (
        "BinomialPool", "DiscreteDist", "GeneralPool", "MaxPool", "Mechanic", "StepDie",
        "SumRollOver", "UniformRollOver", "UniformRollUnder", "constant", "convolve", "die",
        "dist_to_csv", "outcome_distribution", "success_probability",
    ),
    "estimate": (
        "FitResult", "OutcomeRecord", "fit_rasch", "gradient", "log_likelihood", "read_outcome_csv",
    ),
    "evidence": ("EvidenceGrade", "jeffreys_grade", "update", "update_reliable", "weight_of_evidence"),
    "logistic": (
        "FourPL", "Logit", "Odds", "Probability", "logistic_cdf", "logit", "normal_cdf",
        "odds_to_prob", "prob_to_odds", "rasch_ratio", "sigmoid", "uniform_cdf",
    ),
    "resolve": (
        "CheckResult", "Rating", "SplitMix64", "elo_expected", "elo_update", "opposed",
        "opposed_logit", "resolve_mechanic", "resolve_model", "simulate_count",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as the eager imports used to bind it
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
