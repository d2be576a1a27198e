"""The pinned fit logs, each written once with what ``skillcheck fit`` makes of it: re-pin a fit here.

The tests and ``tests/same_bytes.py`` read them. Data only: it imports nothing from ``skillcheck``
or numpy, so ``same_bytes.py`` can load it before it imports the source tree it is given.
"""

import itertools
from typing import NamedTuple

HEADER = "person,task,success\n"
# The two warnings of a fit, as ``fit`` prints them after ``warning: `` (the first names ids).
DIVERGES = "unpenalized fit with all-success or all-failure identifiers diverges: {}"
DISCONNECTED = "person/task graph is disconnected; logits are only comparable within a component"

# 12 persons by 6 tasks, the rows of ``SplitMix64(9)`` drawing success at 0.8 for most persons
# and at 0.24 for every third (p0, p3, ...).
TWELVE_BY_SIX = HEADER + "".join(
    f"p{i},t{j},{bit}\n"
    for (i, j), bit in zip(
        itertools.product(range(12), range(6)),
        "000001101111011011000100110111111010001000111011110111000000111111101101",
    )
)
# ``fit`` stdout for TWELVE_BY_SIX at the CLI defaults, byte for byte, from the marginal-logit start.
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

# A five-record log that fits cleanly, for commands that read ``fit --input -``.
FIVE_RECORDS = HEADER + "a,t1,1\na,t2,0\nb,t1,0\nb,t2,1\nc,t1,1\n"


class FitLog(NamedTuple):
    flags: tuple[str, ...]  # of ``fit``
    text: str  # the log
    warnings: list[str]  # what the fit warns, in order
    digest: str  # sha256 of ``fit``'s stdout
    steps: tuple[int, bool] | None = None  # the fit's (iterations, converged), where pinned


def _log(rows: str) -> str:
    return HEADER + "\n".join(rows.split()) + "\n"


# Logs whose fit warns.
WARNED = {
    "disconnected": FitLog((), _log("a,t1,1 a,t1,0 b,t2,1 b,t2,0"), [DISCONNECTED],
                           "1074cc9dc4b68b7fc6e78f336d89ff16ffdd768e4d6c6fe98cb7d25f84dfaa29"),
    "all_success": FitLog(("--ridge", "0"), _log("a,t1,1 b,t2,1"),
                          [DIVERGES.format(["a", "b", "t1", "t2"]), DISCONNECTED],
                          "3fffc6cc8dd7992864216f2e503c8f5ccc2ec9da1e63777ad73ca0cb3f577809"),
}

# Small logs that reach the solver loop's rare paths at ridge 0 and slope 3.
RARE = ("--ridge", "0", "--slope", "3")
SOLVER_PATHS = {
    # a full step lowers the objective, so the line search halves it
    "step_halved": FitLog(RARE, _log("p0,t0,1 p0,t0,0 p0,t1,1"), [DIVERGES.format(["t1"])],
                          "580110a7ce455774cef0edff591f3c743ecf706377073d5621ce4b3dcb7b01cf", (23, True)),
    # no step down to 1e-12 is accepted: the loop stops unconverged
    "line_search_fails": FitLog(
        RARE, _log("p0,t1,1 " * 7 + "p1,t0,0 " + "p1,t1,1 " * 3 + "p3,t0,1 " * 2 + "p4,t1,0 " * 6 + "p4,t2,1 " * 5),
        [DIVERGES.format(["p0", "p3", "t2"])],
        "9feda67d8ef681fafe5ac40f3fcfea4e5f7c896debec2543a026f06a40b93296", (5, False)),
    # Newton's direction is not finite, so the gradient is followed instead
    "newton_not_finite": FitLog(
        RARE, _log("p1,t1,1 " * 6 + "p2,t0,1 " * 14 + "p2,t1,0 " * 7), [DIVERGES.format(["p1", "t0"])],
        "224f158a23d69bfb53edba8a3eb4352859399c243111a1d8e7faab5876140be6", (500, False)),
}
