"""Recover ability and difficulty logits from observed attempt outcomes.

The response model is P(success) = sigmoid(slope * (ability - difficulty)).
Fitting is joint penalized maximum likelihood: a small ridge penalty on
every logit keeps the problem strictly concave and well posed even for
people or tasks with all-success or all-failure records. The optimizer is
damped Newton with step-halving, falling back to gradient ascent if the
Hessian solve fails.

Logits are only identified up to a common shift, so fitted difficulties
are re-centered to mean zero and the offset is absorbed into abilities.

``RaschEstimator`` packages the same fit behind a scikit-learn style
fit/predict_proba interface for pipeline use.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence, Union

import numpy as np

from .logistic import sigmoid

__all__ = [
    "OutcomeRecord",
    "FitResult",
    "log_likelihood",
    "gradient",
    "fit_rasch",
    "RaschEstimator",
    "read_outcome_csv",
]

SlopeSpec = Union[float, Mapping[str, float]]


@dataclass(frozen=True)
class OutcomeRecord:
    """One observed attempt: who tried what, and whether it worked."""

    person: str
    task: str
    success: bool

    def __post_init__(self) -> None:
        if not self.person:
            raise ValueError("person identifier must be non-empty")
        if not self.task:
            raise ValueError("task identifier must be non-empty")


@dataclass(frozen=True)
class FitResult:
    """Fitted logits and fit diagnostics.

    ``extreme`` flags identifiers whose records are all successes or all
    failures; their unpenalized estimates would diverge. ``connected`` is
    False when the person/task graph splits into components, in which case
    logits are only comparable within a component. ``log_likelihood`` is
    the unpenalized data log-likelihood at the returned parameters.
    """

    abilities: dict[str, float]
    difficulties: dict[str, float]
    log_likelihood: float
    iterations: int
    converged: bool
    extreme: frozenset[str]
    connected: bool
    objective_trace: tuple[float, ...] = field(default=(), repr=False)

    def to_json(self, digits: Union[int, None] = None) -> str:
        def r(x: float) -> float:
            return x if digits is None else float(f"{x:.{digits}g}")

        payload = {
            "abilities": {k: r(self.abilities[k]) for k in sorted(self.abilities)},
            "difficulties": {k: r(self.difficulties[k]) for k in sorted(self.difficulties)},
            "log_likelihood": r(self.log_likelihood),
            "converged": self.converged,
            "iterations": self.iterations,
            "extreme": sorted(self.extreme),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        d = json.loads(text)
        return cls(
            abilities=dict(d["abilities"]),
            difficulties=dict(d["difficulties"]),
            log_likelihood=float(d["log_likelihood"]),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            extreme=frozenset(d["extreme"]),
            connected=bool(d.get("connected", True)),
        )


def _slope_for(task: str, slope: SlopeSpec) -> float:
    if isinstance(slope, Mapping):
        if task not in slope:
            raise ValueError(f"no slope given for task {task!r}")
        value = float(slope[task])
    else:
        value = float(slope)
    if not value >= 0.0:
        raise ValueError(f"slope must be nonnegative, got {value}")
    return value


class _Kernel:
    """The Rasch likelihood over records aggregated into sorted cells.

    One cell per distinct (person, task) pair holds its successes ``y`` and
    attempts ``n``. A parameter vector ``w`` lists ``persons``, then ``tasks``.
    """

    def __init__(
        self,
        records: Sequence[OutcomeRecord],
        persons: Sequence[str],
        tasks: Sequence[str],
        slope: SlopeSpec,
        ridge: float,
    ) -> None:
        p_index = {p: i for i, p in enumerate(persons)}
        t_index = {t: i for i, t in enumerate(tasks)}
        counts: dict[tuple[int, int], list[int]] = {}
        for rec in records:
            if rec.person not in p_index:
                raise ValueError(f"missing ability parameter for person {rec.person!r}")
            if rec.task not in t_index:
                raise ValueError(f"missing difficulty parameter for task {rec.task!r}")
            cell = counts.setdefault((p_index[rec.person], t_index[rec.task]), [0, 0])
            cell[0] += 1 if rec.success else 0
            cell[1] += 1
        cells = sorted(counts)
        self.cp, self.ct = np.array(cells, dtype=np.intp).reshape(-1, 2).T
        self.y, self.n = np.array([counts[c] for c in cells], dtype=float).reshape(-1, 2).T
        # One slope lookup per task with records; other tasks need none.
        used, at = np.unique(self.ct, return_inverse=True)
        self.r = np.array([_slope_for(tasks[j], slope) for j in used.tolist()])[at]
        self.n_p, self.n_t, self.ridge = len(persons), len(tasks), ridge

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-identifier totals of a per-cell quantity, summed in cell order."""
        return np.r_[np.bincount(self.cp, v, self.n_p), np.bincount(self.ct, v, self.n_t)]

    def _z(self, w: np.ndarray) -> np.ndarray:
        return self.r * (w[self.cp] - w[self.n_p + self.ct])

    def log_likelihood(self, w: np.ndarray) -> float:
        """Unpenalized data log-likelihood."""
        z = self._z(w)
        # y*ln(p) + (n-y)*ln(1-p) via stable log(1 + e^(+/-z))
        return -(self.y * np.logaddexp(0.0, -z) + (self.n - self.y) * np.logaddexp(0.0, z)).sum()

    def objective(self, w: np.ndarray) -> float:
        """Log-likelihood minus ridge/2 times the squared norm of ``w``."""
        return self.log_likelihood(w) - 0.5 * self.ridge * float(w @ w)

    def gradient(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of ``objective``, and each cell's success chance."""
        z = self._z(w)
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        g = self.sums(self.r * (self.y - self.n * p))
        g[self.n_p :] *= -1.0  # a success lowers its task's logit
        return g - self.ridge * w, p

    def hessian(self, p: np.ndarray) -> np.ndarray:
        """Hessian of ``objective`` at the success chances ``p``."""
        info = self.n * self.r * self.r * p * (1.0 - p)
        h = np.zeros((self.n_p + self.n_t,) * 2)
        # Cells are unique, so each cross entry is one cell's information.
        h[self.cp, self.n_p + self.ct] = info
        h[self.n_p + self.ct, self.cp] = info
        np.fill_diagonal(h, -self.sums(info) - self.ridge)
        return h


def _kernel_at(
    records: Sequence[OutcomeRecord],
    abilities: Mapping[str, float],
    difficulties: Mapping[str, float],
    slope: SlopeSpec,
    ridge: float,
) -> tuple[_Kernel, np.ndarray]:
    if ridge < 0.0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    persons, tasks = sorted(abilities), sorted(difficulties)
    w = np.array([abilities[p] for p in persons] + [difficulties[t] for t in tasks], dtype=float)
    return _Kernel(records, persons, tasks, slope, ridge), w


def log_likelihood(
    records: Sequence[OutcomeRecord],
    abilities: Mapping[str, float],
    difficulties: Mapping[str, float],
    slope: SlopeSpec = 1.0,
    ridge: float = 0.0,
) -> float:
    """Penalized log-likelihood of the records under the given logits.

    Sum over records of y*ln(p) + (1-y)*ln(1-p) with
    p = sigmoid(slope * (ability - difficulty)), minus
    ridge/2 times the sum of squared parameters. Every record's person and
    task must have a parameter; a slope mapping must name every task that
    has records.
    """
    kernel, w = _kernel_at(records, abilities, difficulties, slope, ridge)
    return float(kernel.objective(w))


def gradient(
    records: Sequence[OutcomeRecord],
    abilities: Mapping[str, float],
    difficulties: Mapping[str, float],
    slope: SlopeSpec = 1.0,
    ridge: float = 0.0,
) -> np.ndarray:
    """Analytic gradient of ``log_likelihood``.

    Ordered as sorted person ids followed by sorted task ids. The ability
    component is slope * (y - p) summed per person; the difficulty
    component is its negative summed per task; the penalty contributes
    -ridge * parameter.
    """
    kernel, w = _kernel_at(records, abilities, difficulties, slope, ridge)
    return kernel.gradient(w)[0]


def _connected(cp: np.ndarray, ct: np.ndarray, n_persons: int, n_tasks: int) -> bool:
    # Union-find over the bipartite person/task graph.
    parent = list(range(n_persons + n_tasks))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pi, ti in zip(cp.tolist(), ct.tolist()):
        a, b = find(pi), find(n_persons + ti)
        if a != b:
            parent[a] = b
    roots = {find(i) for i in range(n_persons + n_tasks)}
    return len(roots) == 1


def fit_rasch(
    records: Sequence[OutcomeRecord],
    *,
    slope: SlopeSpec = 1.0,
    ridge: float = 0.01,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> FitResult:
    """Jointly estimate all ability and difficulty logits from records.

    Deterministic: parameters start at zero, records are aggregated into
    per-(person, task) counts in sorted order, and the result is identical
    for any permutation of the input. Convergence means the gradient
    max-norm fell below ``tol``.

    With ridge = 0 the estimates of all-success or all-failure identifiers
    diverge; such data is flagged in ``extreme`` and, when unpenalized,
    also warned about.
    """
    if not records:
        raise ValueError("need at least one outcome record")
    if ridge < 0.0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    persons = sorted({r.person for r in records})
    tasks = sorted({r.task for r in records})
    kernel = _Kernel(records, persons, tasks, slope, ridge)
    n_p = len(persons)

    w = np.zeros(n_p + len(tasks))
    obj = kernel.objective(w)
    trace = [obj]
    iterations = 0
    while True:
        g, p = kernel.gradient(w)
        converged = float(np.max(np.abs(g))) < tol
        if converged or iterations >= max_iter:
            break
        try:
            direction = np.linalg.solve(kernel.hessian(p), -g)
            if not np.all(np.isfinite(direction)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            direction = g
        # Step-halving line search; accepted steps never decrease the objective.
        t = 1.0
        accepted = False
        while t > 1e-12:
            candidate = w + t * direction
            cand_obj = kernel.objective(candidate)
            if cand_obj >= obj:
                w, obj = candidate, cand_obj
                accepted = True
                break
            t *= 0.5
        iterations += 1
        trace.append(obj)
        if not accepted:
            break

    # Gauge fix: difficulties sum to zero, offset absorbed into abilities.
    offset = float(np.mean(w[n_p:]))
    w = w - offset

    successes = kernel.sums(kernel.y)
    all_or_none = (successes == 0.0) | (successes == kernel.sums(kernel.n))
    extreme = frozenset(name for name, flag in zip(persons + tasks, all_or_none.tolist()) if flag)
    if extreme and ridge == 0.0:
        warnings.warn(
            "unpenalized fit with all-success or all-failure identifiers "
            f"diverges: {sorted(extreme)}",
            RuntimeWarning,
            stacklevel=2,
        )

    connected = _connected(kernel.cp, kernel.ct, n_p, len(tasks))
    if not connected:
        warnings.warn(
            "person/task graph is disconnected; logits are only comparable "
            "within a component",
            RuntimeWarning,
            stacklevel=2,
        )

    return FitResult(
        abilities={p: float(w[i]) for i, p in enumerate(persons)},
        difficulties={t: float(w[n_p + i]) for i, t in enumerate(tasks)},
        log_likelihood=float(kernel.log_likelihood(w)),
        iterations=iterations,
        converged=converged,
        extreme=extreme,
        connected=connected,
        objective_trace=tuple(trace),
    )


class RaschEstimator:
    """Ability/difficulty estimator with a scikit-learn style interface.

    Parameters mirror ``fit_rasch``. After ``fit`` the instance exposes
    ``abilities_``, ``difficulties_``, ``log_likelihood_``, ``n_iter_``,
    ``converged_``, ``extreme_``, ``connected_`` and the raw ``result_``.
    """

    def __init__(
        self,
        slope: SlopeSpec = 1.0,
        ridge: float = 0.01,
        max_iter: int = 500,
        tol: float = 1e-8,
    ) -> None:
        self.slope = slope
        self.ridge = ridge
        self.max_iter = max_iter
        self.tol = tol

    def get_params(self, deep: bool = True) -> dict:
        return {
            "slope": self.slope,
            "ridge": self.ridge,
            "max_iter": self.max_iter,
            "tol": self.tol,
        }

    def set_params(self, **params) -> "RaschEstimator":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for RaschEstimator")
            setattr(self, key, value)
        return self

    def fit(self, records: Sequence[OutcomeRecord], y=None) -> "RaschEstimator":
        result = fit_rasch(
            records,
            slope=self.slope,
            ridge=self.ridge,
            max_iter=self.max_iter,
            tol=self.tol,
        )
        self.result_ = result
        self.abilities_ = result.abilities
        self.difficulties_ = result.difficulties
        self.log_likelihood_ = result.log_likelihood
        self.n_iter_ = result.iterations
        self.converged_ = result.converged
        self.extreme_ = result.extreme
        self.connected_ = result.connected
        return self

    def predict_proba(self, person: str, task: str) -> float:
        """Fitted success chance for one person attempting one task."""
        if not hasattr(self, "result_"):
            raise RuntimeError("estimator is not fitted; call fit first")
        if person not in self.abilities_:
            raise KeyError(f"unknown person {person!r}")
        if task not in self.difficulties_:
            raise KeyError(f"unknown task {task!r}")
        r = _slope_for(task, self.slope)
        return sigmoid(r * (self.abilities_[person] - self.difficulties_[task]))


def read_outcome_csv(source: Union[str, IO[str]]) -> list[OutcomeRecord]:
    """Read attempt records from CSV with header person,task,success.

    ``success`` must be 0 or 1. Malformed rows are reported with their line
    number.
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_outcome_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: expected header person,task,success") from None
    if [h.strip() for h in header] != ["person", "task", "success"]:
        raise ValueError(
            f"line 1: expected header person,task,success, got {','.join(header)}"
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
        person, task, raw = (f.strip() for f in row)
        if raw not in ("0", "1"):
            raise ValueError(f"line {lineno}: success must be 0 or 1, got {raw!r}")
        try:
            records.append(OutcomeRecord(person=person, task=task, success=raw == "1"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records
