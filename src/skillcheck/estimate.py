"""Recover ability and difficulty logits from observed attempt outcomes.

The response model is P(success) = sigmoid(slope * (ability - difficulty)).
Fitting is joint penalized maximum likelihood: a small ridge penalty on
every logit keeps the problem strictly concave and well posed even for
people or tasks with all-success or all-failure records. The optimizer is
damped Newton with step-halving, solving each step by Schur complement
and falling back to gradient ascent if that solve fails.

Logits are only identified up to a common shift, so fitted difficulties
are re-centered to mean zero and the offset is absorbed into abilities.

``RaschEstimator`` packages the same fit behind a scikit-learn style
fit/predict_proba interface for pipeline use.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import IO, Iterator, NamedTuple, Sequence, Union

import numpy as np

from . import _EXPORTS
from .logistic import sigmoid

__all__ = list(_EXPORTS["estimate"])

SlopeSpec = Union[float, Mapping[str, float]]
# The Newton step forms n * slope**2 for a cell of n attempts. At this bound that stays
# under 1e307 for any n below 2**63; past 1.35e154 it overflows a float at n = 1.
_MAX_SLOPE = 1e144
_Columns = tuple[Sequence[str], Sequence[str], Sequence[bool]]  # person, task, success


class _Log(NamedTuple):
    """Outcome records as codes: sorted distinct ids, and per record their indices and success."""

    persons: list[str]
    tasks: list[str]
    pi: np.ndarray  # intp index into persons
    ti: np.ndarray  # intp index into tasks
    success: np.ndarray  # float, 1.0 for a success


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
    if not 0.0 <= value < np.inf:
        raise ValueError(f"slope must be nonnegative and finite, got {value}")
    if value > _MAX_SLOPE:
        raise ValueError(f"slope must be at most {_MAX_SLOPE:g}, got {value}")
    return value


def _columns(records: Sequence[OutcomeRecord]) -> _Columns:
    """The person, task and success columns of records; success by truth value."""
    person, task = [r.person for r in records], [r.task for r in records]
    return person, task, [bool(r.success) for r in records]


def _log(
    columns: _Columns, persons: Union[list[str], None] = None, tasks: Union[list[str], None] = None
) -> _Log:
    """The log of person, task and success columns over sorted ids, by default their own."""
    person, task, success = columns
    persons = sorted(set(person)) if persons is None else persons
    tasks = sorted(set(task)) if tasks is None else tasks
    p_index = {p: i for i, p in enumerate(persons)}
    t_index = {t: i for i, t in enumerate(tasks)}
    # Ids map through dicts: np.unique on strings would strip trailing NULs.
    try:
        pi = np.fromiter(map(p_index.__getitem__, person), np.intp, len(person))
        ti = np.fromiter(map(t_index.__getitem__, task), np.intp, len(task))
    except KeyError:
        p, t = next(r for r in zip(person, task) if r[0] not in p_index or r[1] not in t_index)
        if p not in p_index:
            raise ValueError(f"missing ability parameter for person {p!r}") from None
        raise ValueError(f"missing difficulty parameter for task {t!r}") from None
    return _Log(persons, tasks, pi, ti, np.fromiter(success, float, len(success)))


class _Kernel:
    """The Rasch likelihood of a ``_Log``'s records aggregated into sorted cells.

    One cell per distinct (person, task) pair holds its successes ``y`` and
    attempts ``n``. A parameter vector ``w`` lists the log's persons, then its
    tasks. The kernel keeps no reference to the log.
    """

    def __init__(self, log: _Log, slope: SlopeSpec, ridge: float) -> None:
        if not 0.0 <= ridge < np.inf:
            raise ValueError(f"ridge must be nonnegative and finite, got {ridge}")
        tasks = log.tasks
        self.n_p, self.n_t, self.ridge = len(log.persons), len(tasks), ridge
        cells, at = np.unique(log.pi * self.n_t + log.ti, return_inverse=True)
        self.cp, self.ct = np.divmod(cells, self.n_t)
        self.y = np.bincount(at, log.success, len(cells))
        self.n = np.bincount(at, minlength=len(cells)).astype(float)
        if isinstance(slope, Mapping):  # one lookup per task with records; other tasks need none
            used = np.flatnonzero(np.bincount(self.ct, minlength=self.n_t))
            rates = np.zeros(self.n_t)
            rates[used] = [_slope_for(tasks[j], slope) for j in used.tolist()]
            self.r = rates[self.ct]
        else:  # one check, and none without records
            self.r = np.full(len(cells), _slope_for("", slope) if len(cells) else 0.0)

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-identifier float64 totals of a per-cell quantity, summed in cell order."""
        sums = np.concatenate((np.bincount(self.cp, v, self.n_p), np.bincount(self.ct, v, self.n_t)))
        return sums.astype(float, copy=False)  # bincount over no cells is int64, weights or not

    def at(self, w: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """Log-likelihood, objective, gradient and cell success chances at ``w``.

        One pass over the cells. The objective is the unpenalized data
        log-likelihood minus ridge/2 times the squared norm of ``w``.
        """
        z = self.r * (w[self.cp] - w[self.n_p :][self.ct])
        # y*ln(p) + (n-y)*ln(1-p) = -(y*ln(1 + e^-z) + (n-y)*ln(1 + e^z)). numpy's
        # logaddexp(0, x) is max(x, 0) + log1p(exp(-|x|)) with scalar libm calls, so
        # logaddexp(0, +/-z) = max(+/-z, 0) + logaddexp(0, -|z|) bit for bit, +/-0, +/-inf
        # and nan included: one logarithm per cell. A vector log1p(exp(-|z|)) rounds
        # otherwise and would change the fitted bits. -|z| is formed twice and ``soft`` is
        # dropped early, so that at most five cell-sized temporaries are alive at once.
        soft = np.logaddexp(0.0, -np.abs(z))
        ll = -(self.y * (np.maximum(-z, 0.0) + soft) + (self.n - self.y) * (np.maximum(z, 0.0) + soft)).sum()
        del soft
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0, ez) / (1.0 + ez)
        g = self.sums(self.r * (self.y - self.n * p))
        g[self.n_p :] *= -1.0  # a success lowers its task's logit
        return ll, ll - 0.5 * self.ridge * float(w @ w), g - self.ridge * w, p

    def newton(self, g: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Newton direction -H^-1 g of the objective at the success chances ``p``.

        H has diagonal person and task blocks and a cross block C of cell
        information. Eliminating the larger diagonal block D leaves the Schur
        complement S = D_small - C^T D^-1 C on the other side, one small
        solve. Raises ``LinAlgError`` when S is singular.
        """
        info = self.n * self.r * self.r * p * (1.0 - p)
        d = -self.sums(info) - self.ridge
        # Eliminate the larger side. Persons come first in g and d, then tasks.
        k, tasks_big = self.n_p, self.n_p < self.n_t
        sides = [(self.cp, g[:k], d[:k]), (self.ct, g[k:], d[k:])]
        (big, g_big, d_big), (small, g_small, d_small) = sides[::-1] if tasks_big else sides
        c = np.zeros((len(d_big), len(d_small)))
        c[big, small] = info  # cells are unique
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # D < 0, so C^T D^-1 C = -X^T X for X = C / sqrt(-D): a symmetric product.
            root = np.sqrt(-d_big)
            x = c / root[:, None]
            s = x.T @ x
            s.reshape(-1)[:: len(d_small) + 1] += d_small
            x_small = np.linalg.solve(s, -g_small - x.T @ (g_big / root))
            x_big = (-g_big - c @ x_small) / d_big
        return np.concatenate((x_small, x_big) if tasks_big else (x_big, x_small))

    def connected(self) -> bool:
        """Whether the cells join every person and task into one component.

        Each round hooks every cell's larger root under its smaller one, then
        points every node at its root (Shiloach & Vishkin 1982), until both
        ends of each cell agree. Node 0 is never hooked and every node has a
        cell, so all roots are 0 exactly when the graph is connected.
        """
        a, b = self.cp, self.n_p + self.ct
        root = np.arange(self.n_p + self.n_t)
        while not np.array_equal(ra := root[a], rb := root[b]):
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        return not root.any()


def _kernel_at(
    records: Sequence[OutcomeRecord],
    abilities: Mapping[str, float],
    difficulties: Mapping[str, float],
    slope: SlopeSpec,
    ridge: float,
) -> tuple[_Kernel, np.ndarray]:
    persons, tasks = sorted(abilities), sorted(difficulties)
    w = np.array([abilities[p] for p in persons] + [difficulties[t] for t in tasks], dtype=float)
    return _Kernel(_log(_columns(records), persons, tasks), slope, ridge), w


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
    return float(kernel.at(w)[1])


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
    return kernel.at(w)[2]


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
    result = _fit(_log(_columns(records)), slope=slope, ridge=ridge, max_iter=max_iter, tol=tol)
    for text in _warnings(result, ridge):
        warnings.warn(text, RuntimeWarning, stacklevel=2)
    return result


def _warnings(result: FitResult, ridge: float) -> Iterator[str]:
    """The fit's warnings, in the order it finds them; each caller presents them."""
    if result.extreme and ridge == 0.0:
        names = sorted(result.extreme)
        yield f"unpenalized fit with all-success or all-failure identifiers diverges: {names}"
    if not result.connected:
        yield "person/task graph is disconnected; logits are only comparable within a component"


def _fit(log: _Log, *, slope: SlopeSpec, ridge: float, max_iter: int, tol: float) -> FitResult:
    """``fit_rasch`` on a ``_Log``; it warns of nothing.

    The log is dropped once the kernel is built, so that no per-record array
    lives through the Newton loop.
    """
    if not len(log.pi):
        raise ValueError("need at least one outcome record")
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    persons, tasks = log.persons, log.tasks
    kernel = _Kernel(log, slope, ridge)
    del log
    n_p = len(persons)

    w = np.zeros(n_p + len(tasks))
    _, obj, g, p = kernel.at(w)
    trace = [obj]
    iterations = 0
    while True:
        g_max = float(np.abs(g).max())
        converged = g_max < tol
        if converged or iterations >= max_iter:
            break
        try:
            direction = kernel.newton(g, p)
            if not np.isfinite(direction).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            direction = g
        # Step-halving line search. A step may lower the objective only by a
        # few ulps, and then only if it lowers the gradient max-norm: near the
        # optimum a full step's gain is below the objective's rounding.
        t = 1.0
        while t > 1e-12:
            candidate = w + t * direction
            _, cand_obj, cand_g, cand_p = kernel.at(candidate)
            if cand_obj >= obj or (
                obj - cand_obj <= 8 * np.spacing(abs(obj)) and float(np.abs(cand_g).max()) < g_max
            ):
                w, obj, g, p = candidate, cand_obj, cand_g, cand_p
                break
            t *= 0.5
        iterations += 1
        trace.append(obj)
        if t <= 1e-12:  # no step was accepted
            break

    # Gauge fix: difficulties sum to zero, offset absorbed into abilities.
    offset = float(np.mean(w[n_p:]))
    w = w - offset

    successes = kernel.sums(kernel.y)
    all_or_none = (successes == 0.0) | (successes == kernel.sums(kernel.n))
    extreme = frozenset(name for name, flag in zip(persons + tasks, all_or_none.tolist()) if flag)
    connected = kernel.connected()  # its cell-sized arrays are freed before the dicts below exist
    return FitResult(
        abilities=dict(zip(persons, w[:n_p].tolist())),
        difficulties=dict(zip(tasks, w[n_p:].tolist())),
        log_likelihood=float(kernel.at(w)[0]),
        iterations=iterations,
        converged=converged,
        extreme=extreme,
        connected=connected,
        objective_trace=tuple(trace),
    )


@dataclass(eq=False)
class RaschEstimator:
    """Ability/difficulty estimator with a scikit-learn style interface.

    Parameters mirror ``fit_rasch``. After ``fit`` the instance exposes
    ``abilities_``, ``difficulties_``, ``log_likelihood_``, ``n_iter_``,
    ``converged_``, ``extreme_``, ``connected_`` and the raw ``result_``.
    """

    slope: SlopeSpec = 1.0
    ridge: float = 0.01
    max_iter: int = 500
    tol: float = 1e-8

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "RaschEstimator":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for RaschEstimator")
            setattr(self, key, value)
        return self

    def fit(self, records: Sequence[OutcomeRecord], y=None) -> "RaschEstimator":
        result = fit_rasch(records, **self.get_params())
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
    return [OutcomeRecord(*row) for row in zip(*_read_columns(source))]


def _read_columns(source: Union[str, IO[str]]) -> _Columns:
    """``read_outcome_csv`` as person, task and success columns.

    An error names the line its record ends on (``reader.line_num``): a
    quoted newline inside a field puts it past the count of records.
    """
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8") as fh:
            return _read_columns(fh)
    lines = iter(source)
    first = next(lines, "")  # one byte-order mark before the header is skipped, as Excel writes one
    reader = csv.reader(itertools.chain([first.removeprefix("\ufeff")] if first else [], lines))
    persons, tasks, successes = [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty input: expected header person,task,success")
        if [h.strip() for h in header] != ["person", "task", "success"]:
            got = ",".join(header)
            raise ValueError(f"line {reader.line_num}: expected header person,task,success, got {got}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: expected 3 fields, got {len(row)}")
            person, task, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if raw not in ("0", "1"):
                raise ValueError(f"line {reader.line_num}: success must be 0 or 1, got {raw!r}")
            if not person:
                raise ValueError(f"line {reader.line_num}: person identifier must be non-empty")
            if not task:
                raise ValueError(f"line {reader.line_num}: task identifier must be non-empty")
            persons.append(person)
            tasks.append(task)
            successes.append(raw == "1")
    except csv.Error as exc:  # a NUL byte before Python 3.11, or a field past the size limit
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return persons, tasks, successes


def _read_log(source: Union[str, IO[str]]) -> _Log:
    """``_log(_read_columns(source))``: the same ids, codes and successes, or the same error.

    A regular file is read as bytes, and a plain one (``_plain_log``) is coded by
    numpy with no Python string per record. Any other file, and a stream, is read
    by ``csv.reader``, whose strings are dropped on return.
    """
    if isinstance(source, str) and os.path.isfile(source):  # a pipe could not be read twice
        with open(source, "rb") as fh:
            log = _plain_log(fh.read())
        if log is not None:
            return log
    return _log(_read_columns(source))


def _plain_log(data: bytes) -> Union[_Log, None]:
    """The log of a plain file's bytes, or None for any other file; it never raises.

    Plain is an optional UTF-8 byte-order mark and a header that ``_read_columns``
    accepts, free of quotes and CRs, then lines ``person,task,success`` each ending
    in ``\\n``: ids of 1-8 bytes in 0x21-0x7E other than ``"``, within the csv field
    limit, and a success of ``0`` or ``1``. ``csv.reader`` splits such a file at its
    commas and ``str.strip`` finds nothing to remove, so it reads the same log.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    end = data.find(b"\n", start)
    head = data[start:end]
    if end < 0 or not head.isascii() or b'"' in head or b"\r" in head:
        return None
    names, limit = head.decode().split(","), csv.field_size_limit()
    if [h.strip() for h in names] != ["person", "task", "success"] or max(map(len, names)) > limit:
        return None
    body = np.frombuffer(data, np.uint8, offset=end + 1)
    if not body.size or body[-1] != ord("\n"):
        return None
    # The bytes that may not stand in an id (uint8 arithmetic wraps those below 0x21 past
    # 0x5D, as it does those above 0x7E) must run ",,\n" on every line: no quote, no other.
    ends = np.flatnonzero((body - 0x21 > 0x7E - 0x21) | (body == ord(",")) | (body == ord('"')))
    if len(ends) % 3 or (body[ends].reshape(-1, 3) != np.frombuffer(b",,\n", np.uint8)).any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, 3)  # of person, task, success
    widths = ends.reshape(-1, 3) - starts
    del ends  # each array goes once used up: this function sets the peak memory of a fit
    bit = body[starts[:, 2]]
    if (
        widths.min() < 1
        or widths.max() > min(8, limit)  # an id's bytes fit one uint64 key
        or (widths[:, 2] != 1).any()
        or (bit - ord("0")).max() > 1  # uint8: a byte below "0" wraps past 1
    ):
        return None
    # Each id's bytes, left-aligned in a big-endian key and zero-padded: for ASCII ids
    # without NUL this orders keys as ``sorted`` orders the strings. Right-aligned,
    # "b" would sort before "ab". ``words`` reads the 8 bytes from every offset.
    padded = np.concatenate((body, np.zeros(8, np.uint8)))
    words = np.ndarray((body.size,), ">u8", padded, 0, (1,))
    keys = words[starts[:, :2]].astype(np.uint64)
    del words, padded, starts
    shift = (64 - 8 * widths[:, :2]).astype(np.uint64)
    keys >>= shift  # drops the bytes past each id
    keys <<= shift
    del shift, widths
    coded = []
    for column in keys.T:
        ids, codes = np.unique(column, return_inverse=True)
        coded.append((ids.astype(">u8").view("S8").astype(str).tolist(), codes))
    (persons, pi), (tasks, ti) = coded
    return _Log(persons, tasks, pi, ti, (bit == ord("1")).astype(float))
