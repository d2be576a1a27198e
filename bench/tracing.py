"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the public functions of ``skillcheck.dice``,
``compare``, ``resolve`` and ``estimate`` (and ``numpy.linalg.solve``)
with wrappers, in every ``skillcheck`` module that holds a reference to
them, so calls between modules are seen too. Each span is (name, start,
end, parent, operation id). Self time (duration minus the time covered by
child spans) and call counts are summed as spans close; the span list
itself is kept for the first round only, which bounds memory when a
per-trial simulation opens thousands of spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("dice", "compare", "resolve", "estimate")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.keep = True
        self.op_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._undo: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans) if self.keep else -1
        if self.keep:
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def leave(self, outermost: bool = True) -> None:
        """Close the innermost span; a call nested in a call of the same
        name adds its self time but counts as no call of its own."""
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if outermost:
            self.total_s[name] += duration
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            _, _, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, end, parent, op)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = all(frame[0] != name for frame in self._stack)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(outermost)
            if count is not None and outermost:
                count(result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy as np

        from skillcheck import dice, estimate

        def add(counter: str, amount: Callable) -> Callable:
            def count(result) -> None:
                self.counts[counter] += amount(result)

            return count

        counters = {
            "compare.sup_distance": add("compare.cdf_points", lambda r: len(r.grid)),
            "compare.discrete_vs_logistic": add("compare.cdf_points", lambda r: len(r.grid)),
            "estimate.read_outcome_csv": add("estimate.records", len),
            "estimate.fit_rasch": add("estimate.iterations", lambda r: r.iterations),
        }
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"skillcheck.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, counters.get(name))
        for modname, module in list(sys.modules.items()):
            if modname == "skillcheck" or modname.startswith("skillcheck."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._patch(module, attr, wrapped[id(value)])
        self._patch(np.linalg, "solve", self.wrap("estimate.linalg_solve", np.linalg.solve))
        self._patch(estimate.FitResult, "to_json", self.wrap("estimate.to_json", estimate.FitResult.to_json))
        post_init = dice.DiscreteDist.__post_init__

        def counted_post_init(dist) -> None:
            self.counts["dice.DiscreteDist.created"] += 1
            post_init(dist)

        self._patch(dice.DiscreteDist, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# Per-layer metrics and their units. Times and counts are
# per round (the run's sum divided by its rounds), so they do not depend on
# how many rounds fit in the run.
PER_LAYER = {
    "cli.self_ms_per_cmd": "ms",
    "dice.convolve.calls": "count",
    "dice.convolve.ms": "ms",
    "dice.success_probability.calls": "count",
    "dice.success_probability.ms": "ms",
    "dice.outcome_distribution.ms": "ms",
    "dice.dist_to_csv.ms": "ms",
    "dice.DiscreteDist.created": "count",
    "compare.discrete_vs_logistic.ms": "ms",
    "compare.sup_distance.ms": "ms",
    "compare.figure_data.ms": "ms",
    "compare.cdf_points": "count",
    "resolve.resolve_mechanic.calls": "count",
    "resolve.resolve_mechanic.ms": "ms",
    "resolve.resolve_model.ms": "ms",
    "resolve.simulate_count.ms": "ms",
    "resolve.draws": "count",
    "resolve.ns_per_draw": "ns",
    "estimate.read_outcome_csv.ms": "ms",
    "estimate.records": "count",
    "estimate.fit_rasch.ms": "ms",
    "estimate.iterations": "count",
    "estimate.linalg_solve.calls": "count",
    "estimate.linalg_solve.ms": "ms",
    "estimate.fit_rest.ms": "ms",
    "estimate.to_json.ms": "ms",
}


def per_layer(tracer: Tracer, rounds: int, commands: int, draws: int) -> dict[str, float]:
    """Per-layer metrics from the tracer's sums.

    ``.ms`` is self time, except ``estimate.fit_rasch.ms``, which is the
    whole fit; its self time outside the solve is ``estimate.fit_rest.ms``.
    ``draws`` comes from the benchmark's own SplitMix64 replay.
    """
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer_fn, _, what = name.rpartition(".")
        if what == "ms":
            values[name] = tracer.self_s[layer_fn] * 1e3 / rounds
        elif what == "calls":
            values[name] = tracer.calls[layer_fn] / rounds
    values["cli.self_ms_per_cmd"] = tracer.self_s["cli.command"] * 1e3 / commands
    for counter in ("dice.DiscreteDist.created", "compare.cdf_points", "estimate.records", "estimate.iterations"):
        values[counter] = tracer.counts[counter] / rounds
    values["resolve.draws"] = draws / rounds
    rng_s = tracer.self_s["resolve.resolve_mechanic"] + tracer.self_s["resolve.simulate_count"]
    values["resolve.ns_per_draw"] = rng_s * 1e9 / draws if draws else 0.0
    values["estimate.fit_rasch.ms"] = tracer.total_s["estimate.fit_rasch"] * 1e3 / rounds
    values["estimate.fit_rest.ms"] = tracer.self_s["estimate.fit_rasch"] * 1e3 / rounds
    return values
