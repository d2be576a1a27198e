"""Benchmark of the skillcheck command line, driven in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact|resolve|fit --seed N --seconds S --trace 0|1

One closed-loop client calls ``skillcheck.cli.main(argv)`` with stdout
captured in memory, repeating the workload's seeded round of commands
until S seconds have passed (whole rounds only, at least three). Every
output is checked against the oracles in ``oracles.py``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. A traced run also writes its spans to
``.bench_out/trace-<workload>-<seed>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread for every run, parent and change alike: with OpenBLAS's
# default of one thread per core, the first solve in a process sometimes
# stalls for about a second while its thread pool starts (README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 15
# At least three rounds, so that a command's fastest repetition is taken over
# the same number of repetitions whether the machine is fast or slow: a fit
# round takes 11-15 s, so a 30 s run holds three rounds, fast or slow.
MIN_ROUNDS = 3
# The shared host slows one vCPU at a time, for a fraction of a second to
# ten seconds, while the other keeps its speed. The client times a short
# probe loop on each CPU it may use and moves to the faster one, before
# every batch command and whenever this long has passed since it last
# chose; so a command's repetitions mostly run on a core at full speed
# (README). At most MAX_PROBED_CPUS are probed.
CHOOSE_S = 0.2
MAX_PROBED_CPUS = 4

END_TO_END = {
    "setup_s": "s",
    "interactive_ms_p50": "ms",
    "interactive_ms_p90": "ms",
    "batch_items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _probe_loop() -> float:
    """Seconds for a fixed pure-Python loop of about 0.15 ms."""
    start = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i % 7
    return time.perf_counter() - start


class CpuChooser:
    """Keeps this process on the fastest, at the moment, of its CPUs."""

    def __init__(self) -> None:
        self.home = sorted(os.sched_getaffinity(0))
        self.probed = self.home[:MAX_PROBED_CPUS]
        self.last = -CHOOSE_S

    def choose(self) -> None:
        if len(self.probed) > 1:
            speed = {}
            for cpu in self.probed:
                os.sched_setaffinity(0, {cpu})
                speed[cpu] = min(_probe_loop() for _ in range(3))
            os.sched_setaffinity(0, {min(speed, key=speed.__getitem__)})
        self.last = time.perf_counter()

    def maybe_choose(self, force: bool) -> None:
        if force or time.perf_counter() - self.last >= CHOOSE_S:
            self.choose()

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.home))


class SetupProbe:
    """Times a fresh interpreter importing skillcheck and running one
    warm-up command of each kind. The samples are spread evenly over the
    run, between commands, so that no single slow moment of the machine
    sets them all; ``setup_s`` is their median."""

    def __init__(self, warmup: list[list[str]], cpus: CpuChooser, seconds: float) -> None:
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(warmup)]
        self.cpus = cpus
        self.interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []

    def take(self) -> None:
        self.cpus.choose()  # a child process inherits its parent's CPU
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")

    def take_due(self, elapsed: float) -> None:
        while len(self.times) < SETUP_SAMPLES and elapsed >= len(self.times) * self.interval:
            self.take()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.take()
        return statistics.median(self.times)


def call(cli, argv: list[str], tracer) -> tuple[float, int, str, Optional[str]]:
    """Run one command; returns (seconds, exit code, stdout, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.enter("cli.command")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an exception escaping main is a failed command
        return time.perf_counter() - start, -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.leave()
    return time.perf_counter() - start, rc, out.getvalue(), None


class Tally:
    """Outcomes of a run. A command's latency is the fastest of its successful
    repetitions in the run: the machine has slow periods of a second or
    more, and the fastest repetition is the one they spared."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.best: dict[tuple, float] = {}  # interactive command -> seconds
        self.batch_best: dict[tuple, float] = {}  # batch command -> seconds
        self.batch_items: dict[tuple, int] = {}
        self.draws = 0
        self.problems: list[str] = []  # wrong outputs outside the probes

    def record(self, table: dict[tuple, float], key: tuple, seconds: float) -> None:
        table[key] = min(seconds, table.get(key, seconds))


def run_rounds(
    cli, ops, seconds: float, tracer, cpus: CpuChooser, setup: SetupProbe
) -> tuple[Tally, int]:
    from workloads import BATCH, INTERACTIVE, PROBE

    tally = Tally()
    verified: dict[tuple, tuple[int, str]] = {}  # command -> output already checked
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for op in ops:
            key = tuple(op.argv)
            setup.take_due(time.perf_counter() - start)
            cpus.maybe_choose(force=op.kind == BATCH)
            if tracer is not None:
                tracer.op_id += 1
            elapsed, rc, out, problem = call(cli, op.argv, tracer)
            if problem is None and verified.get(key) != (rc, out):
                try:
                    problem = op.check(rc, out)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
                if problem is None:
                    verified[key] = (rc, out)
            tally.attempted += 1
            tally.draws += op.draws
            if problem is not None:
                tally.failed += 1
                if op.kind != PROBE:
                    tally.problems.append(f"{' '.join(op.argv)}: {problem}")
            elif op.kind == INTERACTIVE:
                tally.record(tally.best, key, elapsed)
            elif op.kind == BATCH:
                tally.record(tally.batch_best, key, elapsed)
                tally.batch_items[key] = op.items
        rounds += 1
        if tracer is not None:
            tracer.keep = False
    return tally, rounds


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    lat = list(tally.best.values())
    batch_s = sum(tally.batch_best.values())
    return {
        "setup_s": setup_s,
        "interactive_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
        "interactive_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else 0.0,
        "batch_items_per_s": sum(tally.batch_items.values()) / batch_s if batch_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact", "resolve", "fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skillcheck" / "__init__.py").is_file():
        print(f"error: no skillcheck sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import PER_LAYER, Tracer, per_layer

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        cpus = CpuChooser()
        setup = SetupProbe(wl.warmup, cpus, args.seconds)
        import skillcheck.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: skillcheck imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        for warm in wl.warmup:
            _, rc, _, problem = call(cli, warm, None)
            if rc != 0 or problem:
                print(f"error: warm-up {' '.join(warm)} failed: {problem or rc}", file=sys.stderr)
                return 1
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            tally, rounds = run_rounds(cli, wl.ops, args.seconds, tracer, cpus, setup)
            setup_s = setup.median()
        finally:
            cpus.restore()
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.problems[:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    measured = end_to_end(tally, setup_s)
    if tracer is None:
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        layers = per_layer(tracer, rounds, tally.attempted, tally.draws)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": rounds,
                    "commands": tally.attempted,
                    "per_layer": layers,
                    "end_to_end_traced": measured,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans_first_round": tracer.spans,
                },
                fh,
            )
        print(f"spans written to {trace_file}", file=sys.stderr)
    print(f"rounds {rounds}, interactive commands {len(tally.best)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
